// phodis_lint rule engine, tested the only way a linter can be trusted:
// every rule with at least one firing snippet, one clean snippet, and one
// suppressed snippet. Snippets are embedded sources run through
// lint_source() under a path that puts them in the rule's territory.
#include "lint/linter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace lint = phodis::lint;

namespace {

/// Unsuppressed diagnostics for `rule` in `source` linted as `path`.
std::vector<lint::Diagnostic> violations(const std::string& path,
                                         const std::string& source,
                                         const std::string& rule) {
  std::vector<lint::Diagnostic> out;
  for (const auto& d : lint::lint_source(path, source)) {
    if (d.rule == rule && !d.suppressed) out.push_back(d);
  }
  return out;
}

std::vector<lint::Diagnostic> suppressed(const std::string& path,
                                         const std::string& source,
                                         const std::string& rule) {
  std::vector<lint::Diagnostic> out;
  for (const auto& d : lint::lint_source(path, source)) {
    if (d.rule == rule && d.suppressed) out.push_back(d);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------
TEST(Lexer, StripsLineAndBlockComments) {
  const auto lexed = lint::lex(
      "int a; // trailing rand( comment\n"
      "/* block time( */ int b;\n");
  ASSERT_GE(lexed.code.size(), 2u);
  EXPECT_EQ(lexed.code[0], "int a; ");
  EXPECT_EQ(lexed.comments[0], " trailing rand( comment");
  EXPECT_EQ(lexed.code[1], " int b;");
  EXPECT_EQ(lexed.comments[1], " block time( ");
}

TEST(Lexer, BlanksStringAndCharContents) {
  const auto lexed = lint::lex(
      "auto s = \"rand( inside a string\";\n"
      "char c = 'x'; auto t = \"esc \\\" quote\";\n");
  EXPECT_EQ(lexed.code[0], "auto s = \"\";");
  EXPECT_EQ(lexed.code[1], "char c = ''; auto t = \"\";");
}

TEST(Lexer, MultiLineBlockCommentPreservesLineCount) {
  const auto lexed = lint::lex("int a;\n/* one\ntwo\nthree */\nint b;\n");
  ASSERT_EQ(lexed.code.size(), 6u);  // 5 lines + final empty flush
  EXPECT_EQ(lexed.code[4], "int b;");
  EXPECT_EQ(lexed.comments[2], "two");
}

TEST(Lexer, RawStringsAreBlankedAcrossLines) {
  const auto lexed = lint::lex(
      "auto s = R\"(rand(\nstd::random_device\n)\";  // not really\n"
      "int after;\n");
  // Nothing inside the raw string leaks into code lines.
  for (const auto& line : lexed.code) {
    EXPECT_EQ(line.find("random_device"), std::string::npos) << line;
  }
  EXPECT_EQ(lexed.code[3], "int after;");
}

// ---------------------------------------------------------------------------
// D1: nondeterministic sources
// ---------------------------------------------------------------------------
TEST(RuleD1, FiresOnRandomDevice) {
  const auto v = violations("src/mc/kernel.cpp",
                            "std::random_device rd;\nauto seed = rd();\n",
                            "D1");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 1);
}

TEST(RuleD1, FiresOnRandAndSrandAndTime) {
  EXPECT_EQ(violations("src/core/app.cpp", "srand(42); int x = rand();\n",
                       "D1")
                .size(),
            2u);
  EXPECT_EQ(
      violations("src/core/app.cpp", "auto t = time(nullptr);\n", "D1").size(),
      1u);
}

TEST(RuleD1, FiresOnClockNowOutsideStopwatch) {
  const std::string src = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(violations("src/dist/runtime.cpp", src, "D1").size(), 1u);
  // The sanctioned timing wrapper is the one allowed home.
  EXPECT_TRUE(violations("src/util/stopwatch.hpp", src, "D1").empty());
}

TEST(RuleD1, CleanOnIdentifiersContainingThoseWords) {
  // Word boundaries: Runtime( contains "time(", wall_time( ends in time(.
  const auto v = violations("src/dist/runtime.cpp",
                            "Runtime::Runtime(RuntimeConfig c) {}\n"
                            "double wall_time();\n"
                            "int strand(int x);\n",
                            "D1");
  EXPECT_TRUE(v.empty());
}

TEST(RuleD1, CleanInsideStringsAndComments) {
  const auto v = violations("src/core/app.cpp",
                            "log(\"rand() is banned\");  // call time() never\n",
                            "D1");
  EXPECT_TRUE(v.empty());
}

TEST(RuleD1, SuppressionSameLineAndLineAbove) {
  const auto same = suppressed(
      "src/core/app.cpp",
      "auto t = time(nullptr);  // phodis-lint: allow(D1) wall clock for "
      "log banner only\n",
      "D1");
  ASSERT_EQ(same.size(), 1u);
  EXPECT_EQ(same[0].suppress_reason,
            "wall clock for log banner only");

  const auto above = suppressed(
      "src/core/app.cpp",
      "// phodis-lint: allow(D1) banner timestamp, never a seed\n"
      "auto t = time(nullptr);\n",
      "D1");
  ASSERT_EQ(above.size(), 1u);
  EXPECT_TRUE(
      violations("src/core/app.cpp",
                 "// phodis-lint: allow(D1) banner\nauto t = time(nullptr);\n",
                 "D1")
          .empty());
}

TEST(RuleD1, SuppressionForOtherRuleDoesNotApply) {
  const auto v = violations(
      "src/core/app.cpp",
      "auto t = time(nullptr);  // phodis-lint: allow(D4) wrong rule\n", "D1");
  EXPECT_EQ(v.size(), 1u);
}

// ---------------------------------------------------------------------------
// D2: unordered-container iteration / ordered-domain ban
// ---------------------------------------------------------------------------
TEST(RuleD2, FiresOnRangeForOverUnorderedMap) {
  const auto v = violations(
      "src/analysis/render.cpp",
      "std::unordered_map<int, double> tally;\n"
      "for (const auto& [k, w] : tally) sum += w;\n",
      "D2");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 2);
}

TEST(RuleD2, FiresOnBeginIteration) {
  const auto v = violations("src/net/server.cpp",
                            "std::unordered_set<int> ids;\n"
                            "auto it = ids.begin();\n",
                            "D2");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 2);
}

TEST(RuleD2, FiresOnMereDeclarationInOrderedDomain) {
  EXPECT_EQ(violations("src/dist/datamanager.cpp",
                       "std::unordered_map<std::uint64_t, Task> tasks_;\n",
                       "D2")
                .size(),
            1u);
  // Outside the ordered domains a non-iterated unordered container is fine.
  EXPECT_TRUE(violations("src/util/cli.cpp",
                         "std::unordered_map<std::string, int> flags;\n"
                         "auto hit = flags.find(name);\n",
                         "D2")
                  .empty());
}

TEST(RuleD2, CleanOnOrderedContainers) {
  const auto v = violations("src/core/merger.cpp",
                            "std::map<int, double> tally;\n"
                            "for (const auto& [k, w] : tally) sum += w;\n"
                            "std::vector<double> v; for (double x : v) {}\n",
                            "D2");
  EXPECT_TRUE(v.empty());
}

TEST(RuleD2, SuppressionCase) {
  const auto s = suppressed(
      "src/util/registry.cpp",
      "std::unordered_map<std::string, int> cache;\n"
      "// phodis-lint: allow(D2) lookup cache, keys re-sorted before emit\n"
      "for (const auto& [k, n] : cache) keys.push_back(k);\n",
      "D2");
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].suppress_reason, "lookup cache, keys re-sorted before emit");
}

// ---------------------------------------------------------------------------
// D3: hot-path FP hygiene in src/mc/
// ---------------------------------------------------------------------------
TEST(RuleD3, FiresOnHypotFloatFnsFloatDeclsAndLiterals) {
  EXPECT_EQ(
      violations("src/mc/radial.cpp", "double r = std::hypot(x, y);\n", "D3")
          .size(),
      1u);
  EXPECT_EQ(
      violations("src/mc/scatter.cpp", "auto c = powf(g, 2);\n", "D3").size(),
      1u);
  EXPECT_EQ(
      violations("src/mc/photon.hpp", "float weight = 1;\n", "D3").size(),
      1u);
  EXPECT_EQ(
      violations("src/mc/kernel.cpp", "w *= 0.5f;\n", "D3").size(), 1u);
  EXPECT_EQ(
      violations("src/mc/kernel.cpp", "w *= 1e-3f;\n", "D3").size(), 1u);
}

TEST(RuleD3, OnlyAppliesInsideMc) {
  const std::string src =
      "float x = 0.5f;\ndouble r = std::hypot(a, b);\nauto c = sinf(t);\n";
  EXPECT_TRUE(violations("src/analysis/banana.cpp", src, "D3").empty());
  EXPECT_TRUE(violations("bench/bench_kernel.cpp", src, "D3").empty());
}

TEST(RuleD3, PacketAndVmathTusAreExempt) {
  // The batched-packet TUs are compiled with scoped relaxed-FP flags and
  // carry their own golden hashes, so D3's double-only hygiene rule
  // stands down there — and ONLY there.
  const std::string src = "float x = 0.5f;\ndouble r = std::hypot(a, b);\n";
  EXPECT_TRUE(violations("src/mc/packet_kernel.cpp", src, "D3").empty());
  EXPECT_TRUE(violations("src/mc/packet_kernel.hpp", src, "D3").empty());
  EXPECT_TRUE(violations("src/mc/vmath.cpp", src, "D3").empty());
  EXPECT_TRUE(violations("src/mc/vmath.hpp", src, "D3").empty());
}

TEST(RuleD3, ExemptionIsFileScopedNotDirectoryScoped) {
  // The carve-out is an explicit file list, not a pattern that could
  // swallow neighbours: a same-prefix sibling and every other src/mc/
  // file remain D3 territory.
  // (two diagnostics per file: the float declaration and the 0.5f literal)
  const std::string src = "float x = 0.5f;\n";
  EXPECT_EQ(violations("src/mc/kernel.cpp", src, "D3").size(), 2u);
  EXPECT_EQ(violations("src/mc/vmath_tables.cpp", src, "D3").size(), 2u);
  EXPECT_EQ(violations("src/mc/packet_kernel2.cpp", src, "D3").size(), 2u);
}

TEST(RuleD3, CleanOnDoubleMath) {
  const auto v = violations(
      "src/mc/kernel.cpp",
      "double r = util::fast_radius(x, y);\n"
      "double c = std::pow(g, 2.0);\n"
      "double e = 1e-3; auto f = buf_.size();  // f as a name is fine\n",
      "D3");
  EXPECT_TRUE(v.empty());
}

TEST(RuleD3, SuppressionCase) {
  const auto s = suppressed(
      "src/mc/compiled_medium.cpp",
      "float packed = narrow(v);  // phodis-lint: allow(D3) SoA table is "
      "intentionally float, validated vs double\n",
      "D3");
  ASSERT_EQ(s.size(), 1u);  // the `float` declaration, suppressed
}

// ---------------------------------------------------------------------------
// D4: wire hygiene
// ---------------------------------------------------------------------------
TEST(RuleD4, FiresOnMemcpyInNetAndDistMessage) {
  const std::string src = "std::memcpy(prefix, &length, sizeof length);\n";
  EXPECT_EQ(violations("src/net/frame.cpp", src, "D4").size(), 1u);
  EXPECT_EQ(violations("src/dist/message.cpp", src, "D4").size(), 1u);
}

TEST(RuleD4, FiresOnBytePunningCast) {
  const auto v = violations(
      "src/net/frame.cpp",
      "auto* p = reinterpret_cast<uint8_t*>(&header);\n", "D4");
  EXPECT_EQ(v.size(), 1u);
}

TEST(RuleD4, DoesNotApplyOutsideWirePaths) {
  const std::string src = "std::memcpy(dst, src, n);\n";
  EXPECT_TRUE(violations("src/util/bytes.hpp", src, "D4").empty());
  EXPECT_TRUE(violations("src/mc/tally.cpp", src, "D4").empty());
}

TEST(RuleD4, SuppressionCase) {
  const auto s = suppressed(
      "src/net/socket.cpp",
      "// phodis-lint: allow(D4) sockaddr for the OS API, not wire bytes\n"
      "std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);\n",
      "D4");
  ASSERT_EQ(s.size(), 1u);
}

// ---------------------------------------------------------------------------
// D5: concurrency hygiene
// ---------------------------------------------------------------------------
TEST(RuleD5, FiresOnDetachAndVolatile) {
  EXPECT_EQ(violations("src/exec/threadpool.cpp",
                       "std::thread(fn).detach();\n", "D5")
                .size(),
            1u);
  EXPECT_EQ(
      violations("src/net/client.cpp", "volatile bool stop = false;\n", "D5")
          .size(),
      1u);
}

TEST(RuleD5, FiresOnSendUnderLock) {
  const auto v = violations(
      "src/net/server.cpp",
      "void f() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  write_frame(socket, frame);\n"
      "}\n",
      "D5");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 3);
}

TEST(RuleD5, CleanWhenLockScopeClosesBeforeSend) {
  const auto v = violations(
      "src/net/client.cpp",
      "void f() {\n"
      "  {\n"
      "    std::lock_guard<std::mutex> lock(mutex_);\n"
      "    ++frames_sent_;\n"
      "  }\n"
      "  write_frame(socket, frame);\n"
      "}\n",
      "D5");
  EXPECT_TRUE(v.empty());
}

TEST(RuleD5, CleanWhenUniqueLockUnlockedBeforeSend) {
  const auto v = violations(
      "src/net/client.cpp",
      "void f() {\n"
      "  std::unique_lock<std::mutex> lock(mutex_);\n"
      "  auto socket = socket_;\n"
      "  lock.unlock();\n"
      "  write_frame(*socket, frame);\n"
      "}\n",
      "D5");
  EXPECT_TRUE(v.empty());
}

TEST(RuleD5, RelockingRearms) {
  const auto v = violations(
      "src/net/client.cpp",
      "void f() {\n"
      "  std::unique_lock<std::mutex> lock(mutex_);\n"
      "  lock.unlock();\n"
      "  lock.lock();\n"
      "  socket.send_all(data, n);\n"
      "}\n",
      "D5");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 5);
}

TEST(RuleD5, SuppressionCase) {
  const auto s = suppressed(
      "src/net/server.cpp",
      "void f() {\n"
      "  std::lock_guard<std::mutex> write_lock(connection->write_mutex);\n"
      "  // phodis-lint: allow(D5) per-connection write mutex serialises "
      "frames; no other lock is held\n"
      "  if (!write_frame(connection->socket, frame)) {}\n"
      "}\n",
      "D5");
  ASSERT_EQ(s.size(), 1u);
}

// ---------------------------------------------------------------------------
// Stats, baseline parsing, ratchet
// ---------------------------------------------------------------------------
TEST(Stats, CountsViolationsAndSuppressionsPerRule) {
  lint::Stats stats;
  const auto diags = lint::lint_source(
      "src/mc/kernel.cpp",
      "std::random_device rd;\n"
      "float w = 0;  // phodis-lint: allow(D3) test\n");
  for (const auto& d : diags) stats.add(d);
  EXPECT_EQ(stats.violations.at("D1"), 1);
  EXPECT_EQ(stats.suppressions.at("D3"), 1);
  EXPECT_EQ(stats.total_violations(), 1);
  EXPECT_EQ(stats.total_suppressions(), 1);
}

TEST(Baseline, ParsesRulesAndComments) {
  const auto b = lint::parse_baseline(
      "# per-rule suppression ceilings\n"
      "D1 2\n"
      "D4 3  # sockaddr memcpys\n"
      "\n");
  EXPECT_EQ(b.at("D1"), 2);
  EXPECT_EQ(b.at("D4"), 3);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_THROW(lint::parse_baseline("D1 not-a-number\n"), std::runtime_error);
  EXPECT_THROW(lint::parse_baseline("D1 -1\n"), std::runtime_error);
}

TEST(Baseline, RatchetFailsOnGrowthOnly) {
  lint::Stats stats;
  stats.suppressions["D4"] = 3;
  stats.suppressions["D5"] = 1;

  std::vector<std::string> improvements;
  // Exactly at baseline: holds.
  EXPECT_TRUE(lint::check_baseline(stats, {{"D4", 3}, {"D5", 1}},
                                   &improvements)
                  .empty());

  // One above on D4: fails and names the rule.
  const auto failures =
      lint::check_baseline(stats, {{"D4", 2}, {"D5", 1}}, nullptr);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("D4"), std::string::npos);

  // A rule with suppressions but no baseline entry counts as ceiling 0.
  EXPECT_FALSE(lint::check_baseline(stats, {{"D4", 3}}, nullptr).empty());

  // Below baseline: holds, but reports the pay-down opportunity.
  improvements.clear();
  EXPECT_TRUE(lint::check_baseline(stats, {{"D4", 5}, {"D5", 1}},
                                   &improvements)
                  .empty());
  ASSERT_EQ(improvements.size(), 1u);
  EXPECT_NE(improvements[0].find("D4"), std::string::npos);
}

TEST(Format, FileLineRuleMessageShape) {
  lint::Diagnostic d;
  d.file = "src/mc/kernel.cpp";
  d.line = 42;
  d.rule = "D3";
  d.message = "float literal";
  EXPECT_EQ(lint::format_diagnostic(d), "src/mc/kernel.cpp:42: D3: float "
                                        "literal");
  d.suppressed = true;
  d.suppress_reason = "why";
  EXPECT_NE(lint::format_diagnostic(d).find("[suppressed: why]"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Project model (D6–D8 substrate)
// ---------------------------------------------------------------------------
#include "lint/model.hpp"
#include "lint/sarif.hpp"

namespace {

/// Unsuppressed diagnostics for `rule` across a multi-file project.
std::vector<lint::Diagnostic> project_violations(
    const std::vector<lint::SourceFile>& files, const std::string& rule) {
  std::vector<lint::Diagnostic> out;
  for (const auto& d : lint::lint_project(files)) {
    if (d.rule == rule && !d.suppressed) out.push_back(d);
  }
  return out;
}

std::vector<lint::Diagnostic> project_suppressed(
    const std::vector<lint::SourceFile>& files, const std::string& rule) {
  std::vector<lint::Diagnostic> out;
  for (const auto& d : lint::lint_project(files)) {
    if (d.rule == rule && d.suppressed) out.push_back(d);
  }
  return out;
}

}  // namespace

TEST(Model, ExtractsFunctionsEnumsSwitchesAndCodecOps) {
  const auto fm = lint::build_file_model(
      "src/dist/m.cpp",
      "enum class Tag : int { kA, kB };\n"
      "void serialize_task(util::ByteWriter& writer, const Task& t) {\n"
      "  writer.u32(t.id);\n"
      "  writer.str(t.name);\n"
      "}\n"
      "void dispatch(Tag tag) {\n"
      "  switch (tag) {\n"
      "    case Tag::kA:\n"
      "      break;\n"
      "    default:\n"
      "      break;\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(fm.enums.size(), 1u);
  EXPECT_EQ(fm.enums[0].name, "Tag");
  EXPECT_EQ(fm.enums[0].enumerators,
            (std::vector<std::string>{"kA", "kB"}));
  ASSERT_EQ(fm.functions.size(), 2u);
  EXPECT_EQ(fm.functions[0].name, "serialize_task");
  ASSERT_EQ(fm.switches.size(), 1u);
  EXPECT_EQ(fm.switches[0].enum_name, "Tag");
  EXPECT_TRUE(fm.switches[0].has_default);
  ASSERT_EQ(fm.codecs.size(), 1u);
  EXPECT_TRUE(fm.codecs[0].writer);
  ASSERT_EQ(fm.codecs[0].ops.size(), 2u);
  EXPECT_EQ(fm.codecs[0].ops[0].op, "u32");
  EXPECT_EQ(fm.codecs[0].ops[1].op, "str");
}

TEST(Model, LintProjectOrderIsIndependentOfInputOrder) {
  const lint::SourceFile a{"src/net/a.cpp", "void f() { memcpy(p, q, 4); }\n"};
  const lint::SourceFile b{"src/net/b.cpp", "void g() { memcpy(p, q, 4); }\n"};
  const auto forward = lint::lint_project({a, b});
  const auto backward = lint::lint_project({b, a});
  ASSERT_EQ(forward.size(), backward.size());
  for (std::size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(lint::format_diagnostic(forward[i]),
              lint::format_diagnostic(backward[i]));
  }
}

// ---------------------------------------------------------------------------
// D6: wire-protocol symmetry — codec field sequences
// ---------------------------------------------------------------------------
TEST(RuleD6, FiresOnFieldWidthMismatchAcrossFiles) {
  const auto diags = project_violations(
      {{"src/dist/writer.cpp",
        "void serialize_task(util::ByteWriter& writer, const Task& t) {\n"
        "  writer.u32(t.id);\n"
        "  writer.str(t.name);\n"
        "}\n"},
       {"src/dist/reader.cpp",
        "Task deserialize_task(util::ByteReader& reader) {\n"
        "  Task t;\n"
        "  t.id = reader.u64();\n"
        "  t.name = reader.str();\n"
        "  return t;\n"
        "}\n"}},
      "D6");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/dist/reader.cpp");
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("written as u32"), std::string::npos);
  EXPECT_NE(diags[0].message.find("read as u64"), std::string::npos);
}

TEST(RuleD6, FiresWhenDecoderStopsEarly) {
  const auto diags = project_violations(
      {{"src/dist/pair.cpp",
        "void serialize_task(util::ByteWriter& writer, const Task& t) {\n"
        "  writer.u32(t.id);\n"
        "  writer.str(t.name);\n"
        "  writer.f64(t.weight);\n"
        "}\n"
        "Task deserialize_task(util::ByteReader& reader) {\n"
        "  Task t;\n"
        "  t.id = reader.u32();\n"
        "  t.name = reader.str();\n"
        "  return t;\n"
        "}\n"}},
      "D6");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 4);  // the unread f64 write
  EXPECT_NE(diags[0].message.find("stops reading"), std::string::npos);
}

TEST(RuleD6, CleanOnSymmetricPairWithSubCodecAndLoop) {
  const auto diags = project_violations(
      {{"src/dist/state_writer.cpp",
        "void serialize_state(util::ByteWriter& writer, const State& s) {\n"
        "  writer.u64(s.items.size());\n"
        "  for (const auto& item : s.items) {\n"
        "    serialize_item(writer, item);\n"
        "  }\n"
        "  writer.boolean(s.done);\n"
        "}\n"},
       {"src/dist/state_reader.cpp",
        "State deserialize_state(util::ByteReader& reader) {\n"
        "  State s;\n"
        "  const std::uint64_t n = reader.u64();\n"
        "  for (std::uint64_t i = 0; i < n; ++i) {\n"
        "    s.items.push_back(deserialize_item(reader));\n"
        "  }\n"
        "  s.done = reader.boolean();\n"
        "  return s;\n"
        "}\n"}},
      "D6");
  EXPECT_TRUE(diags.empty());
}

TEST(RuleD6, U64AndI64AreWidthCompatible) {
  const auto diags = project_violations(
      {{"src/dist/ts.cpp",
        "void serialize_ts(util::ByteWriter& writer, const Ts& t) {\n"
        "  writer.i64(t.offset_ns);\n"
        "}\n"
        "Ts deserialize_ts(util::ByteReader& reader) {\n"
        "  Ts t;\n"
        "  t.offset_ns = reader.u64();\n"
        "  return t;\n"
        "}\n"}},
      "D6");
  EXPECT_TRUE(diags.empty());
}

TEST(RuleD6, CodecSuppressionCase) {
  const auto files = std::vector<lint::SourceFile>{
      {"src/dist/pinned.cpp",
       "void serialize_v1(util::ByteWriter& writer, const V1& v) {\n"
       "  writer.u32(v.id);\n"
       "}\n"
       "V1 deserialize_v1(util::ByteReader& reader) {\n"
       "  V1 v;\n"
       "  // phodis-lint: allow(D6) v0 wire compat shim, reads the old width\n"
       "  v.id = reader.u8();\n"
       "  return v;\n"
       "}\n"}};
  EXPECT_TRUE(project_violations(files, "D6").empty());
  const auto sup = project_suppressed(files, "D6");
  ASSERT_EQ(sup.size(), 1u);
  EXPECT_EQ(sup[0].suppress_reason, "v0 wire compat shim, reads the old width");
}

// ---------------------------------------------------------------------------
// D6: wire-protocol symmetry — exhaustive switches over message-type enums
// ---------------------------------------------------------------------------
namespace {

const char* const kFrameKindEnum =
    "enum class FrameKind : std::uint8_t { kData = 0, kAck = 1, kNack = 2 "
    "};\n";

}  // namespace

TEST(RuleD6, FiresOnSwitchMissingEnumerator) {
  const auto diags = violations(
      "src/net/dispatch.cpp",
      std::string(kFrameKindEnum) +
          "void handle(FrameKind kind) {\n"
          "  switch (kind) {\n"
          "    case FrameKind::kData:\n"
          "      break;\n"
          "    case FrameKind::kAck:\n"
          "      break;\n"
          "  }\n"
          "}\n",
      "D6");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("kNack"), std::string::npos);
}

TEST(RuleD6, DefaultBranchDoesNotCountAsCoverage) {
  const auto diags = violations(
      "src/net/dispatch.cpp",
      std::string(kFrameKindEnum) +
          "void handle(FrameKind kind) {\n"
          "  switch (kind) {\n"
          "    case FrameKind::kData:\n"
          "      break;\n"
          "    default:\n"
          "      break;\n"
          "  }\n"
          "}\n",
      "D6");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("default:"), std::string::npos);
}

TEST(RuleD6, CleanWhenEveryEnumeratorIsNamed) {
  const auto diags = violations(
      "src/net/dispatch.cpp",
      std::string(kFrameKindEnum) +
          "void handle(FrameKind kind) {\n"
          "  switch (kind) {\n"
          "    case FrameKind::kData:\n"
          "      break;\n"
          "    case FrameKind::kAck:\n"
          "    case FrameKind::kNack:\n"
          "      break;\n"
          "  }\n"
          "}\n",
      "D6");
  EXPECT_TRUE(diags.empty());
}

TEST(RuleD6, SwitchRuleOnlyCoversWireLayerEnums) {
  // Same shape, but the enum lives in src/util: exhaustiveness there is
  // -Wswitch's job, not the wire-protocol rule's.
  const auto diags = violations(
      "src/util/palette.cpp",
      std::string(kFrameKindEnum) +
          "void handle(FrameKind kind) {\n"
          "  switch (kind) {\n"
          "    case FrameKind::kData:\n"
          "      break;\n"
          "  }\n"
          "}\n",
      "D6");
  EXPECT_TRUE(diags.empty());
}

TEST(RuleD6, SwitchSuppressionCase) {
  const auto sup = suppressed(
      "src/net/dispatch.cpp",
      std::string(kFrameKindEnum) +
          "void handle(FrameKind kind) {\n"
          "  // phodis-lint: allow(D6) kNack handled by the caller's retry\n"
          "  switch (kind) {\n"
          "    case FrameKind::kData:\n"
          "      break;\n"
          "    case FrameKind::kAck:\n"
          "      break;\n"
          "  }\n"
          "}\n",
      "D6");
  ASSERT_EQ(sup.size(), 1u);
  EXPECT_EQ(sup[0].suppress_reason, "kNack handled by the caller's retry");
}

// ---------------------------------------------------------------------------
// D7: RNG draw-order discipline in src/mc
// ---------------------------------------------------------------------------
TEST(RuleD7, FiresOnDrawInShortCircuitRightOperand) {
  const auto diags = violations(
      "src/mc/sample.cpp",
      "void step(Rng& rng, bool total_internal, double p) {\n"
      "  if (total_internal || rng.uniform() < p) {\n"
      "    reflect();\n"
      "  }\n"
      "}\n",
      "D7");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("short-circuit"), std::string::npos);
}

TEST(RuleD7, FiresOnDrawInTernaryArm) {
  const auto diags = violations(
      "src/mc/sample.cpp",
      "double jitter(Rng& rng, bool wide) {\n"
      "  return wide ? rng.uniform() : 0.5;\n"
      "}\n",
      "D7");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("ternary"), std::string::npos);
}

TEST(RuleD7, FiresOnTwoDrawsInOneArgumentList) {
  const auto diags = violations(
      "src/mc/sample.cpp",
      "void scatter(Rng& rng) {\n"
      "  deflect(rng.uniform(), rng.uniform());\n"
      "}\n",
      "D7");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("unsequenced"), std::string::npos);
}

TEST(RuleD7, FiresOnStdRandomDistribution) {
  const auto diags = violations(
      "src/mc/sample.cpp",
      "double gauss(std::mt19937_64& engine) {\n"
      "  std::normal_distribution<double> dist(0.0, 1.0);\n"
      "  return dist(engine);\n"
      "}\n",
      "D7");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("normal_distribution"), std::string::npos);
}

TEST(RuleD7, CleanOnSequentialDrawsAndConditionLeftOperand) {
  const auto diags = violations(
      "src/mc/sample.cpp",
      "void step(Rng& rng, double p, bool extra) {\n"
      "  const double u1 = rng.uniform();\n"
      "  const double u2 = rng.uniform();\n"
      "  if (rng.uniform() < p && extra) {\n"
      "    absorb(u1, u2);\n"
      "  }\n"
      "}\n",
      "D7");
  EXPECT_TRUE(diags.empty());
}

TEST(RuleD7, CleanOnBracedInitListDraws) {
  // Braced init-lists evaluate left to right; source.cpp's Gaussian beam
  // depends on exactly this pattern staying legal.
  const auto diags = violations(
      "src/mc/sample.cpp",
      "Vec3 beam(Rng& rng, double sigma) {\n"
      "  return {sigma * rng.normal(), sigma * rng.normal(), 0.0};\n"
      "}\n",
      "D7");
  EXPECT_TRUE(diags.empty());
}

TEST(RuleD7, OnlyAppliesInsideMc) {
  const auto diags = violations(
      "src/dist/retry.cpp",
      "void maybe(Rng& rng, bool flaky, double p) {\n"
      "  if (flaky || rng.uniform() < p) {\n"
      "    retry();\n"
      "  }\n"
      "}\n",
      "D7");
  EXPECT_TRUE(diags.empty());
}

TEST(RuleD7, SuppressionCase) {
  const auto sup = suppressed(
      "src/mc/sample.cpp",
      "void step(Rng& rng, bool total_internal, double p) {\n"
      "  // phodis-lint: allow(D7) draw sequence pinned by golden hashes\n"
      "  if (total_internal || rng.uniform() < p) {\n"
      "    reflect();\n"
      "  }\n"
      "}\n",
      "D7");
  ASSERT_EQ(sup.size(), 1u);
  EXPECT_EQ(sup[0].suppress_reason, "draw sequence pinned by golden hashes");
}

// ---------------------------------------------------------------------------
// D8: lock-order acquisition graph
// ---------------------------------------------------------------------------
TEST(RuleD8, FiresOnInconsistentOrderAcrossFiles) {
  const auto diags = project_violations(
      {{"src/net/forward.cpp",
        "void forward_path() {\n"
        "  std::lock_guard<std::mutex> first(g_route_mutex);\n"
        "  std::lock_guard<std::mutex> second(g_stats_mutex);\n"
        "}\n"},
       {"src/net/reverse.cpp",
        "void reverse_path() {\n"
        "  std::lock_guard<std::mutex> first(g_stats_mutex);\n"
        "  std::lock_guard<std::mutex> second(g_route_mutex);\n"
        "}\n"}},
      "D8");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/net/forward.cpp");
  EXPECT_NE(diags[0].message.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(diags[0].message.find("g_route_mutex -> g_stats_mutex"),
            std::string::npos);
  EXPECT_NE(diags[0].message.find("g_stats_mutex -> g_route_mutex"),
            std::string::npos);
}

TEST(RuleD8, CleanOnConsistentOrderEverywhere) {
  const auto diags = project_violations(
      {{"src/net/forward.cpp",
        "void forward_path() {\n"
        "  std::lock_guard<std::mutex> first(g_route_mutex);\n"
        "  std::lock_guard<std::mutex> second(g_stats_mutex);\n"
        "}\n"},
       {"src/net/other.cpp",
        "void other_path() {\n"
        "  std::lock_guard<std::mutex> first(g_route_mutex);\n"
        "  std::lock_guard<std::mutex> second(g_stats_mutex);\n"
        "}\n"}},
      "D8");
  EXPECT_TRUE(diags.empty());
}

TEST(RuleD8, FiresOnInterproceduralCycle) {
  const auto diags = project_violations(
      {{"src/net/a.cpp",
        "void lock_stats() {\n"
        "  std::lock_guard<std::mutex> guard(g_stats_mutex);\n"
        "  touch();\n"
        "}\n"
        "void forward_path() {\n"
        "  std::lock_guard<std::mutex> guard(g_route_mutex);\n"
        "  lock_stats();\n"
        "}\n"},
       {"src/net/b.cpp",
        "void lock_route() {\n"
        "  std::lock_guard<std::mutex> guard(g_route_mutex);\n"
        "}\n"
        "void reverse_path() {\n"
        "  std::lock_guard<std::mutex> guard(g_stats_mutex);\n"
        "  lock_route();\n"
        "}\n"}},
      "D8");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("g_route_mutex"), std::string::npos);
  EXPECT_NE(diags[0].message.find("g_stats_mutex"), std::string::npos);
}

TEST(RuleD8, GuardsInDetachedLambdasDoNotPoisonTheCaller) {
  // The thread body runs after accept_loop's guard is long gone; treating
  // it as "called under the lock" is how phantom cycles appear.
  const auto diags = project_violations(
      {{"src/net/a.cpp",
        "void lock_stats() {\n"
        "  std::lock_guard<std::mutex> guard(g_stats_mutex);\n"
        "}\n"
        "void spawn_reader() {\n"
        "  std::lock_guard<std::mutex> guard(g_route_mutex);\n"
        "  workers.emplace_back([&] { lock_stats(); });\n"
        "}\n"},
       {"src/net/b.cpp",
        "void reverse_path() {\n"
        "  std::lock_guard<std::mutex> guard(g_stats_mutex);\n"
        "  std::lock_guard<std::mutex> inner(g_route_mutex);\n"
        "}\n"}},
      "D8");
  EXPECT_TRUE(diags.empty());
}

TEST(RuleD8, SuppressionCase) {
  const auto files = std::vector<lint::SourceFile>{
      {"src/net/forward.cpp",
       "void forward_path() {\n"
       "  std::lock_guard<std::mutex> first(g_route_mutex);\n"
       "  // phodis-lint: allow(D8) reverse_path is init-only, never "
       "concurrent\n"
       "  std::lock_guard<std::mutex> second(g_stats_mutex);\n"
       "}\n"},
      {"src/net/reverse.cpp",
       "void reverse_path() {\n"
       "  std::lock_guard<std::mutex> first(g_stats_mutex);\n"
       "  std::lock_guard<std::mutex> second(g_route_mutex);\n"
       "}\n"}};
  EXPECT_TRUE(project_violations(files, "D8").empty());
  const auto sup = project_suppressed(files, "D8");
  ASSERT_EQ(sup.size(), 1u);
  EXPECT_EQ(sup[0].suppress_reason,
            "reverse_path is init-only, never concurrent");
}

// ---------------------------------------------------------------------------
// SARIF output
// ---------------------------------------------------------------------------
TEST(Sarif, ShapeEscapingAndSuppressions) {
  lint::Diagnostic v;
  v.file = "src/mc/kernel.cpp";
  v.line = 42;
  v.rule = "D7";
  v.message = "a \"quoted\" message\nwith a newline\r\x01"
              " and control bytes";
  lint::Diagnostic s;
  s.file = "src/net/socket.cpp";
  s.line = 7;
  s.rule = "D4";
  s.message = "memcpy of sockaddr";
  s.suppressed = true;
  s.suppress_reason = "kernel API surface";
  const std::string json = lint::to_sarif({v, s});

  EXPECT_NE(json.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(json.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"phodis_lint\""), std::string::npos);
  for (const char* rule : lint::kAllRules) {
    EXPECT_NE(json.find("{\"id\": \"" + std::string(rule) + "\""),
              std::string::npos)
        << rule;
  }
  EXPECT_NE(json.find("\"ruleId\": \"D7\""), std::string::npos);
  EXPECT_NE(json.find("\"ruleIndex\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"startLine\": 42"), std::string::npos);
  EXPECT_NE(json.find("%SRCROOT%"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\nwith a newline\\r\\u0001 and control bytes"),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"inSource\""), std::string::npos);
  EXPECT_NE(json.find("\"justification\": \"kernel API surface\""),
            std::string::npos);
  // The unsuppressed result must not carry a suppressions block: count the
  // blocks, there is exactly one for the one suppressed diagnostic.
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"suppressions\"");
       pos != std::string::npos;
       pos = json.find("\"suppressions\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(Sarif, EmptyRunIsStillValid) {
  const std::string json = lint::to_sarif({});
  EXPECT_NE(json.find("\"results\": ["), std::string::npos);
  EXPECT_NE(json.find("\"version\": \"2.1.0\""), std::string::npos);
}
