#include "lint/sarif.hpp"

#include <array>
#include <sstream>

#include "util/json.hpp"

namespace phodis::lint {

namespace {

struct RuleDoc {
  const char* id;
  const char* text;
};

constexpr std::array<RuleDoc, 8> kRuleDocs = {{
    {"D1", "No nondeterministic sources (random_device, rand, time, "
           "clock ::now outside the timing wrapper)"},
    {"D2", "No unordered-container iteration; no unordered containers in "
           "ordered domains (src/core, src/dist, src/mc)"},
    {"D3", "src/mc hot-path FP hygiene: double-only, no float literals or "
           "float-suffixed math"},
    {"D4", "Wire hygiene: no memcpy/byte-punning in src/net and "
           "src/dist/message — encode via util/bytes.hpp"},
    {"D5", "Concurrency hygiene: no detach, no volatile-as-sync, no mutex "
           "held across a transport send"},
    {"D6", "Wire-protocol symmetry: encoder/decoder field sequences must "
           "mirror; switches over message-type enums must be exhaustive"},
    {"D7", "RNG draw-order discipline in src/mc: no draws in short-circuit "
           "operands, ternary arms, or unsequenced expressions; no std "
           "<random> distributions"},
    {"D8", "Lock-order discipline: the cross-TU mutex acquisition graph "
           "must be acyclic"},
}};

}  // namespace

std::string to_sarif(const std::vector<Diagnostic>& diags) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"phodis_lint\",\n"
      << "          \"informationUri\": "
         "\"https://example.invalid/phodis/tools/lint\",\n"
      << "          \"rules\": [\n";
  for (std::size_t i = 0; i < kRuleDocs.size(); ++i) {
    out << "            {\"id\": \"" << kRuleDocs[i].id
        << "\", \"shortDescription\": {\"text\": \""
        << util::json_escape(kRuleDocs[i].text) << "\"}}"
        << (i + 1 < kRuleDocs.size() ? "," : "") << "\n";
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    int rule_index = -1;
    for (std::size_t r = 0; r < kRuleDocs.size(); ++r) {
      if (d.rule == kRuleDocs[r].id) rule_index = static_cast<int>(r);
    }
    out << "        {\n"
        << "          \"ruleId\": \"" << util::json_escape(d.rule) << "\",\n";
    if (rule_index >= 0) {
      out << "          \"ruleIndex\": " << rule_index << ",\n";
    }
    out << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << util::json_escape(d.message)
        << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": \""
        << util::json_escape(d.file)
        << "\", \"uriBaseId\": \"%SRCROOT%\"}, \"region\": {\"startLine\": "
        << d.line << "}}}\n"
        << "          ]";
    if (d.suppressed) {
      out << ",\n"
          << "          \"suppressions\": [\n"
          << "            {\"kind\": \"inSource\", \"justification\": \""
          << util::json_escape(d.suppress_reason) << "\"}\n"
          << "          ]";
    }
    out << "\n        }" << (i + 1 < diags.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace phodis::lint
