// The benchmark driver: one invocation = one workload at one seed.
//
//   1. build the plan and, outside any timed window, the reference tally
//      (MonteCarloApp::run_parallel of the same spec, chunk and seed) and,
//      for packet workloads, a scalar-mode reference;
//   2. for --seconds, launch cluster runs: a server process, then its
//      workers, over a Unix-domain socket; with --trace 1 each round is
//      an untraced run, one round of layer microbenchmarks, and a traced
//      run;
//   3. check every run's output and print the report, ending with one
//      JSON line: the end-to-end metrics (--trace 0) or the per-layer
//      metrics (--trace 1).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "cluster/simulator.hpp"
#include "core/app.hpp"
#include "exec/parallel.hpp"
#include "layers.hpp"
#include "mc/packet_kernel.hpp"
#include "obs/kernel_counters.hpp"
#include "obs/metrics.hpp"
#include "observe.hpp"
#include "roles.hpp"
#include "stats.hpp"
#include "workload.hpp"

extern char** environ;

namespace clusterbench {

using namespace phodis;

namespace {

/// A cluster run that has not finished after this long is killed and
/// counted as failed.
constexpr double kRunTimeoutS = 90.0;
/// No new cluster run starts once the invocation is this old.
constexpr double kInvocationLimitS = 140.0;
/// Photon cap of a packet workload's scalar-mode reference.
constexpr std::uint64_t kScalarReferencePhotons = 9 * 4096;
/// Rounds (untraced run, microbenchmarks, traced run) of a --trace 1
/// invocation, at least.
constexpr std::size_t kMinTraceRounds = 2;
/// Set-up-only launches before each untraced cluster run: setup_s is the
/// median over these and the cluster runs' own set-ups.
constexpr int kSetupProbesPerRun = 4;
/// Tasks behind one task-turnaround tail estimate, at least.
constexpr std::size_t kTailTasks = 100;

struct Options {
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;
  bool tiny = false;
  std::string out_dir;
  std::string socket_dir;
  std::string git_describe;
};

std::string self_exe() {
  std::error_code error;
  const auto path = std::filesystem::read_symlink("/proc/self/exe", error);
  if (error) throw std::runtime_error("cannot resolve /proc/self/exe");
  return path.string();
}

/// posix_spawn `argv` with stdout folded into stderr (the driver's stdout
/// carries only the report) and each (from, to) pair of `fds` dup2'd.
pid_t spawn(const std::vector<std::string>& argv,
            const std::vector<std::pair<int, int>>& fds) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
  for (const auto& [from, to] : fds) {
    posix_spawn_file_actions_adddup2(&actions, from, to);
  }
  std::vector<char*> raw;
  for (const std::string& arg : argv) {
    raw.push_back(const_cast<char*>(arg.c_str()));
  }
  raw.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, raw[0], &actions, nullptr, raw.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("posix_spawn failed");
  return pid;
}

struct Exit {
  bool clean = false;   ///< exited with status 0 before the deadline
  bool killed = false;  ///< still running at the deadline
  double peak_rss_mb = 0.0;
};

/// Reap `pid`, killing it once `deadline_s` (mono_s clock) passes.
Exit reap(pid_t pid, double deadline_s) {
  Exit exit;
  int status = 0;
  rusage usage{};
  for (;;) {
    const pid_t done = ::wait4(pid, &status, WNOHANG, &usage);
    if (done == pid) break;
    if (done < 0) return exit;
    if (mono_s() > deadline_s) {
      ::kill(pid, SIGKILL);
      ::wait4(pid, &status, 0, &usage);
      exit.killed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  exit.clean = !exit.killed && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  exit.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return exit;
}

/// One cluster run's outcome, as the driver scores it.
struct ClusterRun {
  bool traced = false;
  bool correct = false;
  std::uint64_t tasks = 0;
  std::uint64_t failed = 0;
  double photons_per_s = 0.0;
  double time_to_result_s = 0.0;
  double setup_s = 0.0;
  double serve_s = 0.0;
  double final_merge_s = 0.0;
  double peak_rss_mb = 0.0;
  std::string problem;
  Record server;
  std::vector<Record> workers;
};

struct References {
  std::uint64_t hash = 0;
  std::optional<mc::SimulationTally> scalar;  ///< packet workloads only
};

/// One launch of a server process and its workers.
struct Launch {
  double launch_s = 0.0;  ///< just before the server was spawned
  bool listening = false;
  Exit server_exit;
  std::string server_record;
  std::vector<std::string> worker_records;  ///< traced launches only
};

/// Both ends of a pipe, closed on destruction (close_end() closes one
/// early). Both ends carry O_CLOEXEC, so a child sees only the ends that
/// spawn() maps into it, and sit at fd 10 or above, clear of the low
/// numbers they are mapped onto.
class Pipe {
 public:
  Pipe() {
    int raw[2];
    if (::pipe2(raw, O_CLOEXEC) != 0) throw std::runtime_error("pipe2");
    for (int end = 0; end < 2; ++end) {
      fds_[end] = ::fcntl(raw[end], F_DUPFD_CLOEXEC, 10);
      ::close(raw[end]);
    }
    if (fds_[0] < 0 || fds_[1] < 0) throw std::runtime_error("fcntl");
  }
  ~Pipe() {
    close_end(0);
    close_end(1);
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  int read_end() const { return fds_[0]; }
  int write_end() const { return fds_[1]; }
  void close_end(int end) {
    if (fds_[end] >= 0) ::close(fds_[end]);
    fds_[end] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

/// Wait for `count` bytes on `fd` (POLLIN with a timeout per byte).
bool read_bytes(int fd, std::size_t count, int timeout_ms) {
  for (std::size_t got = 0; got < count; ++got) {
    pollfd ready{fd, POLLIN, 0};
    char byte = 0;
    if (::poll(&ready, 1, timeout_ms) != 1 || ::read(fd, &byte, 1) != 1) {
      return false;
    }
  }
  return true;
}

/// One cluster launch. The workers start first and park: each reports on
/// the `parked` pipe, then blocks on the `start` pipe, standing in for
/// client machines that are already up when the server starts. Then the
/// server is spawned (launch_s), and once it listens the start pipe is
/// closed and the workers connect. `tag` names this launch's files.
Launch launch(const Options& opt, const Plan& plan, const std::string& tag,
              std::vector<std::string> server_flags, bool traced) {
  const Workload& w = plan.workload;
  const std::string exe = self_exe();
  const std::string socket = opt.socket_dir + "/" +
                             std::to_string(::getpid()) + "-" + tag + ".sock";
  Launch out;
  out.server_record = opt.out_dir + "/server-" + tag + ".rec";
  std::filesystem::remove(out.server_record);
  std::vector<std::string> server_argv = {
      exe, "server", "--log-level", "error", "--workload", w.name,
      "--seed", std::to_string(opt.seed), "--socket", socket,
      "--ready-fd", "3", "--record", out.server_record};
  if (opt.tiny) server_argv.push_back("--tiny");
  if (traced) {
    server_argv.insert(server_argv.end(),
                       {"--traced", "--trace-json",
                        opt.out_dir + "/trace-server-" + tag + ".json"});
  }
  server_argv.insert(server_argv.end(), server_flags.begin(),
                     server_flags.end());

  Pipe parked;
  Pipe start;
  Pipe ready;
  std::vector<pid_t> pids;  // workers, then the server
  try {
    for (std::size_t i = 0; i < w.workers; ++i) {
      const std::string name = "w" + std::to_string(i);
      std::vector<std::string> argv = {
          exe, "worker", "--log-level", "error", "--socket", socket,
          "--name", name, "--threads", std::to_string(w.threads),
          "--start-fd", "3", "--parked-fd", "4"};
      if (traced) {
        out.worker_records.push_back(opt.out_dir + "/" + name + "-" + tag +
                                     ".rec");
        std::filesystem::remove(out.worker_records.back());
        argv.insert(argv.end(),
                    {"--traced", "--record", out.worker_records.back(),
                     "--trace-json",
                     opt.out_dir + "/trace-" + name + "-" + tag + ".json"});
      }
      if (opt.corrupt) argv.insert(argv.end(), {"--corrupt-task", "0"});
      pids.push_back(
          spawn(argv, {{start.read_end(), 3}, {parked.write_end(), 4}}));
    }
    parked.close_end(1);
    if (!read_bytes(parked.read_end(), w.workers, 60000)) {
      throw std::runtime_error("workers did not start");
    }
    out.launch_s = mono_s();
    pids.push_back(spawn(server_argv, {{ready.write_end(), 3}}));
    ready.close_end(1);
    out.listening = read_bytes(ready.read_end(), 1, 60000);
    start.close_end(1);  // EOF: every parked worker connects now
  } catch (...) {
    for (const pid_t pid : pids) reap(pid, 0.0);  // kill what started
    throw;
  }
  out.server_exit = reap(pids.back(), out.launch_s + kRunTimeoutS);
  // Workers exit on the Shutdown frame; a straggler gets a short grace
  // before it is killed.
  const double grace_s = mono_s() + 3.0;
  for (std::size_t i = 0; i < w.workers; ++i) reap(pids[i], grace_s);
  std::filesystem::remove(socket);
  return out;
}

/// Set-up time of one launch whose server stops once set up (--setup-only);
/// NaN when it failed.
double probe_setup(const Options& opt, const Plan& plan,
                   const std::string& tag) {
  const Launch l = launch(opt, plan, tag, {"--setup-only"}, false);
  if (!l.listening || !l.server_exit.clean) return std::nan("");
  const Record rec = Record::load(l.server_record);
  return std::max(rec.value("registered_s"),
                  rec.value("last_first_request_s")) - l.launch_s;
}

ClusterRun run_cluster(const Options& opt, const Plan& plan,
                       const References& refs, int index, bool traced,
                       bool statistical_check) {
  const Workload& w = plan.workload;
  const std::string tag = std::to_string(index) + (traced ? "t" : "u");
  const std::string tally_path = opt.out_dir + "/tally-" + tag + ".bin";
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016" PRIx64, refs.hash);
  std::vector<std::string> flags = {"--expect-hash", hash};
  if (statistical_check) {
    flags.insert(flags.end(), {"--dump-tally", tally_path});
  }
  const Launch l = launch(opt, plan, tag, flags, traced);

  ClusterRun run;
  run.traced = traced;
  run.tasks = w.tasks;
  run.failed = run.tasks;  // until the checks below pass
  if (!l.listening || !l.server_exit.clean) {
    run.problem = !l.listening ? "server never listened" : "server failed";
    return run;
  }
  run.server = Record::load(l.server_record);
  for (const std::string& path : l.worker_records) {
    try {
      run.workers.push_back(Record::load(path));
    } catch (const std::exception&) {
      // A worker killed after the run leaves no record; its share of the
      // traced per-layer numbers is missing, the run itself is complete.
    }
  }
  const Record& rec = run.server;
  run.peak_rss_mb = l.server_exit.peak_rss_mb;
  run.serve_s = rec.value("last_accept_s") - rec.value("first_request_s");
  run.photons_per_s = rec.value("photons") / run.serve_s;
  run.setup_s = std::max(rec.value("registered_s"),
                         rec.value("last_first_request_s")) -
                l.launch_s;
  run.time_to_result_s = rec.value("checked_s") - l.launch_s;
  run.final_merge_s = rec.value("merged_s") - rec.value("merge_start_s");

  for (const char* check : {"hash_ok", "photons_ok", "weight_ok"}) {
    if (rec.value(check) != 1.0) run.problem += std::string(" ") + check;
  }
  if (rec.value("completed") != rec.value("tasks")) {
    run.problem += " completed";
  }
  if (rec.value("workers_seen") != static_cast<double>(w.workers)) {
    run.problem += " workers_seen";
  }
  bool merged_ok = run.problem.empty();
  if (!merged_ok) run.problem = "merged-tally checks failed:" + run.problem;
  if (merged_ok && statistical_check) {
    std::ifstream in(tally_path, std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    util::ByteReader reader(bytes);
    const mc::StatEquivalence eq = mc::statistical_equivalence(
        *refs.scalar, mc::SimulationTally::deserialize(reader));
    std::cout << "packet-vs-scalar statistical check: max_z="
              << eq.max_z << " (threshold " << mc::kDefaultStatSigma
              << "): " << (eq.pass ? "PASS" : "FAIL") << "\n";
    if (!eq.pass) {
      merged_ok = false;
      run.problem = "statistical check failed\n" + eq.summary();
    }
  }
  const auto bad_tasks = static_cast<std::uint64_t>(rec.value("bad_tasks"));
  run.failed = merged_ok ? bad_tasks : run.tasks;
  if (merged_ok && bad_tasks > 0) run.problem = "task results failed checks";
  run.correct = run.failed == 0;
  return run;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< human-readable detail (median / tail / n)
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_report(const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted, std::uint64_t failed) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << (m.note.empty() ? "" : "  (" + m.note + ")")
              << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json << ", ";
    json << "\"" << metrics[i].name << "\": {\"value\": "
         << json_number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

std::string timing_note(const std::vector<double>& samples, double tail_p) {
  std::ostringstream note;
  note << "median " << median(samples) << ", p" << tail_p << " "
       << quantile(samples, tail_p / 100.0) << ", n=" << samples.size();
  return note.str();
}

void print_manifest(const Options& opt, const Plan& plan, double tail_p) {
  const Workload& w = plan.workload;
  std::cout << "manifest: {\"workload\": \"" << w.name << "\", \"seed\": "
            << opt.seed << ", \"kernel_mode\": \"" << mc::to_string(w.mode)
            << "\", \"photon_budget\": " << plan.photons
            << ", \"tasks\": " << w.tasks
            << ", \"task_photons\": " << w.task_photons
            << ", \"workers\": " << w.workers
            << ", \"threads_per_worker\": " << w.threads
            << ", \"busy_threads\": " << w.busy_threads()
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"tail_percentile\": " << tail_p
            << ", \"build_type\": \"" << CLUSTERBENCH_BUILD_TYPE
            << "\", \"PHODIS_OBS_KERNEL\": "
            << (obs::kernel_counters_compiled() ? "true" : "false")
            << ", \"avx2\": "
            << (__builtin_cpu_supports("avx2") ? "true" : "false")
            << ", \"avx512f\": "
            << (__builtin_cpu_supports("avx512f") ? "true" : "false")
            << ", \"git_describe\": \"" << opt.git_describe << "\"}\n";
}

/// Which cluster runs a metric reads.
enum class Runs { kUntraced, kTraced, kAll };

/// Collected over the invocation's cluster runs.
struct Tallies {
  std::vector<ClusterRun> runs;
  std::vector<double> setup_probes;  ///< --setup-only launches
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void add(ClusterRun run) {
    std::cout << "run " << runs.size() << (run.traced ? " traced" : "")
              << ": photons_per_s " << run.photons_per_s
              << ", time_to_result_s " << run.time_to_result_s
              << ", setup_s " << run.setup_s << ", failed " << run.failed
              << "/" << run.tasks << "\n";
    attempted += run.tasks;
    failed += run.failed;
    if (!run.correct) {
      correct = false;
      std::cout << "cluster run FAILED: " << run.problem << "\n";
    }
    runs.push_back(std::move(run));
  }

  void add_setup_probe(double setup_s) {
    if (std::isnan(setup_s)) {
      correct = false;
      std::cout << "set-up probe FAILED\n";
      return;
    }
    setup_probes.push_back(setup_s);
  }

  /// `field` (a member pointer or a callable) of every correct run.
  template <typename F>
  std::vector<double> collect(Runs which, F field) const {
    std::vector<double> out;
    for (const ClusterRun& run : runs) {
      const bool wanted = which == Runs::kAll ||
                          run.traced == (which == Runs::kTraced);
      if (run.correct && wanted) out.push_back(std::invoke(field, run));
    }
    return out;
  }
};

/// Task-turnaround tails are taken over groups of about kTailTasks
/// consecutive tasks — a run split into equal parts when it has at least
/// kTailTasks tasks, else whole runs pooled — and the median over groups
/// is reported, so one host stall moves one group's tail, not the
/// invocation's. Returns the group size in tasks.
std::size_t tail_group_tasks(const Workload& w) {
  if (w.tasks >= kTailTasks) return w.tasks / (w.tasks / kTailTasks);
  return w.tasks * ((kTailTasks + w.tasks - 1) / w.tasks);
}

std::vector<Metric> end_to_end_metrics(const Tallies& t, const Workload& w,
                                       double tail_p) {
  const auto pps = t.collect(Runs::kUntraced, &ClusterRun::photons_per_s);
  const auto ttr = t.collect(Runs::kUntraced, &ClusterRun::time_to_result_s);
  const auto rss = t.collect(Runs::kUntraced, &ClusterRun::peak_rss_mb);
  std::vector<double> setup = t.setup_probes;
  for (const double s : t.collect(Runs::kUntraced, &ClusterRun::setup_s)) {
    setup.push_back(s);
  }
  std::vector<double> turnaround;
  std::vector<double> group;
  std::vector<double> group_tails;
  const std::size_t group_tasks = tail_group_tasks(w);
  for (const ClusterRun& run : t.runs) {
    if (!run.correct || run.traced) continue;
    for (const double s : run.server.samples("turnaround_s")) {
      turnaround.push_back(s);
      group.push_back(s);
      if (group.size() == group_tasks) {
        group_tails.push_back(quantile(group, tail_p / 100.0));
        group.clear();
      }
    }
  }
  if (group_tails.empty()) {
    group_tails.push_back(quantile(group, tail_p / 100.0));
  }
  const double completed =
      t.attempted == 0 ? 0.0
                       : 1.0 - static_cast<double>(t.failed) /
                                   static_cast<double>(t.attempted);
  return {
      {"photons_per_s", median(pps), "1/s", timing_note(pps, 50)},
      {"time_to_result_s", median(ttr), "s", timing_note(ttr, 50)},
      {"setup_s", median(setup), "s", timing_note(setup, 50)},
      {"task_turnaround_p50_s", quantile(turnaround, 0.5), "s",
       timing_note(turnaround, 50)},
      {"task_turnaround_tail_s", median(group_tails), "s",
       "median over " + std::to_string(group_tails.size()) + " groups of p" +
           json_number(tail_p) + " over " + std::to_string(group_tasks) +
           " tasks"},
      {"completed_ratio", completed, "ratio",
       "failed_ratio " + json_number(1.0 - completed) + " = " +
           std::to_string(t.failed) + " / " + std::to_string(t.attempted) +
           " tasks"},
      {"server_peak_rss_mb", median(rss), "MB", timing_note(rss, 50)},
  };
}

double sum_over(const std::vector<Record>& records, const std::string& key) {
  double total = 0.0;
  for (const Record& r : records) total += r.value(key);
  return total;
}

/// |ClusterSimulator makespan − measured serve wall| / measured, with
/// cluster::SimulationCost and the network model filled from this
/// invocation's layer numbers on a fleet matching the workload.
double model_error(const Options& opt, const Plan& plan, const Tallies& t,
                   const std::map<std::string, double>& layer,
                   double rtt_s) {
  const Workload& w = plan.workload;
  const double node_pps = layer.at(w.threads > 1
                                       ? "exec.runner_photons_per_s_nt"
                                       : "exec.runner_photons_per_s_1t");
  const double measured =
      median(t.collect(Runs::kUntraced, &ClusterRun::serve_s));
  const auto final_merge = t.collect(Runs::kAll, &ClusterRun::final_merge_s);
  if (!(node_pps > 0.0) || !(measured > 0.0)) return 0.0;
  cluster::ClusterConfig config;
  for (std::size_t i = 0; i < w.workers; ++i) {
    cluster::NodeSpec node;
    node.name = "w" + std::to_string(i);
    node.mflops = 1.0;  // so flops_per_photon is 1e6 / photons per second
    config.fleet.push_back(node);
  }
  config.total_photons = plan.photons;
  config.chunk_photons = w.task_photons;
  config.load.min_availability = 1.0;
  config.load.max_availability = 1.0;
  config.cost.flops_per_photon = 1e6 / node_pps;
  config.cost.task_bytes = t.runs.front().server.value("task_bytes");
  config.cost.result_bytes = layer.at("core.tally_bytes");
  config.network.latency_s = 0.5 * rtt_s;
  config.network.bandwidth_bps = 1e6 * layer.at("net.frame_MBps");
  // Decode RequestWork + encode AssignTask, then one lease.
  config.cost.assign_cost_s = 2e-9 * layer.at("dist.codec_ns_per_frame") +
                              1.0 / layer.at("dist.manager_ops_per_s");
  config.cost.merge_cost_s =
      median(final_merge) / static_cast<double>(w.tasks);
  config.seed = opt.seed;
  const double predicted = cluster::ClusterSimulator(config).run().makespan_s;
  std::cout << "cluster model: predicted serve " << predicted
            << " s, measured " << measured << " s\n";
  return std::abs(predicted - measured) / measured;
}

std::vector<Metric> layer_metrics(const Options& opt, const Plan& plan,
                                  const Tallies& t, const LayerBench& bench) {
  const Workload& w = plan.workload;
  const std::map<std::string, double> m = bench.medians();
  const auto layer = [&](const std::string& name, const std::string& unit,
                         const std::string& note = "") {
    return Metric{name, m.at(name), unit, note};
  };
  const double kernel_pps = m.at("mc.kernel_photons_per_s");
  const double runner_1t = m.at("exec.runner_photons_per_s_1t");
  const double runner_nt = m.at("exec.runner_photons_per_s_nt");
  const double nt = static_cast<double>(bench.pool_threads());
  const double tasks = static_cast<double>(w.tasks);

  const double untraced_pps =
      median(t.collect(Runs::kUntraced, &ClusterRun::photons_per_s));
  const double traced_pps =
      median(t.collect(Runs::kTraced, &ClusterRun::photons_per_s));
  const auto value = [](const std::string& key) {
    return [key](const ClusterRun& r) { return r.server.value(key); };
  };
  const auto final_merge = t.collect(Runs::kAll, &ClusterRun::final_merge_s);
  // Traced runs: server loop split into self time and receive wait.
  const auto frames = t.collect(Runs::kTraced, [](const ClusterRun& r) {
    return r.server.value("frames_in") + r.server.value("frames_out");
  });
  const auto wait = t.collect(Runs::kTraced, value("receive_wait_s"));
  const auto loop = t.collect(Runs::kTraced, [](const ClusterRun& r) {
    return r.server.value("loop_end_s") - r.server.value("loop_start_s");
  });
  const auto busy = t.collect(Runs::kTraced, [](const ClusterRun& r) {
    return 1.0 - r.server.value("receive_wait_s") /
                     (r.server.value("loop_end_s") -
                      r.server.value("loop_start_s"));
  });
  const auto workers_total = [&](const std::string& key) {
    return t.collect(Runs::kTraced, [key](const ClusterRun& r) {
      return sum_over(r.workers, key);
    });
  };
  const auto compute_fraction =
      t.collect(Runs::kTraced, [](const ClusterRun& r) {
        return sum_over(r.workers, "executor_s") /
               (static_cast<double>(r.workers.size()) * r.serve_s);
      });
  const auto bytes_per_photon =
      t.collect(Runs::kTraced, [](const ClusterRun& r) {
        obs::Snapshot snapshot = obs::Snapshot::decode(r.server.snapshot);
        for (const Record& worker : r.workers) {
          snapshot.merge(obs::Snapshot::decode(worker.snapshot));
        }
        return static_cast<double>(
                   counter_total(snapshot, "net_bytes_sent_total")) /
               r.server.value("photons");
      });
  std::vector<double> request_waits;
  for (const ClusterRun& run : t.runs) {
    if (!run.correct || !run.traced) continue;
    for (const Record& worker : run.workers) {
      const auto& s = worker.samples("request_wait_s");
      request_waits.insert(request_waits.end(), s.begin(), s.end());
    }
  }
  const std::vector<double>& rtts = bench.round_trips();
  const double rtt_tail_p = tail_percentile(rtts.size());
  const auto per_task = [&](double v) { return v / tasks; };

  return {
      layer("mc.kernel_photons_per_s", "1/s"),
      layer("mc.interactions_per_photon", "count"),
      layer("mc.ns_per_interaction", "ns"),
      layer("mc.lane_occupancy", "ratio"),
      layer("exec.runner_photons_per_s_1t", "1/s"),
      layer("exec.runner_photons_per_s_nt", "1/s",
            "threads=" + json_number(nt)),
      {"exec.shard_overhead", 1.0 - runner_1t / kernel_pps, "ratio", ""},
      {"exec.scaling_efficiency", runner_nt / (nt * runner_1t), "ratio", ""},
      layer("exec.pool_wait_p50_s", "s", "0 when tasks are one shard"),
      layer("core.task_setup_s", "s"),
      layer("core.tally_bytes", "bytes"),
      layer("core.tally_encode_s", "s"),
      layer("core.tally_decode_merge_s", "s"),
      {"core.final_merge_s", median(final_merge), "s",
       timing_note(final_merge, 50)},
      layer("dist.codec_ns_per_frame", "ns"),
      layer("dist.manager_ops_per_s", "1/s",
            "one op = add + lease + complete"),
      {"dist.frames_per_task", per_task(median(frames)), "count", ""},
      {"dist.server_busy_fraction", median(busy), "ratio", ""},
      {"net.rtt_p50_us", 1e6 * median(rtts), "us",
       timing_note(rtts, rtt_tail_p)},
      {"net.rtt_tail_us", 1e6 * quantile(rtts, rtt_tail_p / 100.0), "us",
       "p" + json_number(rtt_tail_p) + " of n=" + std::to_string(rtts.size())},
      layer("net.frame_MBps", "MB/s"),
      {"net.bytes_per_photon", median(bytes_per_photon), "bytes", ""},
      {"worker.compute_fraction", median(compute_fraction), "ratio", ""},
      {"worker.request_wait_p50_s", median(request_waits), "s",
       timing_note(request_waits, tail_percentile(request_waits.size()))},
      {"cluster.parallel_efficiency",
       untraced_pps / (static_cast<double>(w.compute_threads()) * kernel_pps),
       "ratio", ""},
      {"cluster.model_error", model_error(opt, plan, t, m, median(rtts)),
       "ratio", "reported, not gated"},
      {"trace.overhead_ratio", traced_pps / untraced_pps, "ratio",
       "traced photons_per_s over untraced"},
      {"trace.server_self_s_per_task",
       per_task(median(loop) - median(wait)), "s", ""},
      {"trace.server_wait_s_per_task", per_task(median(wait)), "s", ""},
      {"trace.worker_compute_s_per_task",
       per_task(median(workers_total("executor_s"))), "s", ""},
      {"trace.worker_send_s_per_task",
       per_task(median(workers_total("send_s"))), "s", ""},
      {"trace.worker_wait_s_per_task",
       per_task(median(workers_total("receive_s"))), "s", ""},
  };
}

}  // namespace

int driver_main(const util::CliArgs& args) {
  const double start_s = mono_s();
  Options opt;
  opt.tiny = args.get_flag("tiny");
  opt.workload = find_workload(args.get("workload", ""), opt.tiny);
  opt.seed = std::stoull(args.get("seed", "1"));
  opt.seconds = args.get_double("seconds", 10.0);
  opt.trace = args.get_int("trace", 0) != 0;
  opt.corrupt = args.get_flag("corrupt");
  opt.git_describe = args.get("git-describe", "unknown");
  const std::string work_dir = args.get("work-dir", ".bench_build");
  opt.out_dir = work_dir + "/out/" + opt.workload.name + "-" +
                std::to_string(opt.seed) + (opt.trace ? "-trace" : "");
  opt.socket_dir = work_dir + "/sock";
  std::filesystem::remove_all(opt.out_dir);
  std::filesystem::create_directories(opt.out_dir);
  std::filesystem::create_directories(opt.socket_dir);

  const Plan plan = make_plan(opt.workload, opt.seed);
  const Workload& w = plan.workload;
  const double tail_p = tail_percentile(tail_group_tasks(w));
  print_manifest(opt, plan, tail_p);

  // References, outside every timed window, reused by all runs.
  References refs;
  {
    const double t0 = mono_s();
    const core::MonteCarloApp app(plan.spec);
    refs.hash = fnv1a64(
        app.run_parallel(w.compute_threads(), w.task_photons).to_bytes());
    if (w.mode == mc::KernelMode::kPacket) {
      // The scalar reference of the same spec and seed, over at most a
      // third of the budget (statistical_equivalence weighs each side by
      // its own photon count) in three-shard tasks, so run_parallel
      // spreads it over the compute threads.
      const std::uint64_t photons = std::clamp<std::uint64_t>(
          plan.photons / 3, 1, kScalarReferencePhotons);
      const core::MonteCarloApp scalar_app(
          make_spec(w, photons, plan.spec.seed, mc::KernelMode::kScalar));
      refs.scalar = scalar_app.run_parallel(w.compute_threads(),
                                            3 * exec::kDefaultShardPhotons);
    }
    std::cout << "references ready in " << mono_s() - t0 << " s\n";
  }

  std::optional<LayerBench> bench;
  if (opt.trace) {
    bench.emplace(plan, opt.socket_dir + "/" + std::to_string(::getpid()) +
                            "-layers.sock");
  }

  Tallies tallies;
  const double window_s = mono_s();
  for (int index = 0;; ++index) {
    const bool first = index == 0;
    if (!opt.trace) {
      for (int probe = 0; probe < kSetupProbesPerRun; ++probe) {
        tallies.add_setup_probe(probe_setup(
            opt, plan, std::to_string(index) + "s" + std::to_string(probe)));
      }
    }
    tallies.add(run_cluster(opt, plan, refs, index, false,
                            first && refs.scalar.has_value()));
    if (bench) {
      bench->round();
      tallies.add(run_cluster(opt, plan, refs, index, true, false));
    }
    const auto runs = static_cast<std::size_t>(index + 1);
    const double now = mono_s();
    if (now - start_s > kInvocationLimitS) break;
    const std::size_t min_runs =
        opt.trace ? std::min(w.min_runs, kMinTraceRounds) : w.min_runs;
    if (runs >= min_runs && now - window_s >= opt.seconds) break;
  }

  std::cout << tallies.runs.size() << " cluster runs in "
            << mono_s() - window_s << " s\n";
  const std::vector<Metric> metrics =
      opt.trace ? layer_metrics(opt, plan, tallies, *bench)
                : end_to_end_metrics(tallies, w, tail_p);
  print_report(metrics, tallies.correct, tallies.attempted, tallies.failed);
  return tallies.correct ? 0 : 1;
}

}  // namespace clusterbench
