// The server and worker processes of one cluster run. They make the same
// core/dist/net calls as tools/phodis_server.cpp and
// tools/phodis_worker.cpp, with the benchmark's observers wrapped around
// the transport and executor.
#include <unistd.h>

#include <fstream>
#include <memory>
#include <optional>

#include "core/app.hpp"
#include "dist/runtime.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/kernel_counters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "observe.hpp"
#include "roles.hpp"
#include "workload.hpp"

namespace clusterbench {

using namespace phodis;

namespace {

/// Registry + kernel counters of this process, encoded.
std::vector<std::uint8_t> own_snapshot() {
  obs::Snapshot snapshot = obs::registry().snapshot();
  obs::append_kernel_counters(snapshot);
  return snapshot.encode();
}

/// Per-task output check: the result decodes, carries exactly the task's
/// photons, and its weight ledger balances.
bool task_result_ok(const std::vector<std::uint8_t>& bytes,
                    std::uint64_t task_photons) {
  try {
    util::ByteReader reader(bytes);
    const mc::SimulationTally tally = mc::SimulationTally::deserialize(reader);
    return reader.exhausted() && tally.photons_launched() == task_photons &&
           tally.weight_conservation_error() <=
               weight_conservation_bound(task_photons);
  } catch (const std::exception&) {
    return false;
  }
}

void send_shutdown(dist::Transport& transport, const std::string& worker) {
  dist::Message reply;
  reply.type = dist::MessageType::kShutdown;
  reply.sender = "server";
  transport.send(worker, reply);
}

/// Post-run drain: answer late RequestWork with Shutdown and wait (at
/// most `limit_s`) for the workers' MetricsSnapshot frames — each worker
/// sends one on Shutdown, then exits. The driver
/// folds the same snapshots in from the workers' own records.
void drain_worker_snapshots(net::Server& server, std::size_t workers,
                            double limit_s) {
  std::size_t snapshots = 0;
  const double until = mono_s() + limit_s;
  while (snapshots < workers && mono_s() < until) {
    auto msg = server.receive("server", 5);
    if (!msg) continue;
    if (msg->type == dist::MessageType::kRequestWork) {
      send_shutdown(server, msg->sender);
    } else if (msg->type == dist::MessageType::kMetricsSnapshot) {
      ++snapshots;
    }
  }
}

}  // namespace

int server_main(const util::CliArgs& args) {
  const Workload workload =
      find_workload(args.get("workload", ""), args.get_flag("tiny"));
  const Plan plan =
      make_plan(workload, static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const bool traced = args.get_flag("traced");
  const std::string record_path = args.get("record", "");
  const std::uint64_t expect_hash =
      std::stoull(args.get("expect-hash", "0"), nullptr, 16);
  if (traced) obs::TraceRecorder::global().enable();

  // Set-up: the task plan registered, then the socket bound.
  const core::MonteCarloApp app(plan.spec);
  const std::vector<dist::TaskRecord> tasks =
      app.build_tasks(workload.task_photons, 1);
  const std::vector<std::uint64_t> chunks =
      app.plan_chunks(workload.task_photons, 1);
  dist::DataManager manager(kLeaseS);
  for (const dist::TaskRecord& task : tasks) {
    manager.add_task(task.task_id, task.payload);
  }
  const double registered_s = mono_s();
  net::Server server(net::Address::unix_path(args.get("socket", "")));
  if (const auto ready_fd = static_cast<int>(args.get_int("ready-fd", -1));
      ready_fd >= 0) {
    const char byte = 'r';
    if (::write(ready_fd, &byte, 1) != 1) return 1;
    ::close(ready_fd);
  }

  ServerObserver observer(server, traced);
  if (args.get_flag("setup-only")) {
    // Set-up probe: wait for every worker's first RequestWork, answer it
    // with Shutdown, and report when set-up ended.
    const double give_up_s = mono_s() + 30.0;
    std::size_t snapshots = 0;
    while (observer.workers_seen() < workload.workers) {
      if (mono_s() > give_up_s) return 1;
      const auto msg = observer.receive("server", 5);
      if (!msg) continue;
      if (msg->type == dist::MessageType::kRequestWork) {
        send_shutdown(server, msg->sender);
      } else if (msg->type == dist::MessageType::kMetricsSnapshot) {
        ++snapshots;
      }
    }
    Record record;
    record.values = {
        {"registered_s", registered_s},
        {"last_first_request_s", observer.last_first_request_s()},
    };
    record.save(record_path);
    drain_worker_snapshots(server, workload.workers - snapshots, 0.5);
    server.shutdown();
    return 0;
  }
  const double loop_start_s = mono_s();
  dist::run_server_loop(observer, manager, dist::ServerLoopOptions{});
  const double loop_end_s = mono_s();

  // The final merge and the merged-tally check end the timed window.
  const double merge_start_s = mono_s();
  const std::map<std::uint64_t, std::vector<std::uint8_t>> results =
      manager.results();
  const mc::SimulationTally tally = app.merge_results(results);
  const double merged_s = mono_s();
  const std::vector<std::uint8_t> merged_bytes = tally.to_bytes();
  const bool hash_ok = fnv1a64(merged_bytes) == expect_hash;
  const bool photons_ok = tally.photons_launched() == plan.photons;
  const bool weight_ok = tally.weight_conservation_error() <=
                         weight_conservation_bound(plan.photons);
  const double checked_s = mono_s();

  std::uint64_t bad_tasks = 0;
  for (const auto& [task_id, bytes] : results) {
    if (task_id >= chunks.size() || !task_result_ok(bytes, chunks[task_id])) {
      ++bad_tasks;
    }
  }

  drain_worker_snapshots(server, workload.workers, traced ? 2.0 : 0.5);

  Record record;
  record.values = {
      {"registered_s", registered_s},
      {"loop_start_s", loop_start_s},
      {"loop_end_s", loop_end_s},
      {"first_request_s", observer.first_request_s()},
      {"last_first_request_s", observer.last_first_request_s()},
      {"workers_seen", static_cast<double>(observer.workers_seen())},
      {"last_accept_s", observer.last_accept_s()},
      {"merge_start_s", merge_start_s},
      {"merged_s", merged_s},
      {"checked_s", checked_s},
      {"hash_ok", hash_ok ? 1.0 : 0.0},
      {"photons_ok", photons_ok ? 1.0 : 0.0},
      {"weight_ok", weight_ok ? 1.0 : 0.0},
      {"photons", static_cast<double>(tally.photons_launched())},
      {"tasks", static_cast<double>(tasks.size())},
      {"completed", static_cast<double>(manager.completed_count())},
      {"bad_tasks", static_cast<double>(bad_tasks)},
      {"task_bytes", static_cast<double>(tasks.front().payload.size())},
      {"frames_in", static_cast<double>(observer.frames_in())},
      {"frames_out", static_cast<double>(observer.frames_out())},
      {"receive_wait_s", observer.receive_wait_s()},
  };
  record.series["turnaround_s"] = observer.turnarounds();
  if (traced) {
    record.snapshot = own_snapshot();
    obs::TraceRecorder::global().write_json(args.get("trace-json", ""));
  }
  if (const std::string dump = args.get("dump-tally", ""); !dump.empty()) {
    std::ofstream out(dump, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(merged_bytes.data()),
              static_cast<std::streamsize>(merged_bytes.size()));
  }
  record.save(record_path);
  server.shutdown();
  return 0;
}

int worker_main(const util::CliArgs& args) {
  // Started ahead of the server: report parked, then wait for EOF on the
  // start pipe, which the driver closes once the server listens.
  if (const auto parked = static_cast<int>(args.get_int("parked-fd", -1));
      parked >= 0) {
    const char byte = 'p';
    if (::write(parked, &byte, 1) != 1) return 1;
    ::close(parked);
  }
  if (const auto start = static_cast<int>(args.get_int("start-fd", -1));
      start >= 0) {
    char byte = 0;
    while (::read(start, &byte, 1) > 0) {
    }
    ::close(start);
  }
  const std::string name = args.get("name", "w");
  const bool traced = args.get_flag("traced");
  if (traced) obs::TraceRecorder::global().enable();
  net::Client client(net::Address::unix_path(args.get("socket", "")), name);

  dist::TaskExecutor executor = core::Algorithm::executor(
      static_cast<std::size_t>(args.get_int("threads", 1)));
  std::shared_ptr<TracingExecutor> tracer;
  if (traced) {
    tracer = std::make_shared<TracingExecutor>(std::move(executor));
    executor = [tracer](std::uint64_t task_id,
                        const std::vector<std::uint8_t>& payload) {
      return (*tracer)(task_id, payload);
    };
  }
  // Planted corruption (self-test): one task's result gains weight it
  // never carried; it still decodes, so only the output checks catch it.
  if (const std::int64_t corrupt = args.get_int("corrupt-task", -1);
      corrupt >= 0) {
    executor = [inner = std::move(executor), corrupt](
                   std::uint64_t task_id,
                   const std::vector<std::uint8_t>& payload) {
      std::vector<std::uint8_t> bytes = inner(task_id, payload);
      if (task_id != static_cast<std::uint64_t>(corrupt)) return bytes;
      util::ByteReader reader(bytes);
      mc::SimulationTally tally = mc::SimulationTally::deserialize(reader);
      tally.add_diffuse_reflectance(0.5);
      return tally.to_bytes();
    };
  }

  std::optional<WorkerObserver> observer;
  dist::Transport& transport =
      traced ? static_cast<dist::Transport&>(observer.emplace(client))
             : static_cast<dist::Transport&>(client);
  dist::WorkerLoopOptions options;
  options.name = name;
  options.send_metrics_snapshot = true;
  const dist::WorkerLoopOutcome outcome =
      dist::run_worker_loop(transport, executor, options);

  if (traced) {
    Record record;
    record.values = {
        {"executor_s", tracer->busy_s()},
        {"tasks", static_cast<double>(tracer->calls())},
        {"send_s", observer->send_s()},
        {"receive_s", observer->receive_s()},
    };
    record.series["request_wait_s"] = observer->request_waits();
    record.snapshot = own_snapshot();
    record.save(args.get("record", ""));
    obs::TraceRecorder::global().write_json(args.get("trace-json", ""));
  }
  return outcome.saw_shutdown ? 0 : 2;
}

}  // namespace clusterbench
