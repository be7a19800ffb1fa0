// End-to-end tests of the distributed runtime: the full
// RequestWork/AssignTask/TaskResult protocol with fault injection.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <optional>
#include <vector>

#include "dist/runtime.hpp"
#include "dist/transport.hpp"

namespace phodis::dist {
namespace {

/// Executor that doubles every payload byte (deterministic, cheap).
std::vector<std::uint8_t> doubler(std::uint64_t /*task_id*/,
                                  const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out = payload;
  for (auto& b : out) b = static_cast<std::uint8_t>(b * 2);
  return out;
}

std::vector<TaskRecord> make_tasks(std::size_t count) {
  std::vector<TaskRecord> tasks;
  for (std::size_t i = 0; i < count; ++i) {
    tasks.push_back(TaskRecord{
        i, {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i + 1)}});
  }
  return tasks;
}

TEST(RuntimeConfig, Validation) {
  RuntimeConfig config;
  config.worker_count = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.worker_count = 1;
  config.lease_duration_s = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.lease_duration_s = 1.0;
  config.worker_death_probability = 1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Runtime, CompletesAllTasksSingleWorker) {
  RuntimeConfig config;
  config.worker_count = 1;
  Runtime runtime(config);
  const auto tasks = make_tasks(16);
  const RuntimeReport report = runtime.run(tasks, doubler);
  ASSERT_EQ(report.results.size(), 16u);
  for (const auto& task : tasks) {
    const auto& result = report.results.at(task.task_id);
    ASSERT_EQ(result.size(), 2u);
    EXPECT_EQ(result[0], static_cast<std::uint8_t>(task.payload[0] * 2));
  }
  EXPECT_EQ(report.manager_stats.completions, 16u);
}

TEST(Runtime, CompletesWithManyWorkers) {
  RuntimeConfig config;
  config.worker_count = 8;
  Runtime runtime(config);
  const RuntimeReport report = runtime.run(make_tasks(64), doubler);
  EXPECT_EQ(report.results.size(), 64u);
}

TEST(Runtime, EmptyTaskListTerminatesImmediately) {
  RuntimeConfig config;
  config.worker_count = 2;
  Runtime runtime(config);
  const RuntimeReport report = runtime.run({}, doubler);
  EXPECT_TRUE(report.results.empty());
}

TEST(Runtime, ExecutorSeesCorrectTaskIds) {
  std::atomic<std::uint64_t> id_sum{0};
  auto executor = [&](std::uint64_t task_id,
                      const std::vector<std::uint8_t>&) {
    id_sum.fetch_add(task_id);
    return std::vector<std::uint8_t>{};
  };
  RuntimeConfig config;
  config.worker_count = 3;
  Runtime runtime(config);
  runtime.run(make_tasks(10), executor);
  // 0+1+..+9 = 45; duplicates possible only via lease expiry (none here,
  // leases are long and the executor is instant).
  EXPECT_EQ(id_sum.load(), 45u);
}

TEST(Runtime, SurvivesDroppedFrames) {
  RuntimeConfig config;
  config.worker_count = 4;
  config.transport_faults.drop_probability = 0.10;
  config.transport_faults.seed = 11;
  config.lease_duration_s = 0.2;  // fast recovery of lost assignments
  Runtime runtime(config);
  const RuntimeReport report = runtime.run(make_tasks(40), doubler);
  ASSERT_EQ(report.results.size(), 40u);
  EXPECT_GT(report.frames_dropped, 0u);
  // Every task completed exactly once despite retries.
  EXPECT_EQ(report.manager_stats.completions, 40u);
}

TEST(Runtime, SurvivesWorkerDeaths) {
  RuntimeConfig config;
  config.worker_count = 6;
  config.worker_death_probability = 0.2;
  config.fault_seed = 17;
  config.lease_duration_s = 0.2;
  Runtime runtime(config);
  const RuntimeReport report = runtime.run(make_tasks(50), doubler);
  ASSERT_EQ(report.results.size(), 50u);
  EXPECT_GT(report.workers_died, 0u);
  // Deaths force re-issues, visible as lease expirations.
  EXPECT_GT(report.manager_stats.lease_expirations, 0u);
}

TEST(Runtime, FaultyRunProducesSameResultsAsCleanRun) {
  // Results are deterministic functions of (task_id, payload), so the
  // result *set* must be identical no matter what the network does.
  RuntimeConfig clean;
  clean.worker_count = 3;
  RuntimeConfig faulty;
  faulty.worker_count = 3;
  faulty.transport_faults.drop_probability = 0.15;
  faulty.transport_faults.seed = 23;
  faulty.worker_death_probability = 0.1;
  faulty.lease_duration_s = 0.2;

  const auto tasks = make_tasks(30);
  const RuntimeReport a = Runtime(clean).run(tasks, doubler);
  const RuntimeReport b = Runtime(faulty).run(tasks, doubler);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (const auto& [id, bytes] : a.results) {
    EXPECT_EQ(b.results.at(id), bytes) << "task " << id;
  }
}

TEST(Runtime, RunsOverAnInjectedTransport) {
  LoopbackTransport transport;
  RuntimeConfig config;
  config.worker_count = 2;
  Runtime runtime(config, transport);
  const RuntimeReport report = runtime.run(make_tasks(12), doubler);
  EXPECT_EQ(report.results.size(), 12u);
  EXPECT_EQ(report.frames_sent, transport.frames_sent());
  EXPECT_TRUE(transport.closed());  // a transport carries one run
}

TEST(Runtime, SurfacesCheckpointFailureAsException) {
  // A failing server-side checkpoint must unwind as a catchable
  // exception, not std::terminate on the still-joinable worker threads.
  RuntimeConfig config;
  config.worker_count = 2;
  config.checkpoint_path = "/nonexistent_phodis_dir/run.ckpt";
  Runtime runtime(config);
  EXPECT_THROW(runtime.run(make_tasks(40), doubler), std::runtime_error);
}

TEST(Runtime, ReportsTransportStatistics) {
  RuntimeConfig config;
  config.worker_count = 2;
  Runtime runtime(config);
  const RuntimeReport report = runtime.run(make_tasks(8), doubler);
  EXPECT_GT(report.frames_sent, 16u);  // at least request+assign per task
  EXPECT_GT(report.bytes_sent, 0u);
  EXPECT_GE(report.wall_seconds, 0.0);
}

TEST(Runtime, LargePayloadsRoundTrip) {
  std::vector<TaskRecord> tasks;
  std::vector<std::uint8_t> big(100000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7);
  }
  tasks.push_back(TaskRecord{0, big});
  RuntimeConfig config;
  config.worker_count = 1;
  Runtime runtime(config);
  const RuntimeReport report = runtime.run(tasks, doubler);
  ASSERT_EQ(report.results.at(0).size(), big.size());
  EXPECT_EQ(report.results.at(0)[999],
            static_cast<std::uint8_t>(big[999] * 2));
}

/// A scripted stand-in for the server side of one worker: answers the
/// n-th RequestWork with script[n] (Shutdown once the script runs out),
/// AssignTask frames carrying task ids 0, 1, 2, ... The reply to the
/// first request is held back until the worker sends its next request,
/// as a reply that misses reply_timeout_ms and lands while the re-sent
/// request is in flight. receive() does not wait: an empty inbox is an
/// immediate timeout. At every RequestWork it records how many earlier
/// requests still had no reply taken by the worker.
class LateFirstReplyServer final : public Transport {
 public:
  explicit LateFirstReplyServer(std::vector<MessageType> script)
      : script_(std::move(script)) {}

  void send(const std::string& /*endpoint*/, const Message& msg) override {
    if (msg.type == MessageType::kTaskResult) {
      results.push_back(msg.task_id);
      return;
    }
    if (msg.type != MessageType::kRequestWork) return;
    outstanding_at_request.push_back(requests_ - replies_taken_);
    if (held_) {
      inbox_.push_back(*held_);
      held_.reset();
    }
    Message reply;
    reply.type = requests_ < script_.size() ? script_[requests_]
                                            : MessageType::kShutdown;
    reply.sender = "server";
    if (reply.type == MessageType::kAssignTask) reply.task_id = next_task_++;
    if (requests_ == 0) {
      held_ = reply;
    } else {
      inbox_.push_back(reply);
    }
    ++requests_;
  }
  std::optional<Message> try_receive(const std::string& /*endpoint*/) override {
    if (inbox_.empty()) return std::nullopt;
    Message msg = inbox_.front();
    inbox_.pop_front();
    ++replies_taken_;
    return msg;
  }
  std::optional<Message> receive(const std::string& endpoint,
                                 std::int64_t /*timeout_ms*/) override {
    return try_receive(endpoint);
  }
  void shutdown() override {}
  bool closed() const override { return false; }
  std::uint64_t frames_sent() const override { return 0; }
  std::uint64_t frames_dropped() const override { return 0; }
  std::uint64_t bytes_sent() const override { return 0; }

  std::vector<std::size_t> outstanding_at_request;
  std::vector<std::uint64_t> results;

 private:
  std::vector<MessageType> script_;
  std::deque<Message> inbox_;
  std::optional<Message> held_;
  std::size_t requests_ = 0;
  std::size_t replies_taken_ = 0;
  std::uint64_t next_task_ = 0;
};

TEST(WorkerLoop, TakesALateReplyBeforeRequestingAgain) {
  // Request 1's AssignTask arrives late; request 2 (the timeout re-send)
  // is answered NoWork. The worker runs task 0, drops the stale NoWork
  // and from then on sends each request with nothing else outstanding.
  LateFirstReplyServer server({MessageType::kAssignTask, MessageType::kNoWork,
                               MessageType::kAssignTask,
                               MessageType::kAssignTask});
  WorkerLoopOptions options;
  options.no_work_backoff_ms = 0;
  const WorkerLoopOutcome outcome = run_worker_loop(server, doubler, options);

  EXPECT_TRUE(outcome.saw_shutdown);
  EXPECT_EQ(outcome.tasks_executed, 3u);
  EXPECT_EQ(server.results, (std::vector<std::uint64_t>{0, 1, 2}));
  // Only the timeout re-send overlaps an unanswered request.
  EXPECT_EQ(server.outstanding_at_request,
            (std::vector<std::size_t>{0, 1, 0, 0, 0}));
}

TEST(WorkerLoop, TakesAQueuedAssignmentWithoutAskingAgain) {
  // Both leases from the timeout re-send are real assignments: the worker
  // runs the queued second one straight away instead of requesting a
  // third while it sits in the inbox.
  LateFirstReplyServer server(
      {MessageType::kAssignTask, MessageType::kAssignTask});
  WorkerLoopOptions options;
  const WorkerLoopOutcome outcome = run_worker_loop(server, doubler, options);

  EXPECT_TRUE(outcome.saw_shutdown);
  EXPECT_EQ(server.results, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(server.outstanding_at_request,
            (std::vector<std::size_t>{0, 1, 0}));
}

}  // namespace
}  // namespace phodis::dist
