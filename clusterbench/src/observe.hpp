// Timing decorators over the public dist::Transport and dist::TaskExecutor
// interfaces, plus the record files the cluster processes hand back to
// the driver.
//
// ServerObserver is always on: it timestamps what the end-to-end metrics
// need (each worker's first RequestWork, every AssignTask send, the first
// TaskResult per task) with a clock read and a map update per frame. With
// `traced` set it also records one obs::TraceEvent per send and receive
// (named by message type, tagged with task_id) and accounts the time the
// server loop spends blocked in receive(). WorkerObserver and
// TracingExecutor are used only in traced runs.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "dist/runtime.hpp"
#include "dist/transport.hpp"

namespace clusterbench {

/// CLOCK_MONOTONIC seconds: one time base shared by every process on the
/// host, so the driver's launch stamp and the server's stamps subtract.
double mono_s();

/// Named scalars and sample series a process hands back to the driver,
/// plus an encoded obs::Snapshot of its registry.
struct Record {
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> series;
  std::vector<std::uint8_t> snapshot;

  double value(const std::string& key, double fallback = 0.0) const;
  const std::vector<double>& samples(const std::string& key) const;

  void save(const std::string& path) const;
  /// Throws std::runtime_error when the file is missing or torn.
  static Record load(const std::string& path);
};

class ServerObserver final : public phodis::dist::Transport {
 public:
  ServerObserver(phodis::dist::Transport& inner, bool traced);

  void send(const std::string& endpoint,
            const phodis::dist::Message& msg) override;
  std::optional<phodis::dist::Message> try_receive(
      const std::string& endpoint) override;
  std::optional<phodis::dist::Message> receive(
      const std::string& endpoint, std::int64_t timeout_ms) override;
  void shutdown() override { inner_.shutdown(); }
  bool closed() const override { return inner_.closed(); }
  std::uint64_t frames_sent() const override { return inner_.frames_sent(); }
  std::uint64_t frames_dropped() const override {
    return inner_.frames_dropped();
  }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }

  /// Distinct endpoints whose RequestWork has arrived.
  std::size_t workers_seen() const { return first_request_s_.size(); }
  double first_request_s() const;       ///< earliest first RequestWork
  double last_first_request_s() const;  ///< latest first RequestWork
  double last_accept_s() const { return last_accept_s_; }
  /// First AssignTask send -> first TaskResult, per task.
  const std::vector<double>& turnarounds() const { return turnarounds_; }
  std::uint64_t frames_in() const { return frames_in_; }
  std::uint64_t frames_out() const { return frames_out_; }
  /// Seconds spent blocked inside receive() (traced runs).
  double receive_wait_s() const { return receive_wait_s_; }

 private:
  void on_receive(const phodis::dist::Message& msg, double now);

  phodis::dist::Transport& inner_;
  bool traced_;
  std::map<std::string, double> first_request_s_;
  std::map<std::uint64_t, double> assign_s_;
  std::set<std::uint64_t> accepted_;
  std::vector<double> turnarounds_;
  double last_accept_s_ = 0.0;
  std::uint64_t frames_in_ = 0;
  std::uint64_t frames_out_ = 0;
  double receive_wait_s_ = 0.0;
};

/// Worker-side decorator: spans per frame, time inside send(), and the
/// wait from each RequestWork send to the AssignTask that answers it.
class WorkerObserver final : public phodis::dist::Transport {
 public:
  explicit WorkerObserver(phodis::dist::Transport& inner);

  void send(const std::string& endpoint,
            const phodis::dist::Message& msg) override;
  std::optional<phodis::dist::Message> try_receive(
      const std::string& endpoint) override;
  std::optional<phodis::dist::Message> receive(
      const std::string& endpoint, std::int64_t timeout_ms) override;
  void shutdown() override { inner_.shutdown(); }
  bool closed() const override { return inner_.closed(); }
  std::uint64_t frames_sent() const override { return inner_.frames_sent(); }
  std::uint64_t frames_dropped() const override {
    return inner_.frames_dropped();
  }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }

  const std::vector<double>& request_waits() const { return request_waits_; }
  double send_s() const { return send_s_; }
  double receive_s() const { return receive_s_; }

 private:
  phodis::dist::Transport& inner_;
  double request_sent_s_ = -1.0;
  std::vector<double> request_waits_;
  double send_s_ = 0.0;
  double receive_s_ = 0.0;
};

/// Wraps a TaskExecutor: one "executor" span per call and the summed
/// wall time inside it. Thread-safe like the executor it wraps.
class TracingExecutor {
 public:
  explicit TracingExecutor(phodis::dist::TaskExecutor inner);

  std::vector<std::uint8_t> operator()(
      std::uint64_t task_id, const std::vector<std::uint8_t>& payload);

  double busy_s() const;
  std::uint64_t calls() const;

 private:
  phodis::dist::TaskExecutor inner_;
  mutable std::mutex mutex_;
  double busy_s_ = 0.0;
  std::uint64_t calls_ = 0;
};

}  // namespace clusterbench
