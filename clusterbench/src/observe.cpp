#include "observe.hpp"

#include <time.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace clusterbench {

using phodis::dist::Message;
using phodis::dist::MessageType;

double mono_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

constexpr std::uint64_t kRecordMagic = 0x3144524f43524243ULL;  // "CBRCORD1"

/// One complete trace event from recorder-clock start `t0` to now.
void record_span(const std::string& name, const std::string& category,
                 double t0, const Message* msg) {
  phodis::obs::TraceRecorder& recorder = phodis::obs::TraceRecorder::global();
  phodis::obs::TraceEvent event;
  event.name = name;
  event.category = category;
  event.ts_us = static_cast<std::uint64_t>(t0 * 1e6);
  const double dur_s = recorder.elapsed_s() - t0;
  event.dur_us = dur_s > 0.0 ? static_cast<std::uint64_t>(dur_s * 1e6) : 0;
  event.tid = phodis::obs::TraceRecorder::thread_id();
  if (msg != nullptr) {
    event.args.emplace_back("type", phodis::dist::to_string(msg->type));
    event.args.emplace_back("task_id", std::to_string(msg->task_id));
    event.args.emplace_back("bytes", std::to_string(msg->payload.size()));
  }
  recorder.record(std::move(event));
}

double recorder_now() {
  return phodis::obs::TraceRecorder::global().elapsed_s();
}

}  // namespace

// ---------------------------------------------------------------------------
// Record

double Record::value(const std::string& key, double fallback) const {
  const auto it = values.find(key);
  return it == values.end() ? fallback : it->second;
}

const std::vector<double>& Record::samples(const std::string& key) const {
  static const std::vector<double> kEmpty;
  const auto it = series.find(key);
  return it == series.end() ? kEmpty : it->second;
}

void Record::save(const std::string& path) const {
  phodis::util::ByteWriter writer;
  writer.u64(kRecordMagic);
  writer.u64(values.size());
  for (const auto& [key, value] : values) {
    writer.str(key);
    writer.f64(value);
  }
  writer.u64(series.size());
  for (const auto& [key, samples] : series) {
    writer.str(key);
    writer.f64_vec(samples);
  }
  writer.blob(snapshot);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(writer.bytes().data()),
              static_cast<std::streamsize>(writer.size()));
    if (!out) throw std::runtime_error("cannot write record " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename record to " + path);
  }
}

Record Record::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("missing record " + path);
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  phodis::util::ByteReader reader(bytes);
  if (reader.u64() != kRecordMagic) {
    throw std::runtime_error("bad record magic in " + path);
  }
  Record record;
  for (std::uint64_t n = reader.u64(); n > 0; --n) {
    std::string key = reader.str();
    record.values[key] = reader.f64();
  }
  for (std::uint64_t n = reader.u64(); n > 0; --n) {
    std::string key = reader.str();
    record.series[key] = reader.f64_vec();
  }
  record.snapshot = reader.blob();
  if (!reader.exhausted()) {
    throw std::runtime_error("trailing bytes in record " + path);
  }
  return record;
}

// ---------------------------------------------------------------------------
// ServerObserver

ServerObserver::ServerObserver(phodis::dist::Transport& inner, bool traced)
    : inner_(inner), traced_(traced) {}

void ServerObserver::send(const std::string& endpoint, const Message& msg) {
  const double t0 = traced_ ? recorder_now() : 0.0;
  if (msg.type == MessageType::kAssignTask) {
    assign_s_.emplace(msg.task_id, mono_s());
  }
  inner_.send(endpoint, msg);
  ++frames_out_;
  if (traced_) {
    record_span("send:" + phodis::dist::to_string(msg.type), "net", t0, &msg);
  }
}

void ServerObserver::on_receive(const Message& msg, double now) {
  ++frames_in_;
  switch (msg.type) {
    case MessageType::kRequestWork:
      first_request_s_.emplace(msg.sender, now);
      break;
    case MessageType::kTaskResult: {
      const auto assigned = assign_s_.find(msg.task_id);
      // A result for a task never leased is unknown to the manager too.
      if (assigned == assign_s_.end()) break;
      if (!accepted_.insert(msg.task_id).second) break;  // duplicate
      turnarounds_.push_back(now - assigned->second);
      last_accept_s_ = now;
      break;
    }
    case MessageType::kAssignTask:
    case MessageType::kNoWork:
    case MessageType::kShutdown:
    case MessageType::kMetricsSnapshot:
      break;
  }
}

std::optional<Message> ServerObserver::try_receive(
    const std::string& endpoint) {
  auto msg = inner_.try_receive(endpoint);
  if (msg) on_receive(*msg, mono_s());
  return msg;
}

std::optional<Message> ServerObserver::receive(const std::string& endpoint,
                                               std::int64_t timeout_ms) {
  const double wait0 = traced_ ? mono_s() : 0.0;
  const double t0 = traced_ ? recorder_now() : 0.0;
  auto msg = inner_.receive(endpoint, timeout_ms);
  const double now = mono_s();
  if (traced_) {
    receive_wait_s_ += now - wait0;
    record_span(msg ? "recv:" + phodis::dist::to_string(msg->type)
                    : std::string("recv:timeout"),
                "net", t0, msg ? &*msg : nullptr);
  }
  if (msg) on_receive(*msg, now);
  return msg;
}

double ServerObserver::first_request_s() const {
  double first = 0.0;
  for (const auto& [name, t] : first_request_s_) {
    if (first == 0.0 || t < first) first = t;
  }
  return first;
}

double ServerObserver::last_first_request_s() const {
  double last = 0.0;
  for (const auto& [name, t] : first_request_s_) last = std::max(last, t);
  return last;
}

// ---------------------------------------------------------------------------
// WorkerObserver

WorkerObserver::WorkerObserver(phodis::dist::Transport& inner)
    : inner_(inner) {}

void WorkerObserver::send(const std::string& endpoint, const Message& msg) {
  const double t0 = recorder_now();
  const double start = mono_s();
  inner_.send(endpoint, msg);
  const double end = mono_s();
  send_s_ += end - start;
  if (msg.type == MessageType::kRequestWork) request_sent_s_ = end;
  record_span("send:" + phodis::dist::to_string(msg.type), "net", t0, &msg);
}

std::optional<Message> WorkerObserver::try_receive(
    const std::string& endpoint) {
  return inner_.try_receive(endpoint);
}

std::optional<Message> WorkerObserver::receive(const std::string& endpoint,
                                               std::int64_t timeout_ms) {
  const double t0 = recorder_now();
  const double start = mono_s();
  auto msg = inner_.receive(endpoint, timeout_ms);
  const double end = mono_s();
  receive_s_ += end - start;
  if (msg && msg->type == MessageType::kAssignTask && request_sent_s_ >= 0.0) {
    request_waits_.push_back(end - request_sent_s_);
    request_sent_s_ = -1.0;
  }
  record_span(msg ? "recv:" + phodis::dist::to_string(msg->type)
                  : std::string("recv:timeout"),
              "dist", t0, msg ? &*msg : nullptr);
  return msg;
}

// ---------------------------------------------------------------------------
// TracingExecutor

TracingExecutor::TracingExecutor(phodis::dist::TaskExecutor inner)
    : inner_(std::move(inner)) {}

std::vector<std::uint8_t> TracingExecutor::operator()(
    std::uint64_t task_id, const std::vector<std::uint8_t>& payload) {
  const double t0 = recorder_now();
  const double start = mono_s();
  std::vector<std::uint8_t> result = inner_(task_id, payload);
  const double elapsed = mono_s() - start;
  record_span("executor", "core", t0, nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  busy_s_ += elapsed;
  ++calls_;
  return result;
}

double TracingExecutor::busy_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busy_s_;
}

std::uint64_t TracingExecutor::calls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return calls_;
}

}  // namespace clusterbench
