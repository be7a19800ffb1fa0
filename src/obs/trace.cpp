#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <tuple>

#include "util/json.hpp"

namespace phodis::obs {

namespace {

std::atomic<std::uint32_t> g_next_thread_id{0};

}  // namespace

void TraceRecorder::enable() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_ = 0;
  epoch_.reset();
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void TraceRecorder::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::string TraceRecorder::to_json() const {
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
    dropped = dropped_;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return std::tie(a.ts_us, a.tid, a.name) <
                            std::tie(b.ts_us, b.tid, b.name);
                   });

  std::string out = "{\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += "{\"name\": \"";
    util::append_json_escaped(out, e.name);
    out += "\", \"cat\": \"";
    util::append_json_escaped(out, e.category);
    out += "\", \"ph\": \"X\", \"ts\": " + std::to_string(e.ts_us) +
           ", \"dur\": " + std::to_string(e.dur_us) +
           ", \"pid\": 1, \"tid\": " + std::to_string(e.tid) + ", \"args\": {";
    for (std::size_t a = 0; a < e.args.size(); ++a) {
      if (a > 0) out += ", ";
      out += '"';
      util::append_json_escaped(out, e.args[a].first);
      out += "\": \"";
      util::append_json_escaped(out, e.args[a].second);
      out += '"';
    }
    out += "}}";
    if (i + 1 < events.size()) out += ',';
    out += '\n';
  }
  out += "],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
         "{\"dropped_events\": \"" +
         std::to_string(dropped) + "\"}\n}\n";
  return out;
}

void TraceRecorder::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << to_json();
  if (!out) {
    throw std::runtime_error("obs: cannot write trace JSON to " + path);
  }
}

std::uint32_t TraceRecorder::thread_id() {
  thread_local const std::uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder instance;
  return instance;
}

ScopedSpan::ScopedSpan(std::string name, std::string category)
    : active_(TraceRecorder::global().enabled()) {
  if (!active_) return;
  event_.name = std::move(name);
  event_.category = std::move(category);
  event_.tid = TraceRecorder::thread_id();
  event_.ts_us = static_cast<std::uint64_t>(
      TraceRecorder::global().elapsed_s() * 1e6);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const auto end_us = static_cast<std::uint64_t>(
      TraceRecorder::global().elapsed_s() * 1e6);
  event_.dur_us = end_us > event_.ts_us ? end_us - event_.ts_us : 0;
  TraceRecorder::global().record(std::move(event_));
}

void ScopedSpan::arg(std::string key, std::string value) {
  if (!active_) return;
  event_.args.emplace_back(std::move(key), std::move(value));
}

}  // namespace phodis::obs
