#include "layers.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "core/spec.hpp"
#include "dist/datamanager.hpp"
#include "dist/message.hpp"
#include "exec/parallel.hpp"
#include "mc/packet_kernel.hpp"
#include "obs/kernel_counters.hpp"
#include "observe.hpp"
#include "stats.hpp"

namespace clusterbench {

using namespace phodis;

namespace {

constexpr const char* kPoolWait = "exec_pool_job_wait_seconds";

/// Photons per round for the kernel and runner benches: enough for a
/// few hundred milliseconds of single-thread work in each mode.
std::uint64_t round_photons(const Workload& workload) {
  if (workload.tasks <= 12) return workload.task_photons;  // tiny plans
  return workload.mode == mc::KernelMode::kScalar ? 2 * workload.task_photons
                                                  : 8192;
}

/// Median seconds per call of `op`, over at least `min_reps` calls and
/// about `budget_s` of wall time.
double per_call_s(const std::function<void()>& op, std::size_t min_reps,
                  double budget_s) {
  std::vector<double> times;
  const double start = mono_s();
  while (times.size() < min_reps || mono_s() - start < budget_s) {
    const double t0 = mono_s();
    op();
    times.push_back(mono_s() - t0);
    if (times.size() >= 100000) break;
  }
  return median(times);
}

struct KernelCounts {
  std::uint64_t photons = 0;
  std::uint64_t interactions = 0;
  std::uint64_t occupied_lanes = 0;
  std::uint64_t iterations = 0;
};

KernelCounts read_kernel_counters() {
  KernelCounts counts;
#if defined(PHODIS_OBS_KERNEL)
  const obs::KernelCounters& kc = obs::KernelCounters::global();
  counts.photons = kc.photons_launched.load();
  counts.interactions = kc.interactions.load();
  for (std::size_t o = 1; o < obs::KernelCounters::kOccupancySlots; ++o) {
    const std::uint64_t n = kc.packet_occupancy[o].load();
    counts.occupied_lanes += o * n;
    counts.iterations += n;
  }
#endif
  return counts;
}

}  // namespace

LayerBench::LayerBench(const Plan& plan, const std::string& socket_path)
    : plan_(plan),
      kernel_(plan.spec.kernel),
      pool_(plan.workload.threads) {
  core::TaskPayload payload;
  payload.spec = plan_.spec;
  payload.task_photons = plan_.workload.task_photons;
  task_payload_ = payload.encode();
  // A real task result: the first task of the plan, serialised.
  const exec::ParallelKernelRunner runner(kernel_, &pool_);
  result_bytes_ =
      runner.run(plan_.workload.task_photons, plan_.spec.seed, 0).to_bytes();
  server_ = std::make_unique<net::Server>(net::Address::unix_path(socket_path));
  client_ = std::make_unique<net::Client>(net::Address::unix_path(socket_path),
                                          "bench-client");
}

LayerBench::~LayerBench() {
  client_->shutdown();
  server_->shutdown();
}

void LayerBench::add(const std::string& name, double value) {
  samples_[name].push_back(value);
}

std::map<std::string, double> LayerBench::medians() const {
  std::map<std::string, double> out;
  for (const auto& [name, values] : samples_) out[name] = median(values);
  out["exec.pool_wait_p50_s"] =
      bucket_quantile(pool_wait_bounds_, pool_wait_counts_, 0.5);
  return out;
}

void LayerBench::round() {
  bench_kernel();
  bench_runner();
  bench_core();
  bench_dist();
  bench_net();
}

void LayerBench::bench_kernel() {
  // One kernel call per task shard at the workload's size, each on a
  // fixed sub-stream so every round repeats identical work.
  const std::uint64_t call_photons =
      std::min(plan_.workload.task_photons, exec::kDefaultShardPhotons);
  const std::uint64_t calls =
      std::max<std::uint64_t>(1, round_photons(plan_.workload) / call_photons);
  const bool packet = plan_.workload.mode == mc::KernelMode::kPacket;
  const KernelCounts before = read_kernel_counters();
  const double t0 = mono_s();
  for (std::uint64_t c = 0; c < calls; ++c) {
    util::Xoshiro256pp rng = exec::shard_streams(plan_.spec.seed, c, 1)[0];
    mc::SimulationTally tally = kernel_.make_tally();
    if (packet) {
      mc::run_packet(kernel_, call_photons, rng, tally);
    } else {
      kernel_.run(call_photons, rng, tally);
    }
    sink_ += tally.photons_launched();
  }
  const double elapsed = mono_s() - t0;
  const KernelCounts after = read_kernel_counters();
  const auto photons = static_cast<double>(calls * call_photons);
  const double pps = photons / elapsed;
  add("mc.kernel_photons_per_s", pps);
  const std::uint64_t counted = after.photons - before.photons;
  if (counted > 0) {
    const double per_photon =
        static_cast<double>(after.interactions - before.interactions) /
        static_cast<double>(counted);
    add("mc.interactions_per_photon", per_photon);
    add("mc.ns_per_interaction", 1e9 / (pps * per_photon));
  }
  // A scalar loop is one lane that is always occupied.
  const std::uint64_t iterations = after.iterations - before.iterations;
  add("mc.lane_occupancy",
      packet && iterations > 0
          ? static_cast<double>(after.occupied_lanes - before.occupied_lanes) /
                static_cast<double>(iterations *
                                    (obs::KernelCounters::kOccupancySlots - 1))
          : 1.0);
}

void LayerBench::bench_runner() {
  const std::uint64_t task_photons = plan_.workload.task_photons;
  const std::uint64_t tasks =
      std::max<std::uint64_t>(1, round_photons(plan_.workload) / task_photons);
  const auto run_tasks = [&](exec::ThreadPool* pool) {
    const exec::ParallelKernelRunner runner(kernel_, pool);
    const double t0 = mono_s();
    for (std::uint64_t task = 0; task < tasks; ++task) {
      sink_ += runner.run(task_photons, plan_.spec.seed, task)
                   .photons_launched();
    }
    return static_cast<double>(tasks * task_photons) / (mono_s() - t0);
  };
  add("exec.runner_photons_per_s_1t", run_tasks(nullptr));
  const obs::Snapshot before = obs::registry().snapshot();
  add("exec.runner_photons_per_s_nt", run_tasks(&pool_));
  const obs::Snapshot after = obs::registry().snapshot();
  // The registry is process-wide: keep only this bench's pool waits.
  const obs::MetricSample* end = find_metric(after, kPoolWait);
  if (end == nullptr) return;  // single-shard tasks never reach the pool
  const obs::MetricSample* start = find_metric(before, kPoolWait);
  pool_wait_bounds_ = end->bounds;
  pool_wait_counts_.resize(end->bucket_counts.size());
  for (std::size_t b = 0; b < end->bucket_counts.size(); ++b) {
    pool_wait_counts_[b] +=
        end->bucket_counts[b] - (start ? start->bucket_counts[b] : 0);
  }
}

void LayerBench::bench_core() {
  const auto task_setup = [&] {
    const core::TaskPayload task = core::TaskPayload::decode(task_payload_);
    const mc::Kernel kernel(task.spec.kernel);
    sink_ += kernel.compiled_medium().layer_count();
  };
  add("core.task_setup_s", per_call_s(task_setup, 50, 0.02));
  util::ByteReader reader(result_bytes_);
  const mc::SimulationTally tally = mc::SimulationTally::deserialize(reader);
  const auto encode = [&] {
    util::ByteWriter writer;
    tally.serialize(writer);
    sink_ += writer.size();
  };
  add("core.tally_encode_s", per_call_s(encode, 5, 0.02));
  mc::SimulationTally merged = kernel_.make_tally();
  const auto decode_merge = [&] {
    util::ByteReader r(result_bytes_);
    merged.merge(mc::SimulationTally::deserialize(r));
    sink_ += merged.photons_launched();
  };
  add("core.tally_decode_merge_s", per_call_s(decode_merge, 5, 0.02));
  add("core.tally_bytes", static_cast<double>(result_bytes_.size()));
}

void LayerBench::bench_dist() {
  // The three frames of one task, at this workload's sizes.
  std::vector<dist::Message> frames(3);
  frames[0].type = dist::MessageType::kRequestWork;
  frames[0].sender = "w0";
  frames[1].type = dist::MessageType::kAssignTask;
  frames[1].sender = "server";
  frames[1].task_id = 7;
  frames[1].payload = task_payload_;
  frames[2].type = dist::MessageType::kTaskResult;
  frames[2].sender = "w0";
  frames[2].task_id = 7;
  frames[2].payload = result_bytes_;
  const double per_task_s = per_call_s(
      [&] {
        for (const dist::Message& msg : frames) {
          const dist::Message back = dist::Message::decode(msg.encode());
          if (back.payload.size() != msg.payload.size()) {
            throw std::logic_error("codec round trip changed a frame");
          }
        }
      },
      5, 0.02);
  add("dist.codec_ns_per_frame", 1e9 * per_task_s / 3.0);

  // add/lease/complete cycles; result copies are made before timing.
  const std::size_t cycles = std::clamp<std::size_t>(
      (8u << 20) / std::max<std::size_t>(1, result_bytes_.size()), 8, 2000);
  std::vector<std::vector<std::uint8_t>> results(cycles, result_bytes_);
  dist::DataManager manager(60.0);
  const double t0 = mono_s();
  for (std::size_t id = 0; id < cycles; ++id) {
    manager.add_task(id, task_payload_);
    const auto task = manager.lease_next("w0", 0.0);
    sink_ += manager.complete(task->task_id, "w0", 0.0, std::move(results[id]));
  }
  add("dist.manager_ops_per_s", static_cast<double>(cycles) / (mono_s() - t0));
}

void LayerBench::bench_net() {
  const auto round_trip = [&](const dist::Message& request) {
    const double t0 = mono_s();
    client_->send("server", request);
    const auto got = server_->receive("server", 5000);
    if (!got) throw std::runtime_error("net bench: request lost");
    dist::Message reply;
    reply.type = dist::MessageType::kNoWork;
    reply.sender = "server";
    server_->send(got->sender, reply);
    if (!client_->receive("bench-client", 5000)) {
      throw std::runtime_error("net bench: reply lost");
    }
    return mono_s() - t0;
  };
  dist::Message ping;
  ping.type = dist::MessageType::kRequestWork;
  ping.sender = "bench-client";
  const std::size_t pings = plan_.workload.tasks <= 12 ? 50 : 500;
  for (std::size_t i = 0; i < pings; ++i) rtts_.push_back(round_trip(ping));

  dist::Message result;
  result.type = dist::MessageType::kTaskResult;
  result.sender = "bench-client";
  result.payload = result_bytes_;
  std::vector<double> times;
  const double start = mono_s();
  while (times.size() < 5 || mono_s() - start < 0.03) {
    times.push_back(round_trip(result));
  }
  add("net.frame_MBps",
      static_cast<double>(result_bytes_.size()) / 1e6 / median(times));
}

}  // namespace clusterbench
