// Per-layer microbenchmarks: pinned work through each layer's public
// calls, at the workload's own sizes (task photons, payload and result
// bytes, thread count). The driver runs one round between cluster runs,
// so host drift moves both sides of every layer/cluster ratio together.
//
//   mc    Kernel::run (scalar) or mc::run_packet (packet), one thread,
//         with the kernel counters read around it
//   exec  ParallelKernelRunner serial and on a ThreadPool
//   core  TaskPayload::decode + Kernel construction, tally encode,
//         tally decode + merge
//   dist  Message encode/decode of one task's frames, DataManager
//         add/lease/complete cycles
//   net   small-frame round trips and result-size frames over a
//         Unix-domain net::Server / net::Client pair
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/threadpool.hpp"
#include "mc/kernel.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "workload.hpp"

namespace clusterbench {

class LayerBench {
 public:
  /// `socket_path` is where the round-trip server binds.
  LayerBench(const Plan& plan, const std::string& socket_path);
  ~LayerBench();
  LayerBench(const LayerBench&) = delete;
  LayerBench& operator=(const LayerBench&) = delete;

  /// Run every microbenchmark once, appending one sample per metric.
  void round();

  /// Median over rounds of each metric named in layers.cpp.
  std::map<std::string, double> medians() const;

  /// Pooled small-frame round trips [s] over all rounds.
  const std::vector<double>& round_trips() const { return rtts_; }

  std::size_t pool_threads() const { return pool_.thread_count(); }

 private:
  void bench_kernel();
  void bench_runner();
  void bench_core();
  void bench_dist();
  void bench_net();
  void add(const std::string& name, double value);

  Plan plan_;
  phodis::mc::Kernel kernel_;
  phodis::exec::ThreadPool pool_;
  std::vector<std::uint8_t> task_payload_;
  std::vector<std::uint8_t> result_bytes_;
  std::unique_ptr<phodis::net::Server> server_;
  std::unique_ptr<phodis::net::Client> client_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<double> rtts_;
  /// exec_pool_job_wait_seconds observed during the runner benches only.
  std::vector<double> pool_wait_bounds_;
  std::vector<std::uint64_t> pool_wait_counts_;
  /// Folds every microbenchmark's result, so no timed call is dead code.
  std::uint64_t sink_ = 0;
};

}  // namespace clusterbench
