// Workload definitions: what one cluster run serves, derived from
// (workload name, seed). The driver, the server role and the layer
// microbenchmarks all rebuild the same plan from these two values, so
// the processes never ship specs to each other out of band.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/app.hpp"
#include "core/spec.hpp"
#include "mc/kernel.hpp"

namespace clusterbench {

struct Workload {
  std::string name;
  phodis::mc::KernelMode mode = phodis::mc::KernelMode::kScalar;
  /// Radial A(r,z) tally plus the default 50^3 fluence grid (~1.08 MB
  /// results) instead of the scalar-only tally (~3 KB).
  bool grid = false;
  std::size_t workers = 3;         ///< worker processes
  std::size_t threads = 1;         ///< pool threads per worker
  std::uint64_t task_photons = 0;  ///< photons per full task
  std::uint64_t tasks = 0;         ///< tasks per cluster run
  std::size_t min_runs = 3;        ///< cluster runs per invocation, at least

  /// Busy threads while the cluster serves: the server loop plus every
  /// worker compute thread.
  std::size_t busy_threads() const { return 1 + workers * threads; }
  std::size_t compute_threads() const { return workers * threads; }
};

/// Every workload, in BENCHMARK.json order.
const std::vector<Workload>& workloads();

/// The named workload; `tiny` shrinks the plan to a few small tasks for
/// self-tests. Throws std::invalid_argument on an unknown name.
Workload find_workload(const std::string& name, bool tiny);

/// Everything a run derives from (workload, seed).
struct Plan {
  Workload workload;
  std::uint64_t seed = 0;
  std::uint64_t photons = 0;  ///< photon budget of one cluster run
  phodis::core::SimulationSpec spec;
};

/// Build the plan. The medium is the grey-matter semi-infinite slab of
/// phodis_server's make_spec; the seed picks the RNG seed and a short
/// last task.
Plan make_plan(const Workload& workload, std::uint64_t seed);

/// The same plan's spec in another kernel mode / photon budget (the
/// scalar reference of a packet workload).
phodis::core::SimulationSpec make_spec(const Workload& workload,
                                       std::uint64_t photons,
                                       std::uint64_t seed,
                                       phodis::mc::KernelMode mode);

/// DataManager lease of every workload: phodis_server's default.
inline constexpr double kLeaseS = 2.0;

/// FNV-1a over a byte string: the reference fingerprint the server
/// compares its merged tally against.
std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes);

/// The ledger bound the kernel tests use: 1e-6 per launched photon.
double weight_conservation_bound(std::uint64_t photons);

}  // namespace clusterbench
