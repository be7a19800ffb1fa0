#include "workload.hpp"

#include <stdexcept>

#include "mc/layer.hpp"
#include "mc/optical.hpp"
#include "util/rng.hpp"

namespace clusterbench {

using phodis::mc::KernelMode;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> list;
    // The paper's Fig. 2 regime: long scalar tasks on three single-thread
    // workers; the kernel does nearly all the work.
    Workload bulk;
    bulk.name = "bulk_scalar";
    bulk.mode = KernelMode::kScalar;
    bulk.task_photons = 300;
    bulk.tasks = 120;
    list.push_back(bulk);

    // Tasks far below one 4096-photon shard: per-task fixed costs (round
    // trip, codec, lease/complete, lane drain, merge) carry the load.
    Workload fine;
    fine.name = "fine_packet";
    fine.mode = KernelMode::kPacket;
    fine.task_photons = 256;
    fine.tasks = 500;
    list.push_back(fine);

    // Few, large frames: radial + 50^3 fluence grid results, one worker
    // process on a three-thread pool.
    Workload grid;
    grid.name = "grid_packet_mt";
    grid.mode = KernelMode::kPacket;
    grid.grid = true;
    grid.workers = 1;
    grid.threads = 3;
    grid.task_photons = 3 * 4096;
    grid.tasks = 34;  // three runs give the >= 100 tasks of one tail group
    list.push_back(grid);
    return list;
  }();
  return all;
}

Workload find_workload(const std::string& name, bool tiny) {
  for (Workload workload : workloads()) {
    if (workload.name != name) continue;
    if (tiny) {
      workload.task_photons = workload.grid ? 1024 : 64;
      workload.tasks = 12;
      workload.min_runs = 1;
    }
    return workload;
  }
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

phodis::core::SimulationSpec make_spec(const Workload& workload,
                                       std::uint64_t photons,
                                       std::uint64_t seed, KernelMode mode) {
  using namespace phodis;
  core::SimulationSpec spec;
  mc::LayeredMediumBuilder builder;
  builder.add_semi_infinite_layer(
      "grey matter",
      mc::OpticalProperties::from_reduced(0.036, 2.2, 0.9, 1.4));
  spec.kernel.medium = builder.build();
  spec.kernel.mode = mode;
  if (workload.grid) {
    spec.kernel.tally.enable_radial = true;
    spec.kernel.tally.enable_fluence_grid = true;
  }
  spec.photons = photons;
  spec.seed = seed;
  return spec;
}

Plan make_plan(const Workload& workload, std::uint64_t seed) {
  using phodis::util::mix64;
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  // The last task is short by a seed-chosen amount (under half a task),
  // so the remainder path of the chunk plan is always exercised.
  const std::uint64_t shortfall =
      mix64(seed, 1) % (workload.task_photons / 2);
  plan.photons = workload.tasks * workload.task_photons - shortfall;
  plan.spec = make_spec(workload, plan.photons, mix64(seed, 2), workload.mode);
  return plan;
}

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double weight_conservation_bound(std::uint64_t photons) {
  return 1e-6 * static_cast<double>(photons);
}

}  // namespace clusterbench
