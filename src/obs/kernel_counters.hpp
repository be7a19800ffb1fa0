// Hot-path kernel counters, compile-time gated by PHODIS_OBS_KERNEL.
//
// The scalar photon loop (mc/kernel.cpp) accumulates per-photon
// tallies in locals and flushes them here — a handful of relaxed
// fetch_adds per *photon*, not per interaction — only when the toggle is
// defined. When it is not, the flush blocks compile to nothing and this
// header exports only the (empty) snapshot hook, so call sites in tools
// and bench stay unconditional.
//
// These counters are strictly out-of-band of the bitwise contract: they
// never read the RNG, never touch SimulationTally, and are appended to an
// obs::Snapshot only at dump time.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"

namespace phodis::obs {

#if defined(PHODIS_OBS_KERNEL)
/// Process-global accumulators the photon loop flushes into.
struct KernelCounters {
  std::atomic<std::uint64_t> photons_launched{0};
  std::atomic<std::uint64_t> interactions{0};
  std::atomic<std::uint64_t> roulette_terminations{0};

  /// Packet-mode lane compaction events: a dead lane re-armed with the
  /// next photon from the stream mid-run (the initial fill is not a
  /// refill). Flushed once per run_packet call.
  std::atomic<std::uint64_t> lane_refills{0};

  /// Packet-mode occupancy histogram: packet_occupancy[o] counts packet
  /// loop iterations that ran with exactly o active lanes (o = 1 ..
  /// kOccupancySlots-1; slot 0 stays zero — the loop exits at zero
  /// occupancy). Slot count equals mc::kPacketWidth + 1; a static_assert
  /// in mc/packet_kernel.cpp keeps the two in sync without an obs -> mc
  /// include.
  static constexpr std::size_t kOccupancySlots = 9;
  std::atomic<std::uint64_t> packet_occupancy[kOccupancySlots] = {};

  static KernelCounters& global() noexcept;
};
#endif

/// True when the kernel counters are compiled in.
constexpr bool kernel_counters_compiled() noexcept {
#if defined(PHODIS_OBS_KERNEL)
  return true;
#else
  return false;
#endif
}

/// Fold the mc_kernel_* counters into `snapshot` (no-op when compiled
/// out, so --metrics-json call sites need no #if).
void append_kernel_counters(Snapshot& snapshot);

/// Zero the accumulators (tests; no-op when compiled out).
void reset_kernel_counters() noexcept;

}  // namespace phodis::obs
