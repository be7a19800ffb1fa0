// mc::run_packet: picks the packet-loop build for this CPU (see
// mc/packet_isa.hpp). Built with the default flags, so it runs on any
// x86-64 host before anything wider is executed.
#include "mc/packet_isa.hpp"

#include "mc/packet_kernel.hpp"
#include "obs/metrics.hpp"

namespace phodis::mc {

std::string to_string(PacketIsa isa) {
  return isa == PacketIsa::kAvx512 ? "avx512" : "avx2";
}

PacketIsa select_packet_isa(bool avx512f, bool avx512dq,
                            bool avx512vl) noexcept {
  return avx512f && avx512dq && avx512vl ? PacketIsa::kAvx512
                                         : PacketIsa::kAvx2;
}

PacketIsa host_packet_isa() noexcept {
  // libgcc's feature bits also require the OS to save the zmm state
  // (XCR0), so "supported" here means "safe to execute".
  static const PacketIsa isa = [] {
    __builtin_cpu_init();
    return select_packet_isa(__builtin_cpu_supports("avx512f") != 0,
                             __builtin_cpu_supports("avx512dq") != 0,
                             __builtin_cpu_supports("avx512vl") != 0);
  }();
  return isa;
}

void run_packet(const Kernel& kernel, std::uint64_t photon_count,
                util::Xoshiro256pp& rng, SimulationTally& tally) {
  // Chosen once per process, and recorded once as the gauge
  // mc_packet_isa{isa=...} = 1, so --metrics-json and the workers'
  // MetricsSnapshot say which loop ran (merged cluster-wide, the gauge
  // counts the processes that ran each build).
  static const PacketIsa isa = [] {
    const PacketIsa chosen = host_packet_isa();
    obs::registry().gauge("mc_packet_isa", {{"isa", to_string(chosen)}})
        .set(1.0);
    return chosen;
  }();
  if (isa == PacketIsa::kAvx512) {
    avx512::run_packet(kernel, photon_count, rng, tally);
  } else {
    avx2::run_packet(kernel, photon_count, rng, tally);
  }
}

}  // namespace phodis::mc
