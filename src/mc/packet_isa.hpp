// Runtime ISA dispatch for the packet loop (KernelMode::kPacket).
//
// packet_kernel.cpp and vmath.cpp are compiled twice from the same
// source (see CMakeLists.txt): once for AVX2 and once more with
// -mavx512f -mavx512dq -mavx512vl added. The macro PHODIS_PACKET_ISA
// names the namespace each build defines its symbols in, so the two
// copies never collide and each ISA's run_packet calls that same ISA's
// vlog/vsincos_2pi (vmath.hpp). mc::run_packet (packet_kernel.hpp) is
// the dispatcher: it asks host_packet_isa() once per process and calls
// that build.
//
// Both builds produce byte-identical tallies. The loop uses only IEEE
// add/mul/div/sqrt, compares and selects under -ffp-contract=off, and
// each of those rounds the same in a zmm lane as in a ymm lane, so the
// wider registers change the instruction count, never a value. The
// packet goldens pin every build (tests/test_packet_kernel.cpp).
//
// This header is internal: tests reach the per-ISA entry points through
// it. Nothing selects an ISA but the CPU.
#pragma once

#include <cstdint>
#include <string>

#include "mc/kernel.hpp"
#include "mc/tally.hpp"
#include "util/rng.hpp"

namespace phodis::mc {

enum class PacketIsa : std::uint8_t {
  kAvx2 = 0,    ///< 8 lanes in two ymm registers (the x86-64-v3 baseline)
  kAvx512 = 1,  ///< 8 lanes in one zmm register
};

/// "avx2" | "avx512" — the label of the mc_packet_isa gauge and of
/// bench_kernel's packet entries.
std::string to_string(PacketIsa isa);

/// The build the packet loop runs for a CPU with these features: AVX-512
/// only when F, DQ and VL are all present (the AVX-512 build is compiled
/// with all three), AVX2 otherwise. A pure function, so the rule is
/// testable on any host.
PacketIsa select_packet_isa(bool avx512f, bool avx512dq,
                            bool avx512vl) noexcept;

/// select_packet_isa() applied to this CPU's features, read once.
PacketIsa host_packet_isa() noexcept;

namespace avx2 {
void run_packet(const Kernel& kernel, std::uint64_t photon_count,
                util::Xoshiro256pp& rng, SimulationTally& tally);
}  // namespace avx2

namespace avx512 {
void run_packet(const Kernel& kernel, std::uint64_t photon_count,
                util::Xoshiro256pp& rng, SimulationTally& tally);
}  // namespace avx512

}  // namespace phodis::mc
