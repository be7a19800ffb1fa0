// The packet photon loop (KernelMode::kPacket): kPacketWidth photons
// marched together in structure-of-arrays lanes, with the per-event
// transcendentals (log for step sampling, sincos for the azimuth)
// evaluated lane-parallel through mc/vmath.hpp. See packet_kernel.cpp for
// the loop schedule and the determinism argument; the contract in brief:
//
//  * NOT bitwise-equal to the scalar loop (different libm, different draw
//    schedule). It has its own golden hashes and is tied to the scalar
//    reference by the statistical-equivalence test below.
//  * Deterministic in itself: the tally produced for a given (config,
//    photon_count, rng state) is identical across thread counts, build
//    types, and sanitizers — each lane draws from its own RNG sub-stream
//    (2^192 apart via Xoshiro256pp::long_jump), so a photon's trajectory
//    is a function of its stream position alone, independent of which
//    lane it lands in or what its packet-mates do.
//  * Identical on every ISA: the loop is built for AVX2 and for AVX-512
//    and picked at run time (mc/packet_isa.hpp); both builds give the
//    same tally bytes.
//  * Supported configuration subset is enforced by KernelConfig::validate:
//    probabilistic boundaries, no path grid, every layer µt > 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/kernel.hpp"
#include "mc/tally.hpp"
#include "util/rng.hpp"

namespace phodis::mc {

/// Simulate `photon_count` packets through the batched SoA loop,
/// accumulating into `tally` (which must have the shape of
/// kernel.make_tally()). Advances `rng` by exactly kPacketWidth
/// long_jump()s — the per-lane sub-streams — regardless of photon count.
/// Runs the AVX-512 build when the CPU has AVX-512 F/DQ/VL, the AVX2
/// build otherwise (mc/packet_isa.hpp); the tally is the same either way.
void run_packet(const Kernel& kernel, std::uint64_t photon_count,
                util::Xoshiro256pp& rng, SimulationTally& tally);

/// Default acceptance threshold for statistical_equivalence(): 6 combined
/// standard errors. With ~10 quantities checked per comparison, a true-null
/// false-positive is < 1e-8 per run while a physics bug of a few parts in
/// 1e3 at typical test sizes (1e5 photons) sits tens of sigma out.
inline constexpr double kDefaultStatSigma = 6.0;

/// One quantity's scalar-vs-packet comparison.
struct StatCheck {
  std::string name;
  double reference = 0.0;  ///< scalar-mode value
  double candidate = 0.0;  ///< packet-mode value
  double sigma = 0.0;      ///< combined standard error of the difference
  double z = 0.0;          ///< |reference - candidate| / sigma
  bool pass = true;
};

/// Result of comparing two tallies of the same configuration run in
/// different kernel modes (or any two independent runs).
struct StatEquivalence {
  bool pass = true;
  double max_z = 0.0;
  std::vector<StatCheck> checks;

  /// One line per check: "name: ref=… cand=… z=… [OK|FAIL]".
  std::string summary() const;
};

/// Test that `candidate` agrees with `reference` within `k_sigma` combined
/// standard errors on the global energy balance (specular / diffuse
/// reflectance, transmittance, absorbed and detected weight fractions) and
/// on the mean detected pathlength. Standard errors use the conservative
/// Bhatia–Davis bound p(1-p)/N for the weight fractions (per-photon
/// contributions lie in [0, 1] up to rare roulette survivors) and the
/// std<=mean exponential-tail bound for the pathlength mean, so a pass
/// criterion of k_sigma = 6 is loose against noise yet tight against any
/// systematic physics divergence.
StatEquivalence statistical_equivalence(const SimulationTally& reference,
                                        const SimulationTally& candidate,
                                        double k_sigma = kDefaultStatSigma);

}  // namespace phodis::mc
