// The kernel-facing lowering of a LayeredMedium: flat, string-free
// structure-of-arrays optics tables sized for the photon interaction loop.
//
// `Layer` is a description type — it drags a std::string name through every
// cache line and recomputes µt/albedo on demand — which is fine for
// builders, reports, and serialization, but not for a loop that touches
// layer optics several thousand times per photon. At Kernel construction
// the medium is compiled once into parallel arrays of plain doubles
// (z0/z1/n/µt/1/µt/µa/µa÷µt/g) plus, per layer and crossing direction, the
// adjacent refractive index, the precomputed Snell ratio n_i/n_t, and a
// conservative critical-angle cosine so that total internal reflection is
// decided with a single compare before any Fresnel square root.
//
// Bitwise-identity rules (the golden test pins kernel tallies to the
// pre-compilation kernel bit for bit):
//  * Precomputing a value is safe when the hot loop would have computed it
//    from the same operands with the same expression — µt = µa + µs and
//    n_ratio = n_i / n_t are each one IEEE operation on identical inputs,
//    so the cached double is identical to the recomputed one.
//  * Rewriting an expression is NOT safe: s/µt must stay a division in the
//    loop because s·(1/µt) rounds differently. inv_mut and µa/µt are
//    still part of the table for the packet loop, which pins its own
//    goldens, so the single-rounding form is fair game there.
//  * tir_cos is deliberately conservative (critical cosine minus a margin
//    wider than the Fresnel evaluation's rounding error): cos θi at or
//    below it is provably beyond the critical angle, so cross_interface
//    reflects without drawing or computing anything; cos θi above it falls
//    through to the exact Fresnel expression, which makes its own TIR
//    decision. Either way the decision — and every tallied bit — matches
//    the uncompiled kernel.
#pragma once

#include <cstddef>
#include <vector>

#include "mc/layer.hpp"

namespace phodis::mc {

class CompiledMedium {
 public:
  CompiledMedium() = default;
  explicit CompiledMedium(const LayeredMedium& medium);

  std::size_t layer_count() const noexcept { return z0_.size(); }
  double n_above() const noexcept { return n_above_; }

  // --- per-layer SoA tables (unchecked: the loop owns the index) ----------
  double z0(std::size_t i) const noexcept { return z0_[i]; }
  double z1(std::size_t i) const noexcept { return z1_[i]; }
  double n(std::size_t i) const noexcept { return n_[i]; }
  double mut(std::size_t i) const noexcept { return mut_[i]; }
  double inv_mut(std::size_t i) const noexcept { return inv_mut_[i]; }
  double mua(std::size_t i) const noexcept { return mua_[i]; }
  /// µa/µt, the weight fraction an interaction deposits (0 when µt = 0).
  double absorbed_fraction(std::size_t i) const noexcept { return afrac_[i]; }
  double g(std::size_t i) const noexcept { return g_[i]; }

  // --- per-interface tables, direction d: 0 = up, 1 = down ----------------
  double neighbour_n(std::size_t i, int d) const noexcept {
    return n_t_[2 * i + static_cast<std::size_t>(d)];
  }
  /// Precomputed Snell ratio n_i/n_t for refraction at interface (i, d).
  double n_ratio(std::size_t i, int d) const noexcept {
    return n_ratio_[2 * i + static_cast<std::size_t>(d)];
  }
  /// One-compare TIR threshold: cos θi <= tir_cos(i, d) (with cos θi above
  /// the grazing cutoff) is definitely total internal reflection. -1 when
  /// the interface has no critical angle (n_i <= n_t), so the compare can
  /// never pass.
  double tir_cos(std::size_t i, int d) const noexcept {
    return tir_cos_[2 * i + static_cast<std::size_t>(d)];
  }
  /// True when crossing interface (i, d) leaves the tissue stack.
  bool exterior(std::size_t i, int d) const noexcept {
    return exterior_[2 * i + static_cast<std::size_t>(d)] != 0;
  }

  /// Specular direction scale n_above/n(0) applied at photon entry
  /// (precomputed division, bit-identical to the runtime one).
  double entry_scale() const noexcept { return entry_scale_; }

 private:
  std::vector<double> z0_, z1_, n_, mut_, inv_mut_, mua_, afrac_, g_;
  std::vector<double> n_t_, n_ratio_, tir_cos_;  // 2 entries per layer
  std::vector<unsigned char> exterior_;
  double n_above_ = 1.0;
  double entry_scale_ = 1.0;
};

/// The safety margin subtracted from the exact critical cosine to make the
/// one-compare TIR test conservative. 1e-9 dwarfs the few-ulp (~1e-16)
/// rounding error of the sin_t chain inside fresnel() for every physical
/// index pair, while excluding only a ~1e-9-wide sliver of angles that
/// fall back to the exact expression.
inline constexpr double kTirCosMargin = 1e-9;

}  // namespace phodis::mc
