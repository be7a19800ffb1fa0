// Cylindrically-symmetric (r, z) tallies in the MCML tradition — the
// "numerical solution of the radiative transport theory equation" lineage
// (paper ref. [5], Prahl et al.) that the paper's kernel descends from.
//
// For sources at the origin with normal incidence the problem is
// rotationally symmetric, so radial binning converges far faster than the
// 3-D grids: these tallies power the spatially-resolved diffuse
// reflectance R(ρ) (validated against Farrell's diffusion dipole) and the
// absorption density A(r, z).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mc/binning.hpp"
#include "util/bytes.hpp"

namespace phodis::mc {

struct RadialSpec {
  double r_max_mm = 50.0;
  std::size_t nr = 100;
  double z_max_mm = 50.0;
  std::size_t nz = 100;

  void validate() const;
  bool operator==(const RadialSpec&) const = default;

  void serialize(util::ByteWriter& writer) const;
  static RadialSpec deserialize(util::ByteReader& reader);
};

/// Accumulates raw weights; per-area / per-volume normalisation is done by
/// the accessor methods so merging stays a plain sum.
class RadialTally {
 public:
  explicit RadialTally(const RadialSpec& spec);

  /// Hot-loop scoring handle: the spec constants and bin-array pointers
  /// hoisted into a small local object the compiler keeps in registers.
  /// The member scorers below reload those fields on every call because
  /// stores into the bin arrays may alias them; the kernel's interaction
  /// loop scores thousands of times per photon, so it constructs one
  /// Scorer per photon instead. Arithmetic and accumulation order are
  /// identical to the member scorers (bitwise-neutral).
  class Scorer {
   public:
    explicit Scorer(RadialTally& tally) noexcept
        : r_axis_(tally.r_axis_),
          z_axis_(tally.z_axis_),
          nr_(static_cast<double>(tally.spec_.nr)),
          rd_(tally.rd_.data()),
          tt_(tally.tt_.data()),
          arz_(tally.arz_.data()),
          rd_overflow_(&tally.rd_overflow_),
          tt_overflow_(&tally.tt_overflow_),
          a_overflow_(&tally.a_overflow_) {}

    void reflectance(double r_mm, double weight) const noexcept {
      const double ir = r_axis_.bin(r_mm);
      if (ir < 0.0) {
        *rd_overflow_ += weight;
        return;
      }
      rd_[static_cast<std::size_t>(ir)] += weight;
    }
    void transmittance(double r_mm, double weight) const noexcept {
      const double ir = r_axis_.bin(r_mm);
      if (ir < 0.0) {
        *tt_overflow_ += weight;
        return;
      }
      tt_[static_cast<std::size_t>(ir)] += weight;
    }
    void absorption(double r_mm, double z_mm, double weight) const noexcept {
      const double flat = arz_bin(r_mm, z_mm);
      if (flat < 0.0) {
        *a_overflow_ += weight;
        return;
      }
      arz_[static_cast<std::size_t>(flat)] += weight;
    }
    /// Batched absorption() over N lanes for the packet kernel: lanes
    /// with mask[i] == 0 are no-ops; masked-in lanes follow absorption()
    /// exactly (same bin rule, same overflow routing, same per-bin
    /// accumulation order as N sequential calls). The binning loop is
    /// 8-byte arithmetic only (see mc/binning.hpp), so it vectorizes in
    /// the caller's TU; only the accumulates stay scalar (lanes may
    /// collide on a bin).
    template <std::size_t N>
    void absorption_lanes(const double* r_mm, const double* z_mm,
                          const double* weight,
                          const std::uint64_t* mask) const noexcept {
      std::uint64_t in[N];
      std::uint64_t idx[N];
      for (std::size_t i = 0; i < N; ++i) {
        const double flat = arz_bin(r_mm[i], z_mm[i]);
        in[i] = static_cast<std::uint64_t>(flat >= 0.0) & mask[i];
        idx[i] = lane_index(flat >= 0.0 ? flat : 0.0);
      }
      for (std::size_t i = 0; i < N; ++i) {
        if (in[i]) {
          arz_[idx[i]] += weight[i];
        } else if (mask[i]) {
          *a_overflow_ += weight[i];
        }
      }
    }

   private:
    /// Flat A(r,z) bin (r fastest) as an integral double, or -1 when
    /// (r, z) is outside the tally: the rule of absorption() and
    /// absorption_lanes().
    double arz_bin(double r_mm, double z_mm) const noexcept {
      const double ir = r_axis_.bin(r_mm);
      const double iz = z_axis_.bin(z_mm);
      return std::min(ir, iz) >= 0.0 ? iz * nr_ + ir : -1.0;
    }

    BinAxis r_axis_, z_axis_;
    double nr_;
    double* rd_;
    double* tt_;
    double* arz_;
    double* rd_overflow_;
    double* tt_overflow_;
    double* a_overflow_;
  };

  // The member scorers delegate to a throwaway Scorer so the binning and
  // overflow logic exists exactly once; for one-off calls the handle
  // construction folds away, and hot loops build their own Scorer.

  /// Diffuse reflectance escaping the top surface at exit radius r.
  void score_reflectance(double r_mm, double weight) noexcept {
    Scorer(*this).reflectance(r_mm, weight);
  }
  /// Transmittance through the bottom surface at exit radius r.
  void score_transmittance(double r_mm, double weight) noexcept {
    Scorer(*this).transmittance(r_mm, weight);
  }
  /// Absorption deposit at (r, z).
  void score_absorption(double r_mm, double z_mm, double weight) noexcept {
    Scorer(*this).absorption(r_mm, z_mm, weight);
  }

  const RadialSpec& spec() const noexcept { return spec_; }

  /// Raw accumulated weight in annulus i (reflectance).
  double reflectance_weight(std::size_t ir) const;
  double transmittance_weight(std::size_t ir) const;
  double absorption_weight(std::size_t ir, std::size_t iz) const;

  /// Photon weight escaping beyond r_max (so totals remain checkable).
  double reflectance_overflow() const noexcept { return rd_overflow_; }
  double transmittance_overflow() const noexcept { return tt_overflow_; }
  double absorption_overflow() const noexcept { return a_overflow_; }

  /// R(ρ): reflected weight per unit area [1/mm²] per launched photon.
  /// Caller supplies the launch count (the tally does not know it).
  double reflectance_per_area(std::size_t ir,
                              std::uint64_t photons_launched) const;

  /// A(r,z): absorbed weight per unit volume [1/mm³] per launched photon.
  double absorption_density(std::size_t ir, std::size_t iz,
                            std::uint64_t photons_launched) const;

  /// Bin centre radius / annulus area / ring-volume helpers.
  double r_center(std::size_t ir) const noexcept;
  double z_center(std::size_t iz) const noexcept;
  double annulus_area_mm2(std::size_t ir) const noexcept;
  double ring_volume_mm3(std::size_t ir) const noexcept;

  /// Total weights (in-range + overflow) for conservation cross-checks.
  double total_reflectance() const noexcept;
  double total_absorption() const noexcept;

  void merge(const RadialTally& other);
  void serialize(util::ByteWriter& writer) const;
  static RadialTally deserialize(util::ByteReader& reader);

 private:
  RadialSpec spec_;
  BinAxis r_axis_;  ///< [0, r_max) in nr bins
  BinAxis z_axis_;  ///< [0, z_max) in nz bins
  std::vector<double> rd_;   // nr
  std::vector<double> tt_;   // nr
  std::vector<double> arz_;  // nr * nz, r fastest
  double rd_overflow_ = 0.0;
  double tt_overflow_ = 0.0;
  double a_overflow_ = 0.0;
};

}  // namespace phodis::mc
