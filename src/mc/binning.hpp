// The bin rule shared by every regular tally axis: the voxel grid's x, y
// and z and the radial tally's r and z. The scalar scorers (one point per
// call) and the packet kernel's lane scorers (kPacketWidth points per
// call) both bin through BinAxis::bin, so the two paths cannot disagree on
// which bin — or whether any bin — a point lands in.
//
// Everything is 8-byte double arithmetic on purpose: inside the packet
// TU's lane loops gcc only picks a vector type when every value in the
// loop is the same width, and AVX2 has no double -> int64 convert. Bins
// therefore stay integral doubles (std::trunc), flat indices are formed in
// doubles (exact: every tally caps its flat size at 2^31 bins), and
// lane_index() turns one into a u64 by the 2^52 bias trick. A point is
// in a multi-axis tally when the smallest of its axis bins is >= 0 (one
// min per axis instead of an AND of per-axis tests, which gcc also
// declines to vectorize).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace phodis::mc {

/// Largest flat bin count any tally accepts: flat indices built in
/// doubles stay exact far beyond it, and lane_index() needs < 2^52.
inline constexpr std::size_t kMaxFlatBins = std::size_t{1} << 31;

/// True when the product a*b*c of bin counts is at most kMaxFlatBins
/// (overflow-safe: the counts arrive off the wire in task payloads).
inline bool flat_bins_fit(std::size_t a, std::size_t b,
                          std::size_t c = 1) noexcept {
  if (a == 0 || b == 0 || c == 0) return true;
  if (a > kMaxFlatBins / b) return false;
  return a * b <= kMaxFlatBins / c;
}

/// n equal bins over the half-open range [lo, hi).
class BinAxis {
 public:
  BinAxis() = default;
  BinAxis(double lo, double hi, std::size_t n) noexcept
      : lo_(lo),
        hi_(hi),
        inv_width_(static_cast<double>(n) / (hi - lo)),
        last_(static_cast<double>(n) - 1.0) {}

  /// Bin of coordinate v as an integral double in [0, n-1], or -1 when v
  /// is outside [lo, hi) (NaN included). The range test is on v itself,
  /// not on the scaled coordinate, and the scaled bin is clamped to n-1:
  /// when n / (hi - lo) is inexact, a v one ulp below hi can scale to
  /// exactly n, and that point is inside the range, so it belongs to the
  /// last bin rather than one past the end.
  /// (Non-short-circuit `&` on purpose: with `&&` gcc splits the test
  /// into control flow and the lane loops stop vectorizing.)
  double bin(double v) const noexcept {
    const double b = std::min(std::trunc((v - lo_) * inv_width_), last_);
    return ((v >= lo_) & (v < hi_)) ? b : -1.0;
  }

  double inv_width() const noexcept { return inv_width_; }

 private:
  double lo_ = 0.0;
  double hi_ = 0.0;
  double inv_width_ = 0.0;  ///< n / (hi - lo)
  double last_ = 0.0;       ///< n - 1
};

/// u64 value of a non-negative integral double below 2^52, without a
/// convert instruction: adding 2^52 puts the integer in the low mantissa
/// bits exactly. Vectorizes under AVX2, unlike static_cast<uint64_t>.
inline std::uint64_t lane_index(double integral) noexcept {
  constexpr double kBias = 4503599627370496.0;  // 2^52
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  return std::bit_cast<std::uint64_t>(integral + kBias) & kMantissa;
}

}  // namespace phodis::mc
