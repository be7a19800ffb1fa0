// Voxel scoring grids.
//
// Two tallies share VoxelGrid3D storage:
//  * fluence/absorption grid — every weight deposit from every photon
//    (Fig. 4's picture of where light goes in the layered head);
//  * path-visit grid — deposits from *detected* photons only, committed
//    retroactively when the photon reaches the detector (Fig. 3's banana).
//    PathRecorder buffers a photon's deposits until its fate is known.
//
// The grid resolution is the paper's "user defined granularity of results";
// Fig. 3 uses 50^3.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "mc/binning.hpp"
#include "util/bytes.hpp"
#include "util/vec3.hpp"

namespace phodis::mc {

struct GridSpec {
  double x_min = -25.0, x_max = 25.0;  ///< [mm]
  double y_min = -25.0, y_max = 25.0;  ///< [mm]
  double z_min = 0.0, z_max = 50.0;    ///< [mm]
  std::size_t nx = 50, ny = 50, nz = 50;

  void validate() const;
  std::size_t voxel_count() const noexcept { return nx * ny * nz; }
  double voxel_volume_mm3() const noexcept;

  bool operator==(const GridSpec&) const = default;

  /// Cubic grid of n^3 voxels centred on x=y=0 spanning [0, depth] in z and
  /// [-half_width, half_width] in x and y.
  static GridSpec cube(std::size_t n, double half_width_mm, double depth_mm);

  void serialize(util::ByteWriter& writer) const;
  static GridSpec deserialize(util::ByteReader& reader);
};

/// Dense 3-D accumulation grid. Mergeable (for distributed partial results)
/// and flat-indexed (ix fastest) so the buffer can be serialised directly.
class VoxelGrid3D {
 public:
  explicit VoxelGrid3D(const GridSpec& spec);

  /// Flat index of the voxel containing `pos`, or nullopt when outside.
  std::optional<std::size_t> index_of(const util::Vec3& pos) const noexcept;

  /// Deposit `weight` at `pos`; silently ignored outside the grid (photons
  /// legitimately wander beyond any finite scoring window).
  void deposit(const util::Vec3& pos, double weight) noexcept;
  void deposit_index(std::size_t flat_index, double weight) noexcept;

  /// deposit() for N points at once (the packet kernel's lanes): lanes
  /// with mask[i] == 0 are no-ops, masked-in lanes land exactly where
  /// deposit() would put them, and accumulation runs in lane order, so
  /// the grid matches N sequential deposit() calls bitwise. The binning
  /// loop vectorizes in the caller's TU; only the scatter stays scalar
  /// (lanes may share a voxel).
  template <std::size_t N>
  void deposit_lanes(const double* x, const double* y, const double* z,
                     const double* weight,
                     const std::uint64_t* mask) noexcept {
    std::uint64_t in[N];
    std::uint64_t idx[N];
    for (std::size_t i = 0; i < N; ++i) {
      const double flat = flat_bin(x[i], y[i], z[i]);
      in[i] = static_cast<std::uint64_t>(flat >= 0.0) & mask[i];
      idx[i] = lane_index(flat >= 0.0 ? flat : 0.0);
    }
    double* const data = data_.data();
    for (std::size_t i = 0; i < N; ++i) {
      if (in[i]) data[idx[i]] += weight[i];
    }
  }

  double at(std::size_t ix, std::size_t iy, std::size_t iz) const;
  double at_flat(std::size_t flat) const { return data_.at(flat); }

  void merge(const VoxelGrid3D& other);

  const GridSpec& spec() const noexcept { return spec_; }
  const std::vector<double>& data() const noexcept { return data_; }
  std::vector<double>& mutable_data() noexcept { return data_; }

  double total() const noexcept;
  double max_value() const noexcept;

  /// Voxel centre position for a flat index.
  util::Vec3 voxel_center(std::size_t flat) const noexcept;

 private:
  /// Flat index of the voxel holding (x, y, z) as an integral double, or
  /// -1 when outside: the one binning rule of index_of and deposit_lanes.
  double flat_bin(double x, double y, double z) const noexcept {
    const double bx = x_axis_.bin(x);
    const double by = y_axis_.bin(y);
    const double bz = z_axis_.bin(z);
    const double flat = (bz * ny_ + by) * nx_ + bx;
    return std::min(std::min(bx, by), bz) >= 0.0 ? flat : -1.0;
  }

  GridSpec spec_;
  BinAxis x_axis_, y_axis_, z_axis_;
  double nx_ = 0.0, ny_ = 0.0;  ///< voxel counts as doubles (flat_bin)
  std::vector<double> data_;
};

/// Per-photon deposit buffer: records (voxel, weight) pairs along one
/// photon's path, then either commits them to a grid (photon detected) or
/// is discarded (photon lost). Consecutive deposits to the same voxel are
/// coalesced, which shrinks the buffer ~µt·voxel_size-fold.
class PathRecorder {
 public:
  void record(const VoxelGrid3D& grid, const util::Vec3& pos,
              double weight) noexcept;
  void commit(VoxelGrid3D& grid) const noexcept;
  void clear() noexcept { entries_.clear(); }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

 private:
  struct Entry {
    std::size_t voxel;
    double weight;
  };
  std::vector<Entry> entries_;
};

}  // namespace phodis::mc
