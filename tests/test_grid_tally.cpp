// Tests for the voxel scoring grids, the path recorder, and the
// mergeable/serialisable simulation tally.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "mc/grid.hpp"
#include "mc/tally.hpp"

namespace phodis::mc {
namespace {

GridSpec small_grid() {
  GridSpec spec;
  spec.x_min = -5.0;
  spec.x_max = 5.0;
  spec.y_min = -5.0;
  spec.y_max = 5.0;
  spec.z_min = 0.0;
  spec.z_max = 10.0;
  spec.nx = spec.ny = spec.nz = 10;
  return spec;
}

// ---------- GridSpec ---------------------------------------------------------

TEST(GridSpec, ValidatesExtents) {
  GridSpec spec = small_grid();
  EXPECT_NO_THROW(spec.validate());
  spec.x_max = spec.x_min;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_grid();
  spec.nz = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(GridSpec, RejectsInfiniteExtents) {
  // An infinite span makes the bin width infinite: every point would
  // bin into the first voxel.
  GridSpec spec = small_grid();
  spec.x_max = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_grid();
  spec.z_min = -1e308;
  spec.z_max = 1e308;  // both finite, but the span overflows
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(GridSpec, RejectsVoxelCountsPastTheIndexLimit) {
  GridSpec spec = small_grid();
  spec.nx = spec.ny = 1u << 16;  // 2^32 voxels: over the 2^31 cap
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.nx = spec.ny = spec.nz = std::size_t{1} << 22;  // wraps to 0
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(GridSpec, CubeFactory) {
  const GridSpec spec = GridSpec::cube(50, 25.0, 40.0);
  EXPECT_EQ(spec.nx, 50u);
  EXPECT_EQ(spec.ny, 50u);
  EXPECT_EQ(spec.nz, 50u);
  EXPECT_DOUBLE_EQ(spec.x_min, -25.0);
  EXPECT_DOUBLE_EQ(spec.z_max, 40.0);
  EXPECT_EQ(spec.voxel_count(), 125000u);
}

TEST(GridSpec, VoxelVolume) {
  const GridSpec spec = small_grid();  // 1mm x 1mm x 1mm voxels
  EXPECT_DOUBLE_EQ(spec.voxel_volume_mm3(), 1.0);
}

TEST(GridSpec, SerializeRoundTrip) {
  const GridSpec spec = small_grid();
  util::ByteWriter w;
  spec.serialize(w);
  util::ByteReader r(w.bytes());
  EXPECT_EQ(GridSpec::deserialize(r), spec);
}

// ---------- VoxelGrid3D ------------------------------------------------------

TEST(VoxelGrid, IndexOfMapsPositions) {
  VoxelGrid3D grid(small_grid());
  // Center of the first voxel.
  auto idx = grid.index_of({-4.5, -4.5, 0.5});
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 0u);
  // Outside on each axis.
  EXPECT_FALSE(grid.index_of({-5.1, 0, 5}).has_value());
  EXPECT_FALSE(grid.index_of({0, 5.0, 5}).has_value());  // hi edge exclusive
  EXPECT_FALSE(grid.index_of({0, 0, -0.1}).has_value());
  EXPECT_FALSE(grid.index_of({0, 0, 10.0}).has_value());
}

// A grid whose n / (max - min) ratios are inexact: on every axis the
// largest coordinate below the max scales to exactly n.
GridSpec inexact_grid() {
  GridSpec spec;
  spec.x_min = -0.3;
  spec.x_max = 0.6;
  spec.y_min = 0.0;
  spec.y_max = 0.9;
  spec.z_min = 0.3;
  spec.z_max = 2.0;
  spec.nx = 3;
  spec.ny = 2;
  spec.nz = 7;
  return spec;
}

/// Coordinates that probe one axis's bin rule: every voxel edge, one ulp
/// either side of each end, negatives, signed zero, infinities and NaN.
std::vector<double> axis_probes(double lo, double hi, std::size_t n) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> v;
  for (std::size_t k = 0; k <= n; ++k) {
    v.push_back(lo + (hi - lo) * static_cast<double>(k) /
                         static_cast<double>(n));
  }
  v.insert(v.end(), {std::nextafter(lo, -kInf), std::nextafter(lo, kInf),
                     std::nextafter(hi, -kInf), std::nextafter(hi, kInf),
                     -3.0, -0.0, kInf, -kInf,
                     std::numeric_limits<double>::quiet_NaN()});
  return v;
}

TEST(VoxelGrid, PointOneUlpBelowEveryMaxLandsInLastVoxel) {
  const GridSpec spec = inexact_grid();
  VoxelGrid3D grid(spec);
  const util::Vec3 corner{std::nextafter(spec.x_max, 0.0),
                          std::nextafter(spec.y_max, 0.0),
                          std::nextafter(spec.z_max, 0.0)};
  ASSERT_EQ((corner.z - spec.z_min) * (7.0 / (spec.z_max - spec.z_min)), 7.0);
  const auto idx = grid.index_of(corner);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, spec.voxel_count() - 1);
  EXPECT_FALSE(grid.index_of({spec.x_max, 0.1, 1.0}).has_value());
}

TEST(VoxelGrid, LaneDepositsMatchScalarBinning) {
  // Every probe point goes through deposit_lanes<8> and through
  // index_of. Lane i carries weight 2^i, so each voxel's sum names
  // exactly which lanes landed in it; masked-out lanes (including a
  // parked lane's in-grid position) carry weight too and must not land.
  const GridSpec spec = inexact_grid();
  std::vector<util::Vec3> points;
  for (double x : axis_probes(spec.x_min, spec.x_max, spec.nx)) {
    for (double y : axis_probes(spec.y_min, spec.y_max, spec.ny)) {
      for (double z : axis_probes(spec.z_min, spec.z_max, spec.nz)) {
        points.push_back({x, y, z});
      }
    }
  }
  constexpr std::size_t kLanes = 8;
  std::size_t landed = 0;
  for (std::size_t base = 0; base < points.size(); base += kLanes) {
    double x[kLanes], y[kLanes], z[kLanes], w[kLanes];
    std::uint64_t mask[kLanes];
    VoxelGrid3D lanes(spec);
    VoxelGrid3D scalar(spec);
    for (std::size_t i = 0; i < kLanes; ++i) {
      const util::Vec3 pt = base + i < points.size()
                                ? points[base + i]
                                : util::Vec3{0.0, 0.0, spec.z_max};
      x[i] = pt.x;
      y[i] = pt.y;
      z[i] = pt.z;
      w[i] = std::ldexp(1.0, static_cast<int>(i));
      mask[i] = (base / kLanes + i) % 3 != 0 && base + i < points.size();
      if (mask[i]) {
        const auto idx = scalar.index_of(pt);
        if (idx) {
          scalar.deposit_index(*idx, w[i]);
          ++landed;
        }
      }
    }
    lanes.deposit_lanes<kLanes>(x, y, z, w, mask);
    ASSERT_EQ(lanes.data(), scalar.data()) << "batch at point " << base;
  }
  EXPECT_GT(landed, 100u);  // the probes really hit the grid
}

TEST(VoxelGrid, DepositAndReadBack) {
  VoxelGrid3D grid(small_grid());
  grid.deposit({0.5, 0.5, 0.5}, 2.5);
  grid.deposit({0.5, 0.5, 0.5}, 1.5);
  EXPECT_DOUBLE_EQ(grid.at(5, 5, 0), 4.0);
  EXPECT_DOUBLE_EQ(grid.total(), 4.0);
  EXPECT_DOUBLE_EQ(grid.max_value(), 4.0);
}

TEST(VoxelGrid, DepositOutsideIsIgnored) {
  VoxelGrid3D grid(small_grid());
  grid.deposit({100, 100, 100}, 1.0);
  EXPECT_DOUBLE_EQ(grid.total(), 0.0);
}

TEST(VoxelGrid, VoxelCenterInvertsIndex) {
  VoxelGrid3D grid(small_grid());
  for (std::size_t flat : {0u, 17u, 999u, 123u}) {
    const util::Vec3 c = grid.voxel_center(flat);
    const auto idx = grid.index_of(c);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(*idx, flat);
  }
}

TEST(VoxelGrid, MergeAddsAndChecksSpec) {
  VoxelGrid3D a(small_grid());
  VoxelGrid3D b(small_grid());
  a.deposit({0, 0, 1}, 1.0);
  b.deposit({0, 0, 1}, 2.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total(), 3.0);

  GridSpec other = small_grid();
  other.nx = 20;
  VoxelGrid3D c(other);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(VoxelGrid, AtBoundsChecks) {
  VoxelGrid3D grid(small_grid());
  EXPECT_THROW(grid.at(10, 0, 0), std::out_of_range);
  EXPECT_THROW(grid.at(0, 0, 10), std::out_of_range);
}

// ---------- PathRecorder -----------------------------------------------------

TEST(PathRecorder, CoalescesConsecutiveSameVoxel) {
  VoxelGrid3D grid(small_grid());
  PathRecorder rec;
  rec.record(grid, {0.1, 0.1, 0.1}, 1.0);
  rec.record(grid, {0.2, 0.2, 0.2}, 1.0);  // same voxel
  rec.record(grid, {2.0, 2.0, 2.0}, 1.0);  // different voxel
  EXPECT_EQ(rec.size(), 2u);
}

TEST(PathRecorder, CommitDepositsEverything) {
  VoxelGrid3D grid(small_grid());
  PathRecorder rec;
  rec.record(grid, {0.1, 0.1, 0.1}, 1.5);
  rec.record(grid, {2.0, 2.0, 2.0}, 2.5);
  rec.commit(grid);
  EXPECT_DOUBLE_EQ(grid.total(), 4.0);
}

TEST(PathRecorder, ClearDiscardsWithoutDeposit) {
  VoxelGrid3D grid(small_grid());
  PathRecorder rec;
  rec.record(grid, {0.1, 0.1, 0.1}, 1.0);
  rec.clear();
  EXPECT_TRUE(rec.empty());
  rec.commit(grid);
  EXPECT_DOUBLE_EQ(grid.total(), 0.0);
}

TEST(PathRecorder, IgnoresOutOfGridPositions) {
  VoxelGrid3D grid(small_grid());
  PathRecorder rec;
  rec.record(grid, {100, 0, 0}, 1.0);
  EXPECT_TRUE(rec.empty());
}

// ---------- SimulationTally --------------------------------------------------

TallyConfig tally_config(bool grids = false) {
  TallyConfig config;
  config.layer_count = 3;
  config.pathlength_bins = 50;
  config.pathlength_max_mm = 500.0;
  config.depth_bins = 20;
  config.depth_max_mm = 20.0;
  if (grids) {
    config.enable_fluence_grid = true;
    config.fluence_spec = small_grid();
    config.enable_path_grid = true;
    config.path_spec = small_grid();
  }
  return config;
}

TEST(Tally, RejectsZeroLayers) {
  TallyConfig config;
  config.layer_count = 0;
  EXPECT_THROW(SimulationTally{config}, std::invalid_argument);
}

TEST(Tally, FractionsNormaliseByLaunches) {
  SimulationTally tally(tally_config());
  for (int i = 0; i < 4; ++i) tally.count_launch();
  tally.add_specular(0.2);
  tally.add_diffuse_reflectance(1.0);
  tally.add_transmittance(0.8);
  tally.add_absorption(0, 0.5);
  tally.add_absorption(2, 1.5);
  EXPECT_DOUBLE_EQ(tally.specular_reflectance(), 0.05);
  EXPECT_DOUBLE_EQ(tally.diffuse_reflectance(), 0.25);
  EXPECT_DOUBLE_EQ(tally.transmittance(), 0.2);
  EXPECT_DOUBLE_EQ(tally.absorbed_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(tally.absorbed_weight(0), 0.5);
  EXPECT_DOUBLE_EQ(tally.absorbed_weight(1), 0.0);
  EXPECT_DOUBLE_EQ(tally.absorbed_weight(2), 1.5);
}

TEST(Tally, EmptyTallyHasZeroFractions) {
  SimulationTally tally(tally_config());
  EXPECT_DOUBLE_EQ(tally.diffuse_reflectance(), 0.0);
  EXPECT_DOUBLE_EQ(tally.mean_detected_pathlength(), 0.0);
  EXPECT_DOUBLE_EQ(tally.weight_conservation_error(), 0.0);
}

TEST(Tally, ConservationLedgerBalances) {
  SimulationTally tally(tally_config());
  tally.count_launch();
  tally.add_specular(0.1);
  tally.add_absorption(1, 0.3);
  tally.add_roulette_gain(0.05);
  tally.add_roulette_loss(0.02);
  // sinks must equal 1 + 0.05 - 0.02 = 1.03; so far sinks = 0.4.
  tally.add_diffuse_reflectance(0.63);
  EXPECT_NEAR(tally.weight_conservation_error(), 0.0, 1e-12);
}

TEST(Tally, ConservationLedgerDetectsImbalance) {
  SimulationTally tally(tally_config());
  tally.count_launch();
  tally.add_diffuse_reflectance(0.5);  // 0.5 missing
  EXPECT_NEAR(tally.weight_conservation_error(), 0.5, 1e-12);
}

TEST(Tally, DetectionStatistics) {
  SimulationTally tally(tally_config());
  tally.count_launch();
  tally.record_detection(0.5, 100.0, 10);
  tally.record_detection(0.25, 200.0, 20);
  EXPECT_EQ(tally.photons_detected(), 2u);
  EXPECT_DOUBLE_EQ(tally.total_detected_weight(), 0.75);
  // Weighted mean: (0.5*100 + 0.25*200)/0.75
  EXPECT_NEAR(tally.mean_detected_pathlength(), 100.0 / 0.75, 1e-9);
  EXPECT_NEAR(tally.mean_detected_scatter_events(), (5.0 + 5.0) / 0.75,
              1e-9);
  EXPECT_DOUBLE_EQ(tally.pathlength_histogram().total_in_range(), 0.75);
}

TEST(Tally, MergeAccumulatesEverything) {
  SimulationTally a(tally_config(true));
  SimulationTally b(tally_config(true));
  a.count_launch();
  b.count_launch();
  a.add_diffuse_reflectance(0.5);
  b.add_diffuse_reflectance(0.25);
  a.record_detection(0.5, 100.0, 5);
  b.record_detection(0.25, 300.0, 9);
  a.fluence_grid()->deposit({0, 0, 1}, 1.0);
  b.fluence_grid()->deposit({0, 0, 1}, 2.0);
  b.path_grid()->deposit({1, 1, 1}, 4.0);
  a.record_max_depth(3.0, 1.0);
  b.record_max_depth(7.0, 1.0);

  a.merge(b);
  EXPECT_EQ(a.photons_launched(), 2u);
  EXPECT_EQ(a.photons_detected(), 2u);
  EXPECT_DOUBLE_EQ(a.diffuse_reflectance(), 0.375);
  EXPECT_DOUBLE_EQ(a.fluence_grid()->total(), 3.0);
  EXPECT_DOUBLE_EQ(a.path_grid()->total(), 4.0);
  EXPECT_DOUBLE_EQ(a.depth_histogram().total_in_range(), 2.0);
}

TEST(Tally, MergeRejectsConfigMismatch) {
  SimulationTally a(tally_config());
  TallyConfig other = tally_config();
  other.layer_count = 5;
  SimulationTally b(other);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Tally, SerializeRoundTripScalarsOnly) {
  SimulationTally tally(tally_config());
  tally.count_launch();
  tally.count_launch();
  tally.add_specular(0.08);
  tally.add_diffuse_reflectance(0.9);
  tally.add_absorption(1, 0.7);
  tally.add_roulette_gain(0.01);
  tally.add_roulette_loss(0.02);
  tally.record_detection(0.4, 120.0, 7);
  tally.record_max_depth(5.0, 1.0);

  util::ByteWriter w;
  tally.serialize(w);
  util::ByteReader r(w.bytes());
  SimulationTally back = SimulationTally::deserialize(r);
  EXPECT_TRUE(r.exhausted());

  EXPECT_EQ(back.photons_launched(), tally.photons_launched());
  EXPECT_DOUBLE_EQ(back.specular_reflectance(), tally.specular_reflectance());
  EXPECT_DOUBLE_EQ(back.diffuse_reflectance(), tally.diffuse_reflectance());
  EXPECT_DOUBLE_EQ(back.absorbed_weight(1), tally.absorbed_weight(1));
  EXPECT_DOUBLE_EQ(back.mean_detected_pathlength(),
                   tally.mean_detected_pathlength());
  EXPECT_NEAR(back.weight_conservation_error(),
              tally.weight_conservation_error(), 1e-12);
}

TEST(Tally, SerializeRoundTripWithGrids) {
  SimulationTally tally(tally_config(true));
  tally.count_launch();
  tally.fluence_grid()->deposit({0.5, 0.5, 0.5}, 3.0);
  tally.path_grid()->deposit({-1, -1, 2}, 7.0);

  util::ByteWriter w;
  tally.serialize(w);
  util::ByteReader r(w.bytes());
  SimulationTally back = SimulationTally::deserialize(r);

  ASSERT_NE(back.fluence_grid(), nullptr);
  ASSERT_NE(back.path_grid(), nullptr);
  EXPECT_DOUBLE_EQ(back.fluence_grid()->total(), 3.0);
  EXPECT_DOUBLE_EQ(back.path_grid()->total(), 7.0);
  EXPECT_DOUBLE_EQ(back.fluence_grid()->at(5, 5, 0), 3.0);
}

TEST(Tally, DeserializeRejectsCorruptPayload) {
  SimulationTally tally(tally_config());
  util::ByteWriter w;
  tally.serialize(w);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() / 2);  // truncate
  util::ByteReader r(bytes);
  EXPECT_THROW(SimulationTally::deserialize(r), std::out_of_range);
}

TEST(Tally, GridsAbsentWhenDisabled) {
  SimulationTally tally(tally_config(false));
  EXPECT_EQ(tally.fluence_grid(), nullptr);
  EXPECT_EQ(tally.path_grid(), nullptr);
}

TEST(Tally, AbsorptionOutOfRangeLayerIsIgnored) {
  SimulationTally tally(tally_config());
  tally.add_absorption(99, 1.0);  // silently dropped by design
  EXPECT_DOUBLE_EQ(tally.absorbed_fraction(), 0.0);
}

}  // namespace
}  // namespace phodis::mc
