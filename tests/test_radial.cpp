// Tests for the cylindrical (r,z) tallies, the divergence source
// extension, and DataManager checkpoint/restore.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "analysis/diffusion.hpp"
#include "dist/datamanager.hpp"
#include "mc/kernel.hpp"
#include "mc/presets.hpp"
#include "mc/radial.hpp"

namespace phodis::mc {
namespace {

RadialSpec small_radial() {
  RadialSpec spec;
  spec.r_max_mm = 10.0;
  spec.nr = 10;
  spec.z_max_mm = 5.0;
  spec.nz = 5;
  return spec;
}

// ---------- RadialSpec --------------------------------------------------------

TEST(RadialSpec, Validation) {
  RadialSpec spec = small_radial();
  EXPECT_NO_THROW(spec.validate());
  spec.nr = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_radial();
  spec.r_max_mm = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(RadialSpec, SerializeRoundTrip) {
  util::ByteWriter w;
  small_radial().serialize(w);
  util::ByteReader r(w.bytes());
  EXPECT_EQ(RadialSpec::deserialize(r), small_radial());
}

// ---------- RadialTally --------------------------------------------------------

TEST(RadialTally, ScoresIntoCorrectBins) {
  RadialTally tally(small_radial());
  tally.score_reflectance(0.5, 1.0);   // bin 0
  tally.score_reflectance(9.99, 2.0);  // bin 9
  tally.score_reflectance(10.0, 3.0);  // overflow
  EXPECT_DOUBLE_EQ(tally.reflectance_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(tally.reflectance_weight(9), 2.0);
  EXPECT_DOUBLE_EQ(tally.reflectance_overflow(), 3.0);
  EXPECT_DOUBLE_EQ(tally.total_reflectance(), 6.0);
}

TEST(RadialTally, AbsorptionBinsAndOverflow) {
  RadialTally tally(small_radial());
  tally.score_absorption(1.5, 2.5, 4.0);  // ir=1, iz=2
  tally.score_absorption(1.5, 5.0, 1.0);  // z overflow
  tally.score_absorption(11.0, 1.0, 1.0); // r overflow
  EXPECT_DOUBLE_EQ(tally.absorption_weight(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(tally.absorption_overflow(), 2.0);
  EXPECT_DOUBLE_EQ(tally.total_absorption(), 6.0);
}

TEST(RadialTally, RadiusOneUlpBelowMaxLandsInLastBin) {
  // nr / r_max = 1 / 0.9 is inexact: the largest radius below r_max
  // scales to exactly nr, one bin past the end unless the index is
  // clamped. z has the same edge.
  RadialSpec spec;
  spec.r_max_mm = 0.9;
  spec.nr = 1;
  spec.z_max_mm = 0.9;
  spec.nz = 1;
  const double edge = std::nextafter(0.9, 0.0);
  ASSERT_EQ(edge * (1.0 / 0.9), 1.0);
  RadialTally tally(spec);
  tally.score_reflectance(edge, 1.0);
  tally.score_transmittance(edge, 2.0);
  tally.score_absorption(edge, edge, 4.0);
  EXPECT_EQ(tally.reflectance_weight(0), 1.0);
  EXPECT_EQ(tally.reflectance_overflow(), 0.0);
  EXPECT_EQ(tally.total_reflectance(), 1.0);
  EXPECT_EQ(tally.transmittance_weight(0), 2.0);
  EXPECT_EQ(tally.transmittance_overflow(), 0.0);
  EXPECT_EQ(tally.absorption_weight(0, 0), 4.0);
  EXPECT_EQ(tally.absorption_overflow(), 0.0);
  EXPECT_EQ(tally.total_absorption(), 4.0);
}

TEST(RadialSpec, RejectsInfiniteExtents) {
  RadialSpec spec = small_radial();
  spec.r_max_mm = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_radial();
  spec.z_max_mm = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(RadialSpec, RejectsTallyTooLargeToIndex) {
  RadialSpec spec = small_radial();
  spec.nr = std::size_t{1} << 32;  // no wrap, but over the 2^31 cap
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.nr = std::size_t{1} << 33;
  spec.nz = std::size_t{1} << 31;  // product wraps to 0 in 64 bits
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

/// Coordinates that probe one axis's bin rule: every bin edge, one ulp
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

TEST(RadialTally, LaneAbsorptionMatchesScalarBinning) {
  // Every (r, z) probe pair goes through absorption_lanes<8> and through
  // absorption(). Lane i carries weight 2^i, so each bin's sum (and the
  // overflow) names exactly which lanes landed in it; masked-out lanes
  // carry weight too and must land nowhere, not even in the overflow.
  RadialSpec spec;
  spec.r_max_mm = 0.9;  // 4 / 0.9 and 7 / 1.7 are inexact at the max
  spec.nr = 4;
  spec.z_max_mm = 1.7;
  spec.nz = 7;
  std::vector<std::pair<double, double>> points;
  for (double r : axis_probes(0.0, spec.r_max_mm, spec.nr)) {
    for (double z : axis_probes(0.0, spec.z_max_mm, spec.nz)) {
      points.emplace_back(r, z);
    }
  }
  constexpr std::size_t kLanes = 8;
  for (std::size_t base = 0; base < points.size(); base += kLanes) {
    double r[kLanes], z[kLanes], w[kLanes];
    std::uint64_t mask[kLanes];
    RadialTally lanes(spec);
    RadialTally scalar(spec);
    const RadialTally::Scorer scalar_scorer(scalar);
    for (std::size_t i = 0; i < kLanes; ++i) {
      const bool real = base + i < points.size();
      r[i] = real ? points[base + i].first : 0.0;
      z[i] = real ? points[base + i].second : 0.0;
      w[i] = std::ldexp(1.0, static_cast<int>(i));
      mask[i] = (base / kLanes + i) % 3 != 0 && real;
      if (mask[i]) scalar_scorer.absorption(r[i], z[i], w[i]);
    }
    RadialTally::Scorer(lanes).absorption_lanes<kLanes>(r, z, w, mask);
    for (std::size_t iz = 0; iz < spec.nz; ++iz) {
      for (std::size_t ir = 0; ir < spec.nr; ++ir) {
        ASSERT_EQ(lanes.absorption_weight(ir, iz),
                  scalar.absorption_weight(ir, iz))
            << "batch at point " << base << ", bin (" << ir << ", " << iz
            << ")";
      }
    }
    ASSERT_EQ(lanes.absorption_overflow(), scalar.absorption_overflow())
        << "batch at point " << base;
  }
}

TEST(RadialTally, AnnulusAreasTileTheDisc) {
  RadialTally tally(small_radial());
  double total_area = 0.0;
  for (std::size_t ir = 0; ir < 10; ++ir) {
    total_area += tally.annulus_area_mm2(ir);
  }
  EXPECT_NEAR(total_area, std::numbers::pi * 10.0 * 10.0, 1e-9);
}

TEST(RadialTally, PerAreaNormalisation) {
  RadialTally tally(small_radial());
  tally.score_reflectance(0.5, 6.0);
  // Bin 0 is a disc of radius 1 mm: area pi.
  EXPECT_NEAR(tally.reflectance_per_area(0, 3),
              6.0 / (std::numbers::pi * 1.0 * 1.0 * 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(tally.reflectance_per_area(0, 0), 0.0);
}

TEST(RadialTally, DensityNormalisation) {
  RadialTally tally(small_radial());
  tally.score_absorption(0.5, 0.5, 2.0);
  const double volume = std::numbers::pi * 1.0 * 1.0 * 1.0;  // 1mm slab
  EXPECT_NEAR(tally.absorption_density(0, 0, 4),
              2.0 / (volume * 4.0), 1e-12);
}

TEST(RadialTally, MergeAndSerializeRoundTrip) {
  RadialTally a(small_radial());
  RadialTally b(small_radial());
  a.score_reflectance(0.5, 1.0);
  b.score_reflectance(0.5, 2.0);
  b.score_absorption(3.0, 1.0, 5.0);
  b.score_transmittance(2.0, 0.5);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.reflectance_weight(0), 3.0);
  EXPECT_DOUBLE_EQ(a.absorption_weight(3, 1), 5.0);
  EXPECT_DOUBLE_EQ(a.transmittance_weight(2), 0.5);

  util::ByteWriter w;
  a.serialize(w);
  util::ByteReader r(w.bytes());
  const RadialTally back = RadialTally::deserialize(r);
  EXPECT_DOUBLE_EQ(back.reflectance_weight(0), 3.0);
  EXPECT_DOUBLE_EQ(back.total_absorption(), 5.0);
}

TEST(RadialTally, MergeRejectsMismatch) {
  RadialTally a(small_radial());
  RadialSpec other = small_radial();
  other.nr = 20;
  RadialTally b(other);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// ---------- kernel integration -------------------------------------------------

TEST(RadialKernel, TotalsMatchScalarTally) {
  OpticalProperties p;
  p.mua = 0.05;
  p.mus = 5.0;
  p.g = 0.8;
  p.n = 1.0;
  KernelConfig config;
  config.medium = homogeneous_semi_infinite(p, 1.0);
  config.tally.enable_radial = true;
  config.tally.radial_spec.r_max_mm = 1000.0;  // catch everything
  config.tally.radial_spec.nr = 50;
  config.tally.radial_spec.z_max_mm = 1000.0;
  config.tally.radial_spec.nz = 50;
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(61);
  kernel.run(20000, rng, tally);

  ASSERT_NE(tally.radial(), nullptr);
  const double launched = static_cast<double>(tally.photons_launched());
  EXPECT_NEAR(tally.radial()->total_reflectance() / launched,
              tally.diffuse_reflectance(), 1e-12);
  EXPECT_NEAR(tally.radial()->total_absorption() / launched,
              tally.absorbed_fraction(), 1e-9);
}

TEST(RadialKernel, ReflectanceDecreasesWithRadius) {
  OpticalProperties p;
  p.mua = 0.01;
  p.mus = 10.0;
  p.g = 0.9;
  p.n = 1.0;
  KernelConfig config;
  config.medium = homogeneous_semi_infinite(p, 1.0);
  config.tally.enable_radial = true;
  config.tally.radial_spec.r_max_mm = 20.0;
  config.tally.radial_spec.nr = 20;
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(62);
  kernel.run(100000, rng, tally);

  const RadialTally& radial = *tally.radial();
  // Per-area reflectance must fall by orders of magnitude from 1 mm to
  // 15 mm; check a strictly decreasing coarse sequence.
  const double near = radial.reflectance_per_area(1, 100000);
  const double mid = radial.reflectance_per_area(8, 100000);
  const double far = radial.reflectance_per_area(15, 100000);
  EXPECT_GT(near, 10.0 * mid);
  EXPECT_GT(mid, far);
}

TEST(RadialKernel, MatchesFarrellDiffusionShape) {
  // Spatially-resolved reflectance vs the Farrell dipole curve in the
  // diffusive regime (3 <= rho <= 12 mm, rho >> 1/mus'): the MC/theory
  // ratio should be flat within ~30%.
  OpticalProperties p;
  p.mua = 0.01;
  p.mus = 10.0;
  p.g = 0.9;
  p.n = 1.0;
  KernelConfig config;
  config.medium = homogeneous_semi_infinite(p, 1.0);
  config.tally.enable_radial = true;
  config.tally.radial_spec.r_max_mm = 16.0;
  config.tally.radial_spec.nr = 16;
  const Kernel kernel(config);
  SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(63);
  kernel.run(300000, rng, tally);

  const RadialTally& radial = *tally.radial();
  double ratio_min = 1e300;
  double ratio_max = 0.0;
  for (std::size_t ir = 3; ir <= 12; ++ir) {
    const double rho = radial.r_center(ir);
    const double mc = radial.reflectance_per_area(ir, 300000);
    const double theory = analysis::semi_infinite_reflectance(p, rho, 1.0);
    ASSERT_GT(mc, 0.0);
    const double ratio = mc / theory;
    ratio_min = std::min(ratio_min, ratio);
    ratio_max = std::max(ratio_max, ratio);
  }
  EXPECT_LT(ratio_max / ratio_min, 1.6);
  EXPECT_GT(ratio_min, 0.5);
  EXPECT_LT(ratio_max, 2.0);
}

// ---------- divergence source ----------------------------------------------------

TEST(DivergentSource, ValidationAndSampling) {
  SourceSpec spec;
  spec.half_angle_deg = 95.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.half_angle_deg = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec.half_angle_deg = 30.0;
  Source source(spec);
  util::Xoshiro256pp rng(64);
  const double cos_max = std::cos(30.0 * std::numbers::pi / 180.0);
  double sum_z = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const util::Vec3 dir = source.sample_direction(rng);
    ASSERT_NEAR(dir.norm(), 1.0, 1e-12);
    ASSERT_GE(dir.z, cos_max - 1e-12);
    sum_z += dir.z;
  }
  // Uniform in solid angle: E[cos] = (1 + cos_max) / 2.
  EXPECT_NEAR(sum_z / n, 0.5 * (1.0 + cos_max), 2e-3);
}

TEST(DivergentSource, CollimatedIsUnchanged) {
  SourceSpec spec;  // half_angle 0
  Source source(spec);
  util::Xoshiro256pp rng(65);
  EXPECT_EQ(source.sample_direction(rng), (util::Vec3{0, 0, 1}));
}

TEST(DivergentSource, ObliqueRaysLoseMoreToSpecularReflection) {
  OpticalProperties p;
  p.mua = 0.05;
  p.mus = 5.0;
  p.g = 0.8;
  p.n = 1.5;

  auto specular_for = [&](double half_angle) {
    KernelConfig config;
    config.medium = homogeneous_semi_infinite(p, 1.0);
    config.source.half_angle_deg = half_angle;
    const Kernel kernel(config);
    SimulationTally tally = kernel.make_tally();
    util::Xoshiro256pp rng(66);
    kernel.run(30000, rng, tally);
    EXPECT_LT(tally.weight_conservation_error(), 1e-6 * 30000);
    return tally.specular_reflectance();
  };
  const double collimated = specular_for(0.0);
  const double wide = specular_for(70.0);
  EXPECT_NEAR(collimated, 0.04, 1e-6);  // exact normal-incidence Fresnel
  EXPECT_GT(wide, collimated);
}

}  // namespace
}  // namespace phodis::mc

namespace phodis::dist {
namespace {

// ---------- DataManager checkpoint/restore ---------------------------------------

TEST(Checkpoint, RoundTripPreservesTasksAndCompletion) {
  DataManager manager(10.0);
  manager.add_task(0, {1, 2, 3});
  manager.add_task(1, {4});
  manager.add_task(2, {});
  manager.lease_next("w", 0.0);
  manager.complete(0, "w", 1.0);
  manager.lease_next("w", 1.0);  // task 1 in flight at checkpoint time

  util::ByteWriter writer;
  manager.checkpoint(writer);

  DataManager restored(10.0);
  util::ByteReader reader(writer.bytes());
  restored.restore(reader);

  EXPECT_EQ(restored.completed_count(), 1u);
  // Task 1 (was in flight) and task 2 (was pending) are pending again.
  EXPECT_EQ(restored.pending_count(), 2u);
  EXPECT_EQ(restored.in_flight_count(), 0u);

  // Completed task 0 is never re-issued.
  std::vector<std::uint64_t> issued;
  while (auto task = restored.lease_next("w2", 2.0)) {
    issued.push_back(task->task_id);
    restored.complete(task->task_id, "w2", 3.0);
  }
  EXPECT_EQ(issued.size(), 2u);
  EXPECT_TRUE(restored.all_done());
}

TEST(Checkpoint, PayloadsSurvive) {
  DataManager manager(10.0);
  manager.add_task(7, {9, 8, 7, 6});
  util::ByteWriter writer;
  manager.checkpoint(writer);
  DataManager restored(10.0);
  util::ByteReader reader(writer.bytes());
  restored.restore(reader);
  auto task = restored.lease_next("w", 0.0);
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->payload, (std::vector<std::uint8_t>{9, 8, 7, 6}));
}

TEST(Checkpoint, RestoreIntoNonEmptyManagerThrows) {
  DataManager source(10.0);
  source.add_task(0, {});
  util::ByteWriter writer;
  source.checkpoint(writer);

  DataManager busy(10.0);
  busy.add_task(5, {});
  util::ByteReader reader(writer.bytes());
  EXPECT_THROW(busy.restore(reader), std::logic_error);
}

TEST(Checkpoint, TruncatedCheckpointThrows) {
  DataManager manager(10.0);
  manager.add_task(0, {1, 2, 3, 4, 5});
  util::ByteWriter writer;
  manager.checkpoint(writer);
  std::vector<std::uint8_t> bytes = writer.bytes();
  bytes.resize(bytes.size() - 3);
  DataManager restored(10.0);
  util::ByteReader reader(bytes);
  EXPECT_THROW(restored.restore(reader), std::out_of_range);
}

TEST(Checkpoint, EmptyManagerRoundTrips) {
  DataManager manager(10.0);
  util::ByteWriter writer;
  manager.checkpoint(writer);
  DataManager restored(10.0);
  util::ByteReader reader(writer.bytes());
  restored.restore(reader);
  EXPECT_TRUE(restored.all_done());
  EXPECT_EQ(restored.pending_count(), 0u);
}

}  // namespace
}  // namespace phodis::dist
