// Packet-mode (KernelMode::kPacket) test suite:
//
//  * vmath accuracy: the documented ulp/absolute error bounds of vlog and
//    vsincos_2pi, measured against libm / long-double references, for
//    each packet ISA's copy;
//  * packet golden hashes: packet mode pins its OWN tally bytes (it is
//    deliberately not bitwise-equal to scalar), reproducible serially and
//    through the shard plan at every thread count;
//  * ISA dispatch: the AVX2 and AVX-512 builds of the packet loop give
//    byte-identical tallies on every golden configuration, serially and
//    through the shard plan, and the dispatch rule is a pure function of
//    the CPU feature bits. On a CPU without AVX-512 the AVX-512 cases
//    skip, saying so;
//  * lane-compaction edge cases: streams smaller than the packet width,
//    heavy-absorption lane churn, roulette in packet mode;
//  * statistical equivalence: packet and scalar runs of the same
//    configuration agree on the global energy balance within k·sigma
//    (and the checker itself detects genuinely different physics).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/spec.hpp"
#include "exec/parallel.hpp"
#include "exec/threadpool.hpp"
#include "mc/kernel.hpp"
#include "mc/packet_isa.hpp"
#include "mc/packet_kernel.hpp"
#include "mc/presets.hpp"
#include "mc/vmath.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

using namespace phodis;

// --- per-ISA entry points --------------------------------------------------

struct IsaBuild {
  mc::PacketIsa isa;
  void (*vlog)(const double*, double*, std::size_t) noexcept;
  void (*vsincos_2pi)(const double*, double*, double*, std::size_t) noexcept;
  void (*run_packet)(const mc::Kernel&, std::uint64_t, util::Xoshiro256pp&,
                     mc::SimulationTally&);
};

constexpr IsaBuild kIsaBuilds[] = {
    {mc::PacketIsa::kAvx2, &mc::avx2::vlog, &mc::avx2::vsincos_2pi,
     &mc::avx2::run_packet},
    {mc::PacketIsa::kAvx512, &mc::avx512::vlog, &mc::avx512::vsincos_2pi,
     &mc::avx512::run_packet},
};

std::string isa_name(const testing::TestParamInfo<IsaBuild>& info) {
  return mc::to_string(info.param.isa);
}

/// One instance per packet ISA. The AVX2 build is the baseline every
/// supported CPU runs; the AVX-512 instance skips, saying why, on a CPU
/// without it.
class PacketIsaBuild : public testing::TestWithParam<IsaBuild> {
 protected:
  void SetUp() override {
    if (GetParam().isa == mc::PacketIsa::kAvx512 &&
        mc::host_packet_isa() != mc::PacketIsa::kAvx512) {
      GTEST_SKIP() << "this CPU lacks AVX-512 F/DQ/VL, so the AVX-512 "
                      "packet build cannot run here; only the AVX2 build "
                      "was checked";
    }
  }
};

INSTANTIATE_TEST_SUITE_P(EachIsa, PacketIsaBuild,
                         testing::ValuesIn(kIsaBuilds), isa_name);

// --- vmath accuracy ---------------------------------------------------------

double ulp_distance(double reference, double value) {
  if (reference == value) return 0.0;
  const double ulp = std::abs(
      std::nextafter(reference, std::numeric_limits<double>::infinity()) -
      reference);
  return std::abs(reference - value) / ulp;
}

TEST_P(PacketIsaBuild, VlogMatchesStdLogWithinFourUlp) {
  util::Xoshiro256pp rng(7);
  double max_ulp = 0.0;
  constexpr std::size_t kBatch = 64;
  double x[kBatch];
  double out[kBatch];
  for (int rep = 0; rep < 2000; ++rep) {
    for (std::size_t i = 0; i < kBatch; ++i) x[i] = rng.uniform_open0();
    // Include the domain edges and tiny draws in the first batch.
    if (rep == 0) {
      x[0] = 1.0;
      x[1] = 0x1.0p-53;  // smallest uniform_open0() draw
      x[2] = 0.5;
      x[3] = std::nextafter(1.0, 0.0);
    }
    GetParam().vlog(x, out, kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      max_ulp = std::max(max_ulp, ulp_distance(std::log(x[i]), out[i]));
    }
  }
  EXPECT_LE(max_ulp, 4.0);
}

TEST_P(PacketIsaBuild, SincosMatchesLongDoubleWithinTwoPowMinus50) {
  util::Xoshiro256pp rng(11);
  const long double two_pi_l = 2.0L * 3.14159265358979323846264338327950288L;
  double max_err = 0.0;
  constexpr std::size_t kBatch = 64;
  double u[kBatch];
  double s[kBatch];
  double c[kBatch];
  for (int rep = 0; rep < 2000; ++rep) {
    for (std::size_t i = 0; i < kBatch; ++i) u[i] = rng.uniform();
    if (rep == 0) {
      // Quadrant boundaries and their neighbourhoods.
      u[0] = 0.0;
      u[1] = 0.25;
      u[2] = 0.5;
      u[3] = 0.75;
      u[4] = 0.125;
      u[5] = std::nextafter(1.0, 0.0);
      u[6] = std::nextafter(0.25, 0.0);
      u[7] = std::nextafter(0.25, 1.0);
    }
    GetParam().vsincos_2pi(u, s, c, kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const long double a = two_pi_l * static_cast<long double>(u[i]);
      max_err = std::max(
          max_err, std::abs(static_cast<double>(
                       static_cast<long double>(s[i]) - std::sin(a))));
      max_err = std::max(
          max_err, std::abs(static_cast<double>(
                       static_cast<long double>(c[i]) - std::cos(a))));
    }
  }
  EXPECT_LE(max_err, 0x1.0p-50);
  // And the pair is a unit vector to the same tolerance class.
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_NEAR(s[i] * s[i] + c[i] * c[i], 1.0, 1e-14);
  }
}

// --- harness ---------------------------------------------------------------

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

mc::SimulationTally run_tally(const mc::KernelConfig& config,
                              std::uint64_t photons, std::uint64_t seed) {
  const mc::Kernel kernel(config);
  mc::SimulationTally tally = kernel.make_tally();
  util::Xoshiro256pp rng(seed);
  kernel.run(photons, rng, tally);
  return tally;
}

std::uint64_t run_hash(const mc::KernelConfig& config, std::uint64_t photons,
                       std::uint64_t seed = 42) {
  return fnv1a64(run_tally(config, photons, seed).to_bytes());
}

mc::KernelConfig two_layer_packet() {
  mc::KernelConfig config;
  config.medium = mc::two_layer_model();
  config.mode = mc::KernelMode::kPacket;
  return config;
}

// --- packet golden hashes ---------------------------------------------------
//
// Packet mode's own bitwise pin: the SoA loop, the vmath polynomials, the
// fixed three-draw schedule and the long_jump lane sub-streams together
// make these reproducible on any machine, any thread count, any build
// type in the matrix and either packet ISA (the scoped
// -O3/-ffp-contract=off flags on the packet TUs are part of this
// contract). A hash change here means the packet physics stream changed
// and must be an intentional re-record.

struct PacketGoldenCase {
  const char* name;
  mc::KernelConfig config;
  std::uint64_t photons;
  std::uint64_t hash;  ///< fnv1a64 of the tally bytes at seed 42
};

std::vector<PacketGoldenCase> packet_golden_cases() {
  std::vector<PacketGoldenCase> cases;
  cases.push_back({"two_layer", two_layer_packet(), 10'000,
                   0x780496D06EEC2F2FULL});
  {
    mc::KernelConfig config = two_layer_packet();
    config.tally.enable_radial = true;
    config.detector = mc::DetectorSpec{};
    cases.push_back({"two_layer_radial_and_detector", config, 5'000,
                     0x8293DD6AB5EBB754ULL});
  }
  {
    mc::KernelConfig config = two_layer_packet();
    config.tally.enable_fluence_grid = true;
    config.tally.fluence_spec = mc::GridSpec::cube(40, 20.0, 40.0);
    cases.push_back({"two_layer_fluence_grid", config, 5'000,
                     0x75AA1374DE50ED77ULL});
  }
  {
    mc::KernelConfig config;
    config.medium = mc::adult_head_model();
    config.mode = mc::KernelMode::kPacket;
    cases.push_back({"head_model", config, 2'000, 0x0848D6DF2D28B50FULL});
  }
  {
    mc::KernelConfig config;
    config.medium = mc::homogeneous_white_matter();
    config.mode = mc::KernelMode::kPacket;
    config.source.type = mc::SourceType::kGaussian;
    config.source.radius_mm = 1.0;
    config.source.half_angle_deg = 15.0;
    cases.push_back({"white_matter_diverging_gaussian_source", config, 5'000,
                     0x35B4B19AF2EC90EBULL});
  }
  return cases;
}

TEST(PacketGolden, EveryConfigurationMatchesItsRecordedHash) {
  for (const PacketGoldenCase& c : packet_golden_cases()) {
    EXPECT_EQ(run_hash(c.config, c.photons), c.hash) << c.name;
  }
}

TEST(PacketGolden, RunIsSelfReproducible) {
  const mc::KernelConfig config = two_layer_packet();
  EXPECT_EQ(run_tally(config, 4'000, 9).to_bytes(),
            run_tally(config, 4'000, 9).to_bytes());
}

TEST(PacketGolden, ShardPlanMatchesRecordedHashAtEveryThreadCount) {
  const mc::Kernel kernel(two_layer_packet());

  const exec::ParallelKernelRunner serial_runner(kernel, nullptr, 4096);
  const std::vector<std::uint8_t> serial_bytes =
      serial_runner.run(10'000, 42, 0).to_bytes();
  EXPECT_EQ(fnv1a64(serial_bytes), 0x711A72E8CE11073FULL);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    exec::ThreadPool pool(threads);
    const exec::ParallelKernelRunner runner(kernel, &pool, 4096);
    EXPECT_EQ(runner.run(10'000, 42, 0).to_bytes(), serial_bytes)
        << "thread count " << threads;
  }
}

// --- ISA dispatch -----------------------------------------------------------

TEST(PacketIsa, SelectionNeedsAllThreeAvx512FeatureBits) {
  for (const bool f : {false, true}) {
    for (const bool dq : {false, true}) {
      for (const bool vl : {false, true}) {
        EXPECT_EQ(mc::select_packet_isa(f, dq, vl),
                  f && dq && vl ? mc::PacketIsa::kAvx512
                                : mc::PacketIsa::kAvx2)
            << "avx512f=" << f << " avx512dq=" << dq << " avx512vl=" << vl;
      }
    }
  }
  EXPECT_EQ(mc::to_string(mc::PacketIsa::kAvx2), "avx2");
  EXPECT_EQ(mc::to_string(mc::PacketIsa::kAvx512), "avx512");
}

TEST(PacketIsa, ReportsTheDispatchedBuild) {
  // CI runs this case alone before the suite, so the log shows whether
  // the AVX-512 cases below ran or skipped.
  const mc::PacketIsa isa = mc::host_packet_isa();
  std::printf("dispatched packet ISA: %s\n", mc::to_string(isa).c_str());
  __builtin_cpu_init();
  EXPECT_EQ(isa,
            mc::select_packet_isa(__builtin_cpu_supports("avx512f") != 0,
                                  __builtin_cpu_supports("avx512dq") != 0,
                                  __builtin_cpu_supports("avx512vl") != 0));
}

TEST_P(PacketIsaBuild, EntryPointReproducesEveryPacketGolden) {
  // The dispatched loop is pinned to the same hashes above, so equal
  // hashes here mean byte-identical tallies across the builds.
  for (const PacketGoldenCase& c : packet_golden_cases()) {
    const mc::Kernel kernel(c.config);
    mc::SimulationTally tally = kernel.make_tally();
    util::Xoshiro256pp rng(42);
    GetParam().run_packet(kernel, c.photons, rng, tally);
    EXPECT_EQ(fnv1a64(tally.to_bytes()), c.hash) << c.name;
  }
}

TEST_P(PacketIsaBuild, ShardPlanMatchesTheRunnerAtOneAndThreeThreads) {
  // exec::ParallelKernelRunner's shard plan (task 0 of seed 42), every
  // shard run through this build's entry point and merged in order.
  for (const PacketGoldenCase& c : packet_golden_cases()) {
    const mc::Kernel kernel(c.config);
    const std::vector<std::uint64_t> shards =
        exec::shard_plan(c.photons, exec::kDefaultShardPhotons);
    std::vector<util::Xoshiro256pp> streams =
        exec::shard_streams(42, 0, shards.size());
    mc::SimulationTally merged = kernel.make_tally();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      mc::SimulationTally tally = kernel.make_tally();
      GetParam().run_packet(kernel, shards[s], streams[s], tally);
      merged.merge(tally);
    }
    const std::vector<std::uint8_t> bytes = merged.to_bytes();
    for (const std::size_t threads : {1u, 3u}) {
      exec::ThreadPool pool(threads);
      const exec::ParallelKernelRunner runner(kernel, &pool);
      EXPECT_EQ(runner.run(c.photons, 42, 0).to_bytes(), bytes)
          << c.name << ", " << threads << " thread(s)";
    }
  }
}

// --- lane-compaction edge cases --------------------------------------------

TEST(PacketKernel, StreamSmallerThanPacketWidth) {
  for (const std::uint64_t photons : {1ull, 3ull, 7ull}) {
    ASSERT_LT(photons, mc::kPacketWidth);
    const mc::SimulationTally tally =
        run_tally(two_layer_packet(), photons, 5);
    EXPECT_EQ(tally.photons_launched(), photons);
    EXPECT_LT(tally.weight_conservation_error(), 1e-9);
  }
}

TEST(PacketKernel, ZeroPhotonsIsANoOp) {
  const mc::SimulationTally tally = run_tally(two_layer_packet(), 0, 5);
  EXPECT_EQ(tally.photons_launched(), 0u);
}

TEST(PacketKernel, HeavyAbsorptionChurnsLanesThroughRefill) {
  // Nearly pure absorbers die in one or two events, so every lane cycles
  // through many refills (including whole packets dying in the same
  // iteration). The stream must still account for every photon exactly.
  mc::KernelConfig config;
  mc::LayeredMediumBuilder builder;
  builder.add_semi_infinite_layer(
      "absorber", mc::OpticalProperties{/*mua=*/50.0, /*mus=*/0.5,
                                        /*g=*/0.0, /*n=*/1.4});
  config.medium = builder.build();
  config.mode = mc::KernelMode::kPacket;
  const mc::SimulationTally tally = run_tally(config, 1'000, 21);
  EXPECT_EQ(tally.photons_launched(), 1'000u);
  EXPECT_LT(tally.weight_conservation_error(), 1e-9);
  EXPECT_GT(tally.absorbed_fraction(), 0.8);
}

TEST(PacketKernel, RouletteSurvivorsAndTerminationsBalance) {
  // A scattering-dominated slab pushes most packets down to the roulette
  // threshold; conservation holds only if the packet loop plays roulette
  // (and refills terminated lanes) correctly.
  const mc::SimulationTally tally = run_tally(two_layer_packet(), 4'000, 17);
  EXPECT_EQ(tally.photons_launched(), 4'000u);
  EXPECT_LT(tally.weight_conservation_error(), 1e-9);
  // The fraction sum differs from 1 by exactly the net roulette
  // gain-minus-loss, which fluctuates a few parts in 1e6 per run (only
  // its expectation is zero); the conservation identity above is the
  // exact check.
  const double total = tally.specular_reflectance() +
                       tally.diffuse_reflectance() + tally.transmittance() +
                       tally.absorbed_fraction() + tally.lost_fraction();
  EXPECT_NEAR(total, 1.0, 1e-3);
}

TEST(PacketKernel, ZeroWeightLanesAreNeverDetected) {
  // In a pure absorber every interaction deposits the whole weight, and
  // roulette must then end the empty packet in both loops. A zero-weight
  // survivor would fly on and be counted by this full-surface detector;
  // only packets that never interact (Fresnel echo off the bottom face)
  // may reach it.
  mc::KernelConfig config;
  config.medium =
      mc::LayeredMediumBuilder()
          .ambient_above(1.0)
          .ambient_below(1.0)
          .add_layer("absorber",
                     mc::OpticalProperties{/*mua=*/0.5, /*mus=*/0.0,
                                           /*g=*/0.0, /*n=*/1.4},
                     4.0)
          .build();
  mc::DetectorSpec detector;
  detector.separation_mm = 0.0;
  detector.radius_mm = 1000.0;
  config.detector = detector;
  const double scalar =
      static_cast<double>(run_tally(config, 100'000, 3).photons_detected());
  config.mode = mc::KernelMode::kPacket;
  const double packet =
      static_cast<double>(run_tally(config, 100'000, 3).photons_detected());
  EXPECT_LE(std::abs(packet - scalar), 6.0 * std::sqrt(packet + scalar))
      << "packet " << packet << " vs scalar " << scalar;
}

// --- configuration gate -----------------------------------------------------

TEST(PacketKernel, ValidateRejectsUnsupportedConfigurations) {
  {
    mc::KernelConfig config = two_layer_packet();
    config.boundary_model = mc::BoundaryModel::kClassical;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    mc::KernelConfig config = two_layer_packet();
    config.tally.enable_path_grid = true;
    config.tally.path_spec = mc::GridSpec::cube(10, 10.0, 10.0);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    mc::KernelConfig config;
    mc::LayeredMediumBuilder builder;
    builder.add_layer("vacuum",
                      mc::OpticalProperties{0.0, 0.0, 0.0, 1.0}, 5.0);
    builder.add_semi_infinite_layer(
        "tissue", mc::OpticalProperties{0.02, 10.0, 0.9, 1.4});
    config.medium = builder.build();
    config.mode = mc::KernelMode::kPacket;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
}

TEST(PacketKernel, ParseAndToStringRoundTrip) {
  EXPECT_EQ(mc::parse_kernel_mode("scalar"), mc::KernelMode::kScalar);
  EXPECT_EQ(mc::parse_kernel_mode("packet"), mc::KernelMode::kPacket);
  EXPECT_EQ(mc::parse_kernel_mode("SIMD"), mc::KernelMode::kPacket);
  EXPECT_THROW(mc::parse_kernel_mode("vector"), std::invalid_argument);
  EXPECT_EQ(mc::to_string(mc::KernelMode::kScalar), "scalar");
  EXPECT_EQ(mc::to_string(mc::KernelMode::kPacket), "packet");
}

TEST(PacketKernel, SpecRoundTripCarriesKernelMode) {
  core::SimulationSpec spec;
  spec.kernel = two_layer_packet();
  spec.photons = 123;
  spec.seed = 7;
  util::ByteWriter writer;
  spec.serialize(writer);
  const std::vector<std::uint8_t> bytes = writer.take();
  util::ByteReader reader(bytes);
  const core::SimulationSpec decoded = core::SimulationSpec::deserialize(reader);
  EXPECT_EQ(decoded.kernel.mode, mc::KernelMode::kPacket);
}

// --- statistical equivalence vs the scalar oracle ---------------------------

void expect_equivalent(const mc::KernelConfig& scalar_config,
                       std::uint64_t scalar_photons,
                       std::uint64_t packet_photons) {
  mc::KernelConfig packet_config = scalar_config;
  packet_config.mode = mc::KernelMode::kPacket;
  const mc::SimulationTally reference =
      run_tally(scalar_config, scalar_photons, 42);
  const mc::SimulationTally candidate =
      run_tally(packet_config, packet_photons, 43);
  const mc::StatEquivalence eq =
      mc::statistical_equivalence(reference, candidate);
  EXPECT_TRUE(eq.pass) << eq.summary();
}

TEST(PacketStat, TwoLayerWithRadialAndDetectorMatchesScalar) {
  mc::KernelConfig config;
  config.medium = mc::two_layer_model();
  config.tally.enable_radial = true;
  mc::DetectorSpec detector;
  detector.separation_mm = 10.0;
  detector.radius_mm = 3.0;
  config.detector = detector;
  expect_equivalent(config, 20'000, 20'000);
}

TEST(PacketStat, HeadModelMatchesScalar) {
  mc::KernelConfig config;
  config.medium = mc::adult_head_model();
  expect_equivalent(config, 10'000, 10'000);
}

TEST(PacketStat, DivergingGaussianSourceMatchesScalar) {
  mc::KernelConfig config;
  config.medium = mc::homogeneous_white_matter();
  config.source.type = mc::SourceType::kGaussian;
  config.source.radius_mm = 1.0;
  config.source.half_angle_deg = 15.0;
  expect_equivalent(config, 10'000, 10'000);
}

TEST(PacketStat, CheckerFlagsGenuinelyDifferentPhysics) {
  // Negative control: the equivalence criterion must not be vacuous.
  mc::KernelConfig two_layer;
  two_layer.medium = mc::two_layer_model();
  mc::KernelConfig head;
  head.medium = mc::adult_head_model();
  head.mode = mc::KernelMode::kPacket;
  const mc::StatEquivalence eq = mc::statistical_equivalence(
      run_tally(two_layer, 10'000, 42), run_tally(head, 10'000, 43));
  EXPECT_FALSE(eq.pass);
}

TEST(PacketStat, ScalarAgainstItselfPasses) {
  // Positive control at a different seed: pure Monte Carlo noise stays
  // far inside the gate.
  mc::KernelConfig config;
  config.medium = mc::two_layer_model();
  const mc::StatEquivalence eq = mc::statistical_equivalence(
      run_tally(config, 10'000, 1), run_tally(config, 10'000, 2));
  EXPECT_TRUE(eq.pass) << eq.summary();
  EXPECT_LT(eq.max_z, mc::kDefaultStatSigma);
}

}  // namespace
