// Tests for Fresnel boundary physics, the shared interface operators'
// draw contract, and Henyey–Greenstein scattering.
#include <gtest/gtest.h>

#include <cmath>

#include "mc/compiled_medium.hpp"
#include "mc/fresnel.hpp"
#include "mc/interface.hpp"
#include "mc/scatter.hpp"
#include "util/rng.hpp"

namespace phodis::mc {
namespace {

// ---------- fresnel ----------------------------------------------------------

TEST(Fresnel, MatchedBoundaryTransmitsEverything) {
  const FresnelResult r = fresnel(1.4, 1.4, 0.3);
  EXPECT_DOUBLE_EQ(r.reflectance, 0.0);
  EXPECT_DOUBLE_EQ(r.cos_transmit, 0.3);
  EXPECT_FALSE(r.total_internal);
}

TEST(Fresnel, NormalIncidenceMatchesClosedForm) {
  const FresnelResult r = fresnel(1.0, 1.5, 1.0);
  EXPECT_NEAR(r.reflectance, 0.04, 1e-12);  // ((1-1.5)/(1+1.5))^2
  EXPECT_DOUBLE_EQ(r.cos_transmit, 1.0);
}

TEST(Fresnel, GrazingIncidenceFullyReflects) {
  const FresnelResult r = fresnel(1.0, 1.5, 0.0);
  EXPECT_DOUBLE_EQ(r.reflectance, 1.0);
}

TEST(Fresnel, TotalInternalReflectionBeyondCriticalAngle) {
  // n1=1.5 -> n2=1.0: critical angle ~41.8 deg, cos ~0.745.
  const double cos_just_below_critical = 0.70;
  const FresnelResult r = fresnel(1.5, 1.0, cos_just_below_critical);
  EXPECT_TRUE(r.total_internal);
  EXPECT_DOUBLE_EQ(r.reflectance, 1.0);
}

TEST(Fresnel, TransmitsJustInsideCriticalAngle) {
  const double cos_c = critical_cos(1.5, 1.0);
  const FresnelResult r = fresnel(1.5, 1.0, cos_c + 0.01);
  EXPECT_FALSE(r.total_internal);
  EXPECT_LT(r.reflectance, 1.0);
  EXPECT_GT(r.reflectance, 0.0);
}

TEST(Fresnel, CriticalCosValues) {
  EXPECT_DOUBLE_EQ(critical_cos(1.0, 1.5), 0.0);  // no TIR going denser
  const double expected = std::sqrt(1.0 - (1.0 / 1.5) * (1.0 / 1.5));
  EXPECT_NEAR(critical_cos(1.5, 1.0), expected, 1e-12);
}

TEST(Fresnel, ReflectanceIsInUnitInterval) {
  for (double n2 : {1.0, 1.33, 1.4, 1.6}) {
    for (int i = 0; i <= 100; ++i) {
      const double cos_i = i / 100.0;
      const FresnelResult r = fresnel(1.4, n2, cos_i);
      ASSERT_GE(r.reflectance, 0.0);
      ASSERT_LE(r.reflectance, 1.0);
    }
  }
}

TEST(Fresnel, ReflectanceIncreasesTowardGrazing) {
  double prev = fresnel(1.0, 1.4, 1.0).reflectance;
  for (int i = 99; i >= 0; --i) {
    const double r = fresnel(1.0, 1.4, i / 100.0).reflectance;
    ASSERT_GE(r, prev - 1e-12);
    prev = r;
  }
}

TEST(Fresnel, SnellConsistency) {
  // sin_t = n_i sin_i / n_t must match the returned cos_t.
  const double cos_i = 0.8;
  const double sin_i = std::sqrt(1 - cos_i * cos_i);
  const FresnelResult r = fresnel(1.0, 1.5, cos_i);
  const double sin_t = 1.0 * sin_i / 1.5;
  EXPECT_NEAR(r.cos_transmit, std::sqrt(1 - sin_t * sin_t), 1e-12);
}

TEST(Fresnel, ReciprocityAtNormalIncidence) {
  EXPECT_NEAR(fresnel(1.0, 1.4, 1.0).reflectance,
              fresnel(1.4, 1.0, 1.0).reflectance, 1e-12);
}

TEST(Fresnel, SpecularReflectanceHelper) {
  EXPECT_NEAR(specular_reflectance(1.0, 1.4),
              std::pow((1.0 - 1.4) / (1.0 + 1.4), 2), 1e-15);
  EXPECT_DOUBLE_EQ(specular_reflectance(1.4, 1.4), 0.0);
}

TEST(Fresnel, BrewsterAngleHasMinimumBelowNormalReflectance) {
  // At Brewster's angle the p-polarised term vanishes; the unpolarised
  // reflectance there is strictly below the grazing value and above 0.
  const double theta_b = std::atan(1.5 / 1.0);
  const double r_b = fresnel(1.0, 1.5, std::cos(theta_b)).reflectance;
  EXPECT_GT(r_b, 0.0);
  EXPECT_LT(r_b, 0.1);
}

// ---------- Henyey-Greenstein -------------------------------------------------

class HgSweep : public ::testing::TestWithParam<double> {};

TEST_P(HgSweep, MeanCosineEqualsG) {
  const double g = GetParam();
  util::Xoshiro256pp rng(99);
  const int n = 400000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += sample_hg_cosine(g, rng);
  EXPECT_NEAR(sum / n, g, 5e-3);
}

TEST_P(HgSweep, SecondLegendreMomentEqualsGSquared) {
  // HG phase function has Legendre coefficients g^l: <P2(cos)> = g^2.
  const double g = GetParam();
  util::Xoshiro256pp rng(123);
  const int n = 400000;
  double sum_p2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double c = sample_hg_cosine(g, rng);
    sum_p2 += 0.5 * (3.0 * c * c - 1.0);
  }
  EXPECT_NEAR(sum_p2 / n, g * g, 8e-3);
}

TEST_P(HgSweep, SamplesStayInRange) {
  const double g = GetParam();
  util::Xoshiro256pp rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double c = sample_hg_cosine(g, rng);
    ASSERT_GE(c, -1.0);
    ASSERT_LE(c, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AnisotropyValues, HgSweep,
                         ::testing::Values(-0.9, -0.5, 0.0, 0.5, 0.75, 0.9,
                                           0.99));

TEST(Hg, IsotropicLimitIsUniformInCosine) {
  util::Xoshiro256pp rng(55);
  const int n = 200000;
  int below = 0;
  for (int i = 0; i < n; ++i) {
    if (sample_hg_cosine(0.0, rng) < 0.0) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 5e-3);
}

TEST(Hg, PdfIntegratesToOne) {
  for (double g : {0.0, 0.5, 0.9, -0.7}) {
    const int n = 20000;
    double integral = 0.0;
    for (int i = 0; i < n; ++i) {
      const double c = -1.0 + 2.0 * (i + 0.5) / n;
      integral += hg_pdf(g, c) * (2.0 / n);
    }
    EXPECT_NEAR(integral, 1.0, 1e-3) << "g=" << g;
  }
}

TEST(Hg, PdfPeaksForwardForPositiveG) {
  EXPECT_GT(hg_pdf(0.9, 1.0), hg_pdf(0.9, 0.0));
  EXPECT_GT(hg_pdf(0.9, 0.0), hg_pdf(0.9, -1.0));
  EXPECT_GT(hg_pdf(-0.9, -1.0), hg_pdf(-0.9, 1.0));
}

TEST(Hg, SampledDistributionMatchesPdf) {
  // Chi-square of sampled cosines against the *exact* per-bin probability
  // from the analytic HG CDF (bin-centre pdf would bias the sharp forward
  // peak): F(c) = (1-g^2)/(2g) [ (1+g^2-2gc)^-1/2 - (1+g)^-1 ],
  // so F(-1) = 0 and F(1) = 1.
  const double g = 0.75;
  auto cdf = [g](double c) {
    return (1.0 - g * g) / (2.0 * g) *
           (1.0 / std::sqrt(1.0 + g * g - 2.0 * g * c) - 1.0 / (1.0 + g));
  };
  util::Xoshiro256pp rng(31);
  constexpr int kBins = 40;
  constexpr int kSamples = 400000;
  std::vector<int> counts(kBins, 0);
  for (int i = 0; i < kSamples; ++i) {
    const double c = sample_hg_cosine(g, rng);
    int bin = static_cast<int>((c + 1.0) / 2.0 * kBins);
    bin = std::min(bin, kBins - 1);
    ++counts[bin];
  }
  double chi2 = 0.0;
  int dof = 0;
  for (int b = 0; b < kBins; ++b) {
    const double lo = -1.0 + 2.0 * b / static_cast<double>(kBins);
    const double hi = -1.0 + 2.0 * (b + 1) / static_cast<double>(kBins);
    const double expected = (cdf(hi) - cdf(lo)) * kSamples;
    if (expected < 10.0) continue;  // skip near-empty backward bins
    const double d = counts[b] - expected;
    chi2 += d * d / expected;
    ++dof;
  }
  // chi2 ~ dof +- sqrt(2 dof); accept within ~5 sigma.
  EXPECT_LT(chi2, dof + 5.0 * std::sqrt(2.0 * dof));
}

// ---------- interface operators: draw contract ------------------------------
//
// Both loops' golden hashes depend on exactly when cross_interface and
// survive_roulette draw: never on total internal reflection (either test)
// or a classical exterior split, exactly once everywhere else.

/// Rng stub: returns a fixed value and counts the draws.
struct CountingRng {
  double value = 0.0;
  int draws = 0;
  double uniform() {
    ++draws;
    return value;
  }
};

/// Layer 0 (n 1.4) over layer 1 (n 1.33), 1 mm each, air on both sides.
CompiledMedium two_slab() {
  return CompiledMedium(
      LayeredMediumBuilder()
          .add_layer("upper", OpticalProperties{0.1, 10.0, 0.9, 1.4}, 1.0)
          .add_layer("lower", OpticalProperties{0.1, 10.0, 0.9, 1.33}, 1.0)
          .build());
}

/// One cross_interface call from `layer` with direction cosine `uz` (and
/// the tangential part along x); returns the outcome and the draw count.
struct CrossCall {
  Crossing crossing;
  int draws;
  std::size_t layer;
  util::Vec3 dir;
  double weight;
};

CrossCall cross(std::size_t layer, double uz, bool classical, double u) {
  const CompiledMedium medium = two_slab();
  CountingRng rng{u};
  util::Vec3 dir{std::sqrt(1.0 - uz * uz), 0.0, uz};
  double weight = 1.0;
  const Crossing c =
      cross_interface(medium, layer, dir, weight, classical, rng);
  return {c, rng.draws, layer, dir, weight};
}

TEST(InterfaceDraws, OneCompareTirDrawsNothing) {
  const double cos_i = 0.3;  // far beyond 1.4 -> 1.0 critical (cos ~0.70)
  ASSERT_LE(cos_i, two_slab().tir_cos(0, 0));
  for (const bool classical : {false, true}) {
    const CrossCall c = cross(0, -cos_i, classical, 0.0);
    EXPECT_EQ(c.draws, 0);
    EXPECT_EQ(c.crossing.kind, Crossing::kReflected);
    EXPECT_DOUBLE_EQ(c.dir.z, cos_i);
  }
}

TEST(InterfaceDraws, FresnelTotalInternalDrawsNothing) {
  // Inside the one-compare margin: only fresnel() can call this TIR.
  const double cos_i = critical_cos(1.4, 1.0) - 0.5 * kTirCosMargin;
  ASSERT_GT(cos_i, two_slab().tir_cos(0, 0));
  ASSERT_TRUE(fresnel(1.4, 1.0, cos_i).total_internal);
  for (const bool classical : {false, true}) {
    const CrossCall c = cross(0, -cos_i, classical, 0.0);
    EXPECT_EQ(c.draws, 0);
    EXPECT_EQ(c.crossing.kind, Crossing::kReflected);
  }
}

TEST(InterfaceDraws, ClassicalExteriorSplitDrawsNothing) {
  const double r = specular_reflectance(1.4, 1.0);
  for (const auto& [layer, uz] : {std::pair<std::size_t, double>{0, -1.0},
                                  std::pair<std::size_t, double>{1, 1.0}}) {
    const CrossCall c = cross(layer, uz, /*classical=*/true, 0.0);
    EXPECT_EQ(c.draws, 0);
    EXPECT_EQ(c.crossing.kind, Crossing::kSplit);
    EXPECT_DOUBLE_EQ(c.dir.z, -uz);
    EXPECT_NEAR(c.weight, layer == 0 ? r : specular_reflectance(1.33, 1.0),
                1e-15);
    EXPECT_DOUBLE_EQ(c.crossing.escaped + c.weight, 1.0);
  }
}

TEST(InterfaceDraws, EveryOtherCrossingDrawsOnce) {
  // u = 0 always reflects (R > 0 on every path here); u ~ 1 transmits
  // unless R = 1 (the grazing case).
  const double just_below_one = std::nextafter(1.0, 0.0);
  struct Case {
    std::size_t layer;
    double uz;
    bool classical;
    double u;
    Crossing::Kind kind;
  };
  const Case cases[] = {
      {0, -1.0, false, 0.0, Crossing::kReflected},            // top, reflect
      {0, -1.0, false, just_below_one, Crossing::kEscaped},   // top, escape
      {1, 1.0, false, just_below_one, Crossing::kEscaped},    // bottom escape
      {0, 0.8, false, 0.0, Crossing::kReflected},             // interior
      {0, 0.8, false, just_below_one, Crossing::kRefracted},  // interior
      {0, 0.8, true, 0.0, Crossing::kReflected},              // classical
      {1, -0.8, true, just_below_one, Crossing::kRefracted},  // interior
      {0, 1e-13, false, just_below_one, Crossing::kReflected},  // grazing
  };
  for (const Case& k : cases) {
    const CrossCall c = cross(k.layer, k.uz, k.classical, k.u);
    EXPECT_EQ(c.draws, 1) << "layer " << k.layer << " uz " << k.uz;
    EXPECT_EQ(c.crossing.kind, k.kind) << "layer " << k.layer << " uz "
                                       << k.uz;
    if (k.kind == Crossing::kEscaped) {
      EXPECT_DOUBLE_EQ(c.crossing.escaped, 1.0);
    }
    if (k.kind == Crossing::kRefracted) {
      EXPECT_EQ(c.layer, k.uz > 0.0 ? k.layer + 1 : k.layer - 1);
      EXPECT_NEAR(c.dir.norm(), 1.0, 1e-12);
    }
  }
}

TEST(InterfaceDraws, SurviveRouletteDrawsOnce) {
  TallyConfig config;
  SimulationTally tally(config);
  const RouletteSpec spec;  // survive iff u * 10 < 1
  struct Case {
    double weight;
    double u;
    bool survives;
  };
  for (const Case& k : {Case{1e-5, 0.05, true}, Case{1e-5, 0.5, false},
                        Case{0.0, 0.05, false}}) {
    CountingRng rng{k.u};
    double weight = k.weight;
    EXPECT_EQ(survive_roulette(weight, spec, tally, rng), k.survives);
    EXPECT_EQ(rng.draws, 1);
    EXPECT_DOUBLE_EQ(weight, k.survives ? k.weight * 10.0 : k.weight);
  }
}

// ---------- deflect ----------------------------------------------------------

TEST(Deflect, PreservesUnitNorm) {
  util::Xoshiro256pp rng(12);
  util::Vec3 dir{0.0, 0.0, 1.0};
  for (int i = 0; i < 10000; ++i) {
    dir = scatter_direction(dir, 0.9, rng);
    ASSERT_NEAR(dir.norm(), 1.0, 1e-9);
  }
}

TEST(Deflect, RealisesRequestedPolarAngle) {
  util::Xoshiro256pp rng(13);
  const util::Vec3 dir = util::Vec3{0.2, -0.4, 0.6}.normalized();
  for (double cos_theta : {-0.9, -0.3, 0.0, 0.4, 0.95}) {
    for (int i = 0; i < 100; ++i) {
      const util::Vec3 out = deflect(dir, cos_theta, rng);
      ASSERT_NEAR(out.dot(dir), cos_theta, 1e-9);
    }
  }
}

TEST(Deflect, HandlesAxisAlignedDirections) {
  util::Xoshiro256pp rng(14);
  for (const util::Vec3 axis :
       {util::Vec3{0, 0, 1}, util::Vec3{0, 0, -1}}) {
    const util::Vec3 out = deflect(axis, 0.5, rng);
    EXPECT_NEAR(out.dot(axis), 0.5, 1e-12);
    EXPECT_NEAR(out.norm(), 1.0, 1e-12);
  }
}

TEST(Deflect, AzimuthIsUniform) {
  // Scatter from +z with fixed polar angle; the resulting x-y azimuth
  // should be uniform: mean x and y both ~0.
  util::Xoshiro256pp rng(15);
  const int n = 200000;
  double sx = 0.0;
  double sy = 0.0;
  for (int i = 0; i < n; ++i) {
    const util::Vec3 out = deflect({0, 0, 1}, 0.2, rng);
    sx += out.x;
    sy += out.y;
  }
  EXPECT_NEAR(sx / n, 0.0, 5e-3);
  EXPECT_NEAR(sy / n, 0.0, 5e-3);
}

}  // namespace
}  // namespace phodis::mc
