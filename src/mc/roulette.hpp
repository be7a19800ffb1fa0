// Russian roulette — the unbiased termination rule of the paper's Fig. 1
// ("if (weight too small) survive roulette"). A packet whose weight drops
// below `threshold` survives with probability 1/m carrying weight m·w,
// otherwise dies; the expected weight is preserved exactly.
#pragma once

#include <stdexcept>

namespace phodis::mc {

struct RouletteSpec {
  double threshold = 1e-4;  ///< weight below which roulette is played
  double survival_multiplier = 10.0;  ///< m: survivor weight scale (= 1/p)

  void validate() const {
    if (!(threshold > 0.0) || threshold >= 1.0) {
      throw std::invalid_argument("RouletteSpec: threshold must be in (0,1)");
    }
    if (!(survival_multiplier > 1.0)) {
      throw std::invalid_argument(
          "RouletteSpec: survival multiplier must be > 1");
    }
  }
};

/// Play roulette on `weight` with one rng.uniform() draw. Returns the
/// post-roulette weight: either weight * m (survived) or 0 (terminated).
/// Callers must treat a zero return as packet death.
template <class Rng>
double play_roulette(double weight, const RouletteSpec& spec, Rng& rng) {
  if (rng.uniform() * spec.survival_multiplier < 1.0) {
    return weight * spec.survival_multiplier;
  }
  return 0.0;
}

}  // namespace phodis::mc
