#include "mc/compiled_medium.hpp"

#include <cmath>
#include <limits>

#include "mc/fresnel.hpp"

namespace phodis::mc {

CompiledMedium::CompiledMedium(const LayeredMedium& medium) {
  const std::size_t count = medium.layer_count();
  z0_.reserve(count);
  z1_.reserve(count);
  n_.reserve(count);
  mut_.reserve(count);
  inv_mut_.reserve(count);
  mua_.reserve(count);
  afrac_.reserve(count);
  g_.reserve(count);
  n_t_.reserve(2 * count);
  n_ratio_.reserve(2 * count);
  tir_cos_.reserve(2 * count);
  exterior_.reserve(2 * count);

  n_above_ = medium.n_above();
  for (std::size_t i = 0; i < count; ++i) {
    const Layer& layer = medium.layer_unchecked(i);
    z0_.push_back(layer.z0);
    z1_.push_back(layer.z1);
    n_.push_back(layer.props.n);
    mut_.push_back(layer.props.mut());
    inv_mut_.push_back(layer.props.mut() > 0.0
                           ? 1.0 / layer.props.mut()
                           : std::numeric_limits<double>::infinity());
    mua_.push_back(layer.props.mua);
    afrac_.push_back(layer.props.mut() > 0.0
                         ? layer.props.mua / layer.props.mut()
                         : 0.0);
    g_.push_back(layer.props.g);

    for (int d = 0; d < 2; ++d) {
      const bool downward = d == 1;
      const double n_t = medium.neighbour_index(i, downward);
      n_t_.push_back(n_t);
      n_ratio_.push_back(layer.props.n / n_t);
      if (layer.props.n > n_t) {
        tir_cos_.push_back(critical_cos(layer.props.n, n_t) - kTirCosMargin);
      } else {
        tir_cos_.push_back(-1.0);  // no critical angle: compare never passes
      }
      const bool exterior =
          downward ? (i + 1 == count && std::isfinite(layer.z1)) : (i == 0);
      exterior_.push_back(exterior ? 1 : 0);
    }
  }
  if (count > 0) {
    entry_scale_ = n_above_ / n_[0];
  }
}

}  // namespace phodis::mc
