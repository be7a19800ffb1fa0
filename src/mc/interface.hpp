// The lane-local photon physics of Fig. 1 that both photon loops run:
// entry at the surface, a medium change, an exit through the detector
// surface, and roulette. Each loop keeps its own step/geometry/scattering.
//
// Draw contract (pinned by tests/test_fresnel_scatter.cpp): an operator
// that needs randomness calls rng.uniform() at most once, where the scalar
// reference always drew. cross_interface draws nothing on total internal
// reflection or a classical exterior split and once on every other path;
// survive_roulette draws once. The scalar loop passes its Xoshiro256pp,
// the packet loop lane adapters, so each keeps its own golden hashes.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "mc/compiled_medium.hpp"
#include "mc/detector.hpp"
#include "mc/fresnel.hpp"
#include "mc/photon.hpp"
#include "mc/radial.hpp"
#include "mc/roulette.hpp"
#include "mc/tally.hpp"
#include "util/fastmath.hpp"
#include "util/vec3.hpp"

namespace phodis::mc {

/// "initialise photon": specular loss and Snell refraction into layer 0.
/// Returns false (fate kReflectedSpecular) when the packet never enters.
inline bool enter_tissue(PhotonPacket& photon, const CompiledMedium& medium,
                         SimulationTally& tally) noexcept {
  const FresnelResult entry =
      fresnel(medium.n_above(), medium.n(0), photon.dir.z);
  tally.add_specular(photon.weight * entry.reflectance);
  photon.weight *= 1.0 - entry.reflectance;
  if (entry.total_internal || photon.weight <= 0.0) {
    photon.fate = PhotonFate::kReflectedSpecular;
    return false;
  }
  photon.dir.x *= medium.entry_scale();
  photon.dir.y *= medium.entry_scale();
  photon.dir.z = entry.cos_transmit;
  photon.dir = photon.dir.normalized();
  return true;
}

/// What cross_interface did with the packet.
struct Crossing {
  enum Kind : std::uint8_t {
    kReflected,  ///< mirrored in z, same layer
    kRefracted,  ///< entered the adjacent layer (`layer` was updated)
    kSplit,      ///< classical split: `escaped` left, the rest reflected
    kEscaped,    ///< the packet left the tissue carrying `escaped`
  };
  Kind kind = kReflected;
  double escaped = 0.0;  ///< weight that left through the interface
};

/// "if (changed medium)": at the face of `layer` that dir.z heads for,
/// internally reflect, refract, or leave (scored by score_exit_*).
template <class Rng>
Crossing cross_interface(const CompiledMedium& medium, std::size_t& layer,
                         util::Vec3& dir, double& weight, bool classical,
                         Rng& rng) {
  const bool downward = dir.z > 0.0;
  const int d = downward ? 1 : 0;
  const double cos_i = std::abs(dir.z);
  // One-compare TIR: provably beyond the critical angle, no Fresnel sqrt.
  if (cos_i >= kFresnelGrazeEps && cos_i <= medium.tir_cos(layer, d)) {
    dir.z = -dir.z;
    return {};
  }
  const FresnelResult fr =
      fresnel(medium.n(layer), medium.neighbour_n(layer, d), cos_i);
  const bool exterior = medium.exterior(layer, d);
  if (fr.total_internal) {
    dir.z = -dir.z;
    return {};
  }
  if (exterior && classical) {
    // Deterministic split: (1-R)·W escapes now, R·W reflects and goes on.
    Crossing out;
    const double transmitted = weight * (1.0 - fr.reflectance);
    if (transmitted > 0.0) {
      weight -= transmitted;
      out = {weight <= 0.0 ? Crossing::kEscaped : Crossing::kSplit,
             transmitted};
    }
    dir.z = -dir.z;
    return out;
  }
  // The whole packet reflects with probability R (interior interfaces do
  // this in both boundary models: one packet cannot fork).
  if (rng.uniform() < fr.reflectance) {
    dir.z = -dir.z;
    return {};
  }
  if (exterior) return {Crossing::kEscaped, weight};
  const double scale = medium.n_ratio(layer, d);  // Snell: n_i/n_t
  dir.x *= scale;
  dir.y *= scale;
  dir.z = downward ? fr.cos_transmit : -fr.cos_transmit;
  dir = dir.normalized();
  layer = downward ? layer + 1 : layer - 1;
  return {Crossing::kRefracted, 0.0};
}

/// Diffuse reflectance of `weight` leaving the top surface at `pos`, and
/// "if (photon passed through detector) save path": returns detected.
inline bool score_exit_top(const util::Vec3& pos, double optical_pathlength,
                           std::uint32_t scatter_events, double weight,
                           const DetectorSpec* detector,
                           SimulationTally& tally,
                           RadialTally* radial) noexcept {
  tally.add_diffuse_reflectance(weight);
  if (radial) {
    radial->score_reflectance(util::fast_radius(pos.x, pos.y), weight);
  }
  if (detector && detector->accepts(pos, optical_pathlength)) {
    tally.record_detection(weight, optical_pathlength, scatter_events);
    return true;
  }
  return false;
}

/// Transmittance of `weight` leaving the bottom face at `pos`.
inline void score_exit_bottom(const util::Vec3& pos, double weight,
                              SimulationTally& tally,
                              RadialTally* radial) noexcept {
  tally.add_transmittance(weight);
  if (radial) {
    radial->score_transmittance(util::fast_radius(pos.x, pos.y), weight);
  }
}

/// "survive roulette", tallying the weight gained or lost. Returns false
/// when the packet dies; a zero-weight survivor dies too, so an empty
/// packet can never go on to be detected.
template <class Rng>
bool survive_roulette(double& weight, const RouletteSpec& spec,
                      SimulationTally& tally, Rng& rng) {
  const double before = weight;
  const double after = play_roulette(before, spec, rng);
  if (after == 0.0) {
    tally.add_roulette_loss(before);
    return false;
  }
  tally.add_roulette_gain(after - before);
  weight = after;
  return true;
}

}  // namespace phodis::mc
