// The result of a (partial) simulation: weight totals per photon fate,
// per-layer absorption, pathlength/depth histograms, and the optional
// scoring grids. Tallies are the unit the distributed platform moves
// around — a worker returns one per task and the DataManager merges them —
// so SimulationTally is mergeable, byte-serialisable, and keeps an exact
// energy-conservation ledger (see `weight_conservation_error`).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mc/grid.hpp"
#include "mc/radial.hpp"
#include "util/bytes.hpp"
#include "util/histogram.hpp"

namespace phodis::mc {

struct TallyConfig {
  std::size_t layer_count = 1;

  // Detected-photon pathlength histogram (differential pathlengths).
  double pathlength_max_mm = 2000.0;
  std::size_t pathlength_bins = 200;

  // Maximum-depth histogram over all photons (penetration-depth profile).
  double depth_max_mm = 50.0;
  std::size_t depth_bins = 100;

  // Optional grids.
  bool enable_fluence_grid = false;  ///< all-photon absorption density
  GridSpec fluence_spec;
  bool enable_path_grid = false;  ///< detected-photon path visits (banana)
  GridSpec path_spec;

  /// Cylindrical (r,z) tallies: R(rho), T(rho), A(r,z) — converge much
  /// faster than the 3-D grids for rotationally-symmetric sources.
  bool enable_radial = false;
  RadialSpec radial_spec;

  bool operator==(const TallyConfig&) const = default;

  void serialize(util::ByteWriter& writer) const;
  static TallyConfig deserialize(util::ByteReader& reader);
};

class SimulationTally {
 public:
  explicit SimulationTally(const TallyConfig& config);

  // --- accumulation (called by the kernel) ---------------------------------
  void count_launch() noexcept { ++photons_launched_; }
  void add_specular(double w) noexcept { specular_ += w; }
  void add_diffuse_reflectance(double w) noexcept { diffuse_reflectance_ += w; }
  void add_transmittance(double w) noexcept { transmittance_ += w; }
  /// Inline: runs once per interaction on the kernel hot path.
  void add_absorption(std::size_t layer, double w) noexcept {
    if (layer < layer_absorption_.size()) layer_absorption_[layer] += w;
  }
  void add_lost(double w) noexcept { lost_ += w; }
  void add_roulette_gain(double w) noexcept { roulette_gain_ += w; }
  void add_roulette_loss(double w) noexcept { roulette_loss_ += w; }
  void record_detection(double weight, double optical_pathlength_mm,
                        std::uint32_t scatter_events) noexcept;
  void record_max_depth(double depth_mm, double weight) noexcept;

  VoxelGrid3D* fluence_grid() noexcept;
  VoxelGrid3D* path_grid() noexcept;
  const VoxelGrid3D* fluence_grid() const noexcept;
  const VoxelGrid3D* path_grid() const noexcept;
  RadialTally* radial() noexcept;
  const RadialTally* radial() const noexcept;

  // --- results --------------------------------------------------------------
  std::uint64_t photons_launched() const noexcept { return photons_launched_; }
  std::uint64_t photons_detected() const noexcept { return detected_count_; }

  /// Fractions of launched weight (each in [0,1] once photons were run).
  double specular_reflectance() const noexcept;
  double diffuse_reflectance() const noexcept;
  double transmittance() const noexcept;
  double absorbed_fraction() const noexcept;
  double detected_fraction() const noexcept;
  double lost_fraction() const noexcept;

  double absorbed_weight(std::size_t layer) const;
  const std::vector<double>& layer_absorption() const noexcept {
    return layer_absorption_;
  }

  /// Mean optical pathlength of detected photons [mm] (the differential
  /// pathlength of NIRS); 0 when nothing was detected.
  double mean_detected_pathlength() const noexcept;
  double mean_detected_scatter_events() const noexcept;
  double total_detected_weight() const noexcept { return detected_weight_; }

  const util::Histogram& pathlength_histogram() const noexcept {
    return pathlength_hist_;
  }
  const util::Histogram& depth_histogram() const noexcept {
    return depth_hist_;
  }

  /// |launched + roulette_gain − roulette_loss − (all sinks)|.
  /// Exactly zero up to floating-point rounding: the kernel never creates
  /// or destroys weight outside the terms of this ledger.
  double weight_conservation_error() const noexcept;

  // --- distribution plumbing -------------------------------------------------
  void merge(const SimulationTally& other);
  void serialize(util::ByteWriter& writer) const;
  static SimulationTally deserialize(util::ByteReader& reader);
  /// serialize() into a fresh buffer — the byte string the platform
  /// ships and the bitwise-identity checks compare.
  std::vector<std::uint8_t> to_bytes() const;

  const TallyConfig& config() const noexcept { return config_; }

 private:
  double fraction(double w) const noexcept;

  TallyConfig config_;
  std::uint64_t photons_launched_ = 0;
  std::uint64_t detected_count_ = 0;
  double specular_ = 0.0;
  double diffuse_reflectance_ = 0.0;
  double transmittance_ = 0.0;
  double lost_ = 0.0;
  double detected_weight_ = 0.0;
  double detected_pathlength_weighted_ = 0.0;
  double detected_scatters_weighted_ = 0.0;
  double roulette_gain_ = 0.0;
  double roulette_loss_ = 0.0;
  std::vector<double> layer_absorption_;
  util::Histogram pathlength_hist_;
  util::Histogram depth_hist_;
  std::optional<VoxelGrid3D> fluence_;
  std::optional<VoxelGrid3D> path_visits_;
  std::optional<RadialTally> radial_;
};

}  // namespace phodis::mc
