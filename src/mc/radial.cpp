#include "mc/radial.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace phodis::mc {

void RadialSpec::validate() const {
  if (!(r_max_mm > 0.0) || !(z_max_mm > 0.0)) {
    throw std::invalid_argument("RadialSpec: extents must be > 0");
  }
  if (!std::isfinite(r_max_mm) || !std::isfinite(z_max_mm)) {
    throw std::invalid_argument("RadialSpec: extents must be finite");
  }
  if (nr == 0 || nz == 0) {
    throw std::invalid_argument("RadialSpec: need >= 1 bin per axis");
  }
  if (!flat_bins_fit(nr, nz)) {
    throw std::invalid_argument("RadialSpec: tally too large");
  }
}

void RadialSpec::serialize(util::ByteWriter& writer) const {
  writer.f64(r_max_mm);
  writer.u64(nr);
  writer.f64(z_max_mm);
  writer.u64(nz);
}

RadialSpec RadialSpec::deserialize(util::ByteReader& reader) {
  RadialSpec spec;
  spec.r_max_mm = reader.f64();
  spec.nr = static_cast<std::size_t>(reader.u64());
  spec.z_max_mm = reader.f64();
  spec.nz = static_cast<std::size_t>(reader.u64());
  spec.validate();
  return spec;
}

RadialTally::RadialTally(const RadialSpec& spec) : spec_(spec) {
  spec_.validate();  // before sizing the bins from the counts
  rd_.assign(spec_.nr, 0.0);
  tt_.assign(spec_.nr, 0.0);
  arz_.assign(spec_.nr * spec_.nz, 0.0);
  r_axis_ = BinAxis(0.0, spec_.r_max_mm, spec_.nr);
  z_axis_ = BinAxis(0.0, spec_.z_max_mm, spec_.nz);
}

double RadialTally::reflectance_weight(std::size_t ir) const {
  return rd_.at(ir);
}
double RadialTally::transmittance_weight(std::size_t ir) const {
  return tt_.at(ir);
}
double RadialTally::absorption_weight(std::size_t ir, std::size_t iz) const {
  if (ir >= spec_.nr || iz >= spec_.nz) {
    throw std::out_of_range("RadialTally::absorption_weight");
  }
  return arz_[iz * spec_.nr + ir];
}

double RadialTally::r_center(std::size_t ir) const noexcept {
  return (static_cast<double>(ir) + 0.5) / r_axis_.inv_width();
}

double RadialTally::z_center(std::size_t iz) const noexcept {
  return (static_cast<double>(iz) + 0.5) / z_axis_.inv_width();
}

double RadialTally::annulus_area_mm2(std::size_t ir) const noexcept {
  const double dr = 1.0 / r_axis_.inv_width();
  const double r_lo = static_cast<double>(ir) * dr;
  const double r_hi = r_lo + dr;
  return std::numbers::pi * (r_hi * r_hi - r_lo * r_lo);
}

double RadialTally::ring_volume_mm3(std::size_t ir) const noexcept {
  return annulus_area_mm2(ir) / z_axis_.inv_width();
}

double RadialTally::reflectance_per_area(
    std::size_t ir, std::uint64_t photons_launched) const {
  if (photons_launched == 0) return 0.0;
  return reflectance_weight(ir) /
         (annulus_area_mm2(ir) * static_cast<double>(photons_launched));
}

double RadialTally::absorption_density(std::size_t ir, std::size_t iz,
                                       std::uint64_t photons_launched) const {
  if (photons_launched == 0) return 0.0;
  return absorption_weight(ir, iz) /
         (ring_volume_mm3(ir) * static_cast<double>(photons_launched));
}

double RadialTally::total_reflectance() const noexcept {
  double total = rd_overflow_;
  for (double w : rd_) total += w;
  return total;
}

double RadialTally::total_absorption() const noexcept {
  double total = a_overflow_;
  for (double w : arz_) total += w;
  return total;
}

void RadialTally::merge(const RadialTally& other) {
  if (!(other.spec_ == spec_)) {
    throw std::invalid_argument("RadialTally::merge: spec mismatch");
  }
  for (std::size_t i = 0; i < rd_.size(); ++i) rd_[i] += other.rd_[i];
  for (std::size_t i = 0; i < tt_.size(); ++i) tt_[i] += other.tt_[i];
  for (std::size_t i = 0; i < arz_.size(); ++i) arz_[i] += other.arz_[i];
  rd_overflow_ += other.rd_overflow_;
  tt_overflow_ += other.tt_overflow_;
  a_overflow_ += other.a_overflow_;
}

void RadialTally::serialize(util::ByteWriter& writer) const {
  spec_.serialize(writer);
  writer.f64_vec(rd_);
  writer.f64_vec(tt_);
  writer.f64_vec(arz_);
  writer.f64(rd_overflow_);
  writer.f64(tt_overflow_);
  writer.f64(a_overflow_);
}

RadialTally RadialTally::deserialize(util::ByteReader& reader) {
  RadialTally tally(RadialSpec::deserialize(reader));
  tally.rd_ = reader.f64_vec();
  tally.tt_ = reader.f64_vec();
  tally.arz_ = reader.f64_vec();
  if (tally.rd_.size() != tally.spec_.nr ||
      tally.tt_.size() != tally.spec_.nr ||
      tally.arz_.size() != tally.spec_.nr * tally.spec_.nz) {
    throw std::invalid_argument("RadialTally: payload shape mismatch");
  }
  tally.rd_overflow_ = reader.f64();
  tally.tt_overflow_ = reader.f64();
  tally.a_overflow_ = reader.f64();
  return tally;
}

}  // namespace phodis::mc
