#include "delay/steering.h"

#include <cmath>

#include "common/contracts.h"
#include "delay/exact.h"
#include "imaging/volume.h"
#include "probe/transducer.h"

namespace us3d::delay {

double steering_correction_samples(const imaging::SystemConfig& config,
                                   double theta, double phi, double element_x,
                                   double element_y) {
  const double correction_s =
      -(element_x * std::cos(phi) * std::sin(theta) +
        element_y * std::sin(phi)) /
      config.speed_of_sound;
  return config.seconds_to_samples(correction_s);
}

double steered_delay_samples(const imaging::SystemConfig& config,
                             const imaging::FocalPoint& fp,
                             const Vec3& element_pos) {
  // Reference point R on the Z axis at the same radius (Eq. 4).
  const Vec3 r{0.0, 0.0, fp.radius};
  const double t_ref = config.seconds_to_samples(
      two_way_delay_s(Vec3{}, r, element_pos, config.speed_of_sound));
  return t_ref + steering_correction_samples(config, fp.theta, fp.phi,
                                             element_pos.x, element_pos.y);
}

SteeringCorrections::SteeringCorrections(const imaging::SystemConfig& config,
                                         const fx::Format& coeff_format)
    : config_(config), format_(coeff_format) {
  const probe::MatrixProbe probe(config.probe);
  const imaging::VolumeGrid grid(config.volume);
  n_theta_ = config.volume.n_theta;
  n_phi_ = config.volume.n_phi;
  n_phi_folded_ = (n_phi_ + 1) / 2;
  nx_ = probe.elements_x();
  ny_ = probe.elements_y();

  const double k = config.sampling_frequency_hz / config.speed_of_sound;

  // x corrections: -xD * cos(phi) * sin(theta) * fs/c, folded over |phi|.
  x_raw_.resize(static_cast<std::size_t>(nx_) *
                static_cast<std::size_t>(n_theta_) *
                static_cast<std::size_t>(n_phi_folded_));
  for (int ix = 0; ix < nx_; ++ix) {
    const double ex = probe.column_x(ix);
    for (int it = 0; it < n_theta_; ++it) {
      const double sin_theta = std::sin(grid.theta(it));
      for (int ip = 0; ip < n_phi_folded_; ++ip) {
        // Representative phi for the folded index: the non-negative one.
        const double cos_phi = std::cos(grid.phi(n_phi_ - 1 - ip));
        const double corr = -ex * cos_phi * sin_theta * k;
        x_raw_[x_index(ix, it, ip)] = static_cast<std::int32_t>(
            fx::Value::from_real(corr, format_).raw());
      }
    }
  }

  // y corrections: -yD * sin(phi) * fs/c, one per (row, phi).
  y_raw_.resize(static_cast<std::size_t>(ny_) *
                static_cast<std::size_t>(n_phi_));
  for (int iy = 0; iy < ny_; ++iy) {
    const double ey = probe.row_y(iy);
    for (int ip = 0; ip < n_phi_; ++ip) {
      const double corr = -ey * std::sin(grid.phi(ip)) * k;
      y_raw_[y_index(iy, ip)] = static_cast<std::int32_t>(
          fx::Value::from_real(corr, format_).raw());
    }
  }
}

fx::Value SteeringCorrections::x_correction(int ix, int i_theta,
                                            int i_phi) const {
  return fx::Value::from_raw(x_raw_[x_index(ix, i_theta, fold_phi(i_phi))],
                             format_);
}

fx::Value SteeringCorrections::y_correction(int iy, int i_phi) const {
  return fx::Value::from_raw(y_raw_[y_index(iy, i_phi)], format_);
}

std::int64_t SteeringCorrections::x_coefficient_count() const {
  return static_cast<std::int64_t>(x_raw_.size());
}

std::int64_t SteeringCorrections::y_coefficient_count() const {
  return static_cast<std::int64_t>(y_raw_.size());
}

std::int64_t SteeringCorrections::coefficient_count() const {
  return x_coefficient_count() + y_coefficient_count();
}

double SteeringCorrections::storage_bits() const {
  return static_cast<double>(coefficient_count()) * format_.total_bits();
}

}  // namespace us3d::delay
