// Steering corrections (Sec. V-A): the tilted plane that adapts the
// on-axis reference delay table to a steered line of sight (theta, phi):
//
//   tp(O,S,D) ~= tp(O,R,D) - (xD cos(phi) sin(theta) + yD sin(phi)) / c
//
// The correction separates into a per-column term (depends on xD, theta,
// phi) and a per-row term (depends on yD, phi). Both are precomputed into
// signed fixed-point (Q13.4 at 18 bits); cos(phi) is even, so x-corrections
// are stored for half the phi range only — giving the paper's
// ex*(n_phi/2)*n_theta + ey*n_phi = 832e3 coefficients.
#ifndef US3D_DELAY_STEERING_H
#define US3D_DELAY_STEERING_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "common/fixed_point.h"
#include "imaging/focal_point.h"
#include "imaging/system_config.h"

namespace us3d::delay {

/// Double-precision steering correction in echo samples (the exact value
/// the coefficients quantize): -(xD cos(phi) sin(theta) + yD sin(phi)) * fs/c.
double steering_correction_samples(const imaging::SystemConfig& config,
                                   double theta, double phi, double element_x,
                                   double element_y);

/// Double-precision steered delay (Eq. 7) in echo samples: exact reference
/// delay for the same radius plus the correction plane. This isolates the
/// *algorithmic* (far-field Taylor) error from fixed-point effects.
double steered_delay_samples(const imaging::SystemConfig& config,
                             const imaging::FocalPoint& fp,
                             const Vec3& element_pos);

/// Precomputed fixed-point correction coefficient set.
class SteeringCorrections {
 public:
  SteeringCorrections(const imaging::SystemConfig& config,
                      const fx::Format& coeff_format = fx::kCorrection18);

  /// Correction contribution of element column ix for line (i_theta, i_phi).
  fx::Value x_correction(int ix, int i_theta, int i_phi) const;
  /// Correction contribution of element row iy for elevation i_phi.
  fx::Value y_correction(int iy, int i_phi) const;

  /// The raw coeff_format words x_correction()/y_correction() wrap, for
  /// raw-word datapaths.
  std::int64_t x_correction_raw(int ix, int i_theta, int i_phi) const {
    return x_raw_[x_index(ix, i_theta, fold_phi(i_phi))];
  }
  std::int64_t y_correction_raw(int iy, int i_phi) const {
    return y_raw_[y_index(iy, i_phi)];
  }

  std::int64_t x_coefficient_count() const;
  std::int64_t y_coefficient_count() const;
  std::int64_t coefficient_count() const;
  double storage_bits() const;

  const fx::Format& coeff_format() const { return format_; }

 private:
  /// Index of |phi| in the folded phi table. The phi grid is symmetric:
  /// i and (n_phi-1-i) share |phi|; index 0 is the largest |phi| (the
  /// build loop's representative).
  int fold_phi(int i_phi) const {
    US3D_EXPECTS(i_phi >= 0 && i_phi < n_phi_);
    return std::min(i_phi, n_phi_ - 1 - i_phi);
  }
  std::size_t x_index(int ix, int i_theta, int i_phi_folded) const {
    US3D_EXPECTS(ix >= 0 && ix < nx_);
    US3D_EXPECTS(i_theta >= 0 && i_theta < n_theta_);
    US3D_EXPECTS(i_phi_folded >= 0 && i_phi_folded < n_phi_folded_);
    return (static_cast<std::size_t>(ix) * static_cast<std::size_t>(n_theta_) +
            static_cast<std::size_t>(i_theta)) *
               static_cast<std::size_t>(n_phi_folded_) +
           static_cast<std::size_t>(i_phi_folded);
  }
  std::size_t y_index(int iy, int i_phi) const {
    US3D_EXPECTS(iy >= 0 && iy < ny_);
    US3D_EXPECTS(i_phi >= 0 && i_phi < n_phi_);
    return static_cast<std::size_t>(iy) * static_cast<std::size_t>(n_phi_) +
           static_cast<std::size_t>(i_phi);
  }

  imaging::SystemConfig config_;
  fx::Format format_;
  int n_theta_ = 0;
  int n_phi_ = 0;
  int n_phi_folded_ = 0;
  int nx_ = 0;
  int ny_ = 0;
  std::vector<std::int32_t> x_raw_;
  std::vector<std::int32_t> y_raw_;
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_STEERING_H
