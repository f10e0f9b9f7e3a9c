#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace us3d {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::mean() const { return n_ ? mean_ : 0.0; }

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ ? min_ : 0.0; }

double RunningStats::max() const { return n_ ? max_ : 0.0; }

void AbsErrorStats::add(double error) {
  const double a = std::abs(error);
  stats_.add(a);
  sum_sq_ += a * a;
  if (a > threshold_) ++exceeding_;
}

double AbsErrorStats::rms() const {
  return count() ? std::sqrt(sum_sq_ / static_cast<double>(count())) : 0.0;
}

double AbsErrorStats::fraction_exceeding() const {
  return count() ? static_cast<double>(exceeding_) /
                       static_cast<double>(count())
                 : 0.0;
}

void SampleQuantiles::add(double x) {
  samples_.push_back(x);
  sorted_ = samples_.size() <= 1;
}

void SampleQuantiles::merge(const SampleQuantiles& other) {
  if (other.samples_.empty()) return;
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

double SampleQuantiles::quantile(double q) const {
  US3D_EXPECTS(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

}  // namespace us3d
