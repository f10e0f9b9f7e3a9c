// Streaming statistics used by the accuracy experiments (Sec. VI-A).
#ifndef US3D_COMMON_STATS_H
#define US3D_COMMON_STATS_H

#include <cstddef>
#include <limits>
#include <vector>

namespace us3d {

/// Welford-style running statistics over a stream of samples.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Error-specific statistics: tracks |e| mean/max/RMS plus the count of
/// samples whose |e| exceeds a threshold (e.g. "off by more than 1 sample").
class AbsErrorStats {
 public:
  explicit AbsErrorStats(double exceed_threshold = 1.0)
      : threshold_(exceed_threshold) {}

  void add(double error);

  std::size_t count() const { return stats_.count(); }
  double mean_abs() const { return stats_.mean(); }
  double max_abs() const { return stats_.count() ? stats_.max() : 0.0; }
  double rms() const;
  std::size_t count_exceeding() const { return exceeding_; }
  double fraction_exceeding() const;
  double threshold() const { return threshold_; }

 private:
  RunningStats stats_;  // over |e|
  double sum_sq_ = 0.0;
  std::size_t exceeding_ = 0;
  double threshold_;
};

/// Exact sample-set quantiles for modest streams (per-session latency
/// distributions in the imaging service). Samples are stored and sorted
/// lazily on the first quantile() after an add(), so repeated reads are
/// cheap; use a histogram for unbounded streams.
class SampleQuantiles {
 public:
  void add(double x);
  /// Appends every sample of `other` (service-wide aggregation over
  /// per-session accumulators).
  void merge(const SampleQuantiles& other);

  std::size_t count() const { return samples_.size(); }
  /// Linear-interpolated quantile for q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace us3d

#endif  // US3D_COMMON_STATS_H
