// Incremental segment tracking (Sec. IV-B). When focal points are visited
// in scan order, the sqrt argument changes gradually, so the hardware does
// not search for the right PWL segment: it keeps the current segment and
// steps at most one segment per comparator evaluation (the two ">="
// comparators of Fig. 2a). Large jumps — e.g. the depth reset at the start
// of a new scanline in scanline order — cost one cycle per crossed segment.
// The tracker counts those steps so the cycle-accurate models and the
// scan-order ablation can charge them.
#ifndef US3D_DELAY_PWL_TRACKER_H
#define US3D_DELAY_PWL_TRACKER_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "delay/pwl_sqrt.h"
#include "simd/pwl_row.h"

namespace us3d::delay {

class PwlTracker {
 public:
  /// The tracker holds a reference to `table`; it must not outlive it.
  explicit PwlTracker(const PwlSqrt& table);

  struct Evaluation {
    double value = 0.0;  ///< PWL approximation of sqrt(x)
    int steps = 0;       ///< segments crossed to reach x's segment
  };

  /// Moves the current segment toward x (one step per crossed boundary)
  /// and evaluates. x must lie inside the table domain.
  Evaluation evaluate(double x);

  /// The tracking half of evaluate(): moves the segment to x's and charges
  /// the steps to the statistics, without evaluating the PWL. Callers that
  /// evaluate on another datapath (FixedPwlSqrt) pair it with segment().
  /// Returns the steps taken.
  int advance(double x) {
    US3D_EXPECTS(x >= table_->x_min() && x <= table_->x_max());
    const std::vector<double>& starts = table_->starts();
    const std::size_t from = segment_;
    segment_ =
        simd::pwl_walk_segment(starts.data(), starts.size(), segment_, x);
    const int steps =
        static_cast<int>(segment_ > from ? segment_ - from : from - segment_);
    ++evaluations_;
    total_steps_ += steps;
    max_steps_ = std::max(max_steps_, steps);
    return steps;
  }

  /// Charges a run of `evaluations` advance() calls evaluated elsewhere
  /// (the TABLEFREE receive-row kernels): the run ended on `segment`,
  /// crossed `steps` boundaries in total and at most `max_step` in one
  /// evaluation. Because advance(x) lands on x's segment from anywhere,
  /// these are exactly the statistics the run's advance() calls would
  /// have charged.
  void charge_run(std::int64_t evaluations, std::size_t segment,
                  std::int64_t steps, int max_step) {
    US3D_EXPECTS(segment < table_->segment_count());
    US3D_EXPECTS(evaluations >= 0 && steps >= 0 && max_step >= 0);
    segment_ = segment;
    evaluations_ += evaluations;
    total_steps_ += steps;
    max_steps_ = std::max(max_steps_, max_step);
  }

  /// Current segment index (for pairing with FixedPwlSqrt).
  std::size_t segment() const { return segment_; }

  /// Lifetime statistics, for stall accounting.
  std::int64_t total_steps() const { return total_steps_; }
  std::int64_t evaluations() const { return evaluations_; }
  int max_steps_single_evaluation() const { return max_steps_; }

  /// Resets the segment to the one containing x (a "seek", as done once at
  /// frame start) without charging steps.
  void seek(double x);

  /// Re-points the tracker at an identical segmentation owned elsewhere.
  /// Used when an engine that owns both the PwlSqrt and its trackers is
  /// copied: the copied trackers must follow the copy's table, not the
  /// original's. The segment index and statistics are preserved, so the
  /// tables must have the same segmentation.
  void rebind(const PwlSqrt& table);

  void reset_statistics();

 private:
  const PwlSqrt* table_;
  std::size_t segment_ = 0;
  std::int64_t total_steps_ = 0;
  std::int64_t evaluations_ = 0;
  int max_steps_ = 0;
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_PWL_TRACKER_H
