#include "delay/pwl_tracker.h"

#include "common/contracts.h"

namespace us3d::delay {

PwlTracker::PwlTracker(const PwlSqrt& table) : table_(&table) {}

PwlTracker::Evaluation PwlTracker::evaluate(double x) {
  const int steps = advance(x);
  return Evaluation{table_->evaluate_in_segment(x, segment_), steps};
}

void PwlTracker::seek(double x) { segment_ = table_->find_segment(x); }

void PwlTracker::rebind(const PwlSqrt& table) {
  US3D_EXPECTS(table.segment_count() == table_->segment_count());
  table_ = &table;
}

void PwlTracker::reset_statistics() {
  total_steps_ = 0;
  evaluations_ = 0;
  max_steps_ = 0;
}

}  // namespace us3d::delay
