#include <algorithm>

#include "simd/pwl_row.h"

namespace us3d::simd {

PwlRowResult pwl_row_points(const PwlRowTable& t, const PwlRowArgs& a,
                            std::int32_t* row, int begin, int end,
                            PwlRowResult head) {
  std::size_t seg = head.segment;
  for (int p = begin; p < end; ++p) {
    // Vec3::norm_squared's association order: (dx^2 + dy^2) + dz^2.
    const double dx = a.x[p] - a.ex;
    const double dy = a.y[p] - a.ey;
    const double dz = a.z[p] - a.ez;
    const double q =
        std::clamp((dx * dx + dy * dy) + dz * dz, t.x_min, t.x_max);
    // PwlTracker::advance: the domain check (fails only for NaN after the
    // clamp), then one step per crossed boundary.
    US3D_EXPECTS(q >= t.x_min && q <= t.x_max);
    const std::size_t from = seg;
    seg = pwl_walk_segment(t.boundary, t.count, seg, q);
    const int step = static_cast<int>(seg > from ? seg - from : from - seg);
    head.steps += step;
    head.max_step = std::max(head.max_step, step);
    const std::int64_t rx =
        pwl_evaluate_raw(t, static_cast<std::int64_t>(q), seg);
    row[p] = static_cast<std::int32_t>(
        fx::shift_right_half_up(a.tx[p] + rx, t.result_frac_bits));
  }
  head.segment = seg;
  return head;
}

PwlRowResult pwl_row_scalar(const PwlRowTable& t, const PwlRowArgs& a,
                            std::int32_t* row) {
  return pwl_row_points(t, a, row, 0, a.points,
                        PwlRowResult{.segment = a.segment});
}

}  // namespace us3d::simd
