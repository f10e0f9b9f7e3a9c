// TABLEFREE receive-row kernels (the PwlRowFn contract in simd/dispatch.h)
// and the one copy of the fixed-point PWL datapath they and
// delay::FixedPwlSqrt::evaluate_raw share. pwl_row_scalar is the
// reference every vector body must match bit-for-bit, and the body that
// finishes whatever a vector body hands back. The vector TUs are built
// with their -m<isa> flag and -ffp-contract=off on x86; elsewhere they
// degrade to the scalar reference (dispatch never selects them there).
#ifndef US3D_SIMD_PWL_ROW_H
#define US3D_SIMD_PWL_ROW_H

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/contracts.h"
#include "common/fixed_point.h"
#include "simd/dispatch.h"

namespace us3d::simd {

/// c1 * dx rounded and clamped onto the product grid, plus c0, rounded
/// and clamped onto the result grid (Fig. 2a's multiplier and adder), at
/// integer argument `x` in `segment`: FixedPwlSqrt::evaluate_raw. Checks
/// x >= 0, segment in range and dx within the multiplier input.
inline std::int64_t pwl_evaluate_raw(const PwlRowTable& t, std::int64_t x,
                                     std::size_t segment) {
  US3D_EXPECTS(segment < t.count);
  US3D_EXPECTS(x >= 0);
  const std::int64_t dx = x - t.x_start[segment];
  US3D_EXPECTS(dx >= -t.dx_max - 1 && dx <= t.dx_max);
  const std::int64_t prod = fx::saturate_raw(
      fx::align_half_up(t.slope[segment] * dx, t.product_shift),
      t.product_lo, t.product_hi);
  return fx::saturate_raw(
      fx::shift_right_half_up((prod << t.sum_shift) + t.value[segment],
                              t.sum_shift),
      t.result_lo, t.result_hi);
}

/// The segment of q over `count` ascending segment starts: the last
/// boundary <= q (q inside the domain, so boundary[0] <= q). A binary
/// search; PwlSqrt::find_segment and the row kernels' window bounds.
inline std::size_t pwl_find_segment(const double* boundary, std::size_t count,
                                    double q) {
  return static_cast<std::size_t>(
             std::upper_bound(boundary, boundary + count, q) - boundary) -
         1;
}

/// PwlTracker::advance's walk (the two ">=" comparators of Fig. 2a): from
/// segment `seg`, one step per crossed boundary to q's segment, which it
/// reaches from any start, so the steps taken are |result - seg|.
inline std::size_t pwl_walk_segment(const double* boundary, std::size_t count,
                                    std::size_t seg, double q) {
  while (seg > 0 && q < boundary[seg]) --seg;
  while (seg + 1 < count && q >= boundary[seg + 1]) ++seg;
  return seg;
}

/// The segment window a vector body of `width`-segment registers loads
/// for a chunk whose q fall in segments [lo, hi] after leaving the window
/// [w_lo, w_hi] it holds (`loaded` false: none yet). The window grows
/// over the chunk while the union still fits a register, so a nappe row
/// (a few segments) loads it once or twice; otherwise it moves to the
/// chunk and is filled out in the direction the row is sweeping, so a
/// scanline row's depth sweep moves it a register's worth at a time.
/// Updates [lo, hi] to the window; false when the chunk alone is wider
/// than a register (the scalar reference takes it).
inline bool pwl_next_window(std::size_t count, std::size_t width, bool loaded,
                            std::size_t w_lo, std::size_t w_hi,
                            std::size_t& lo, std::size_t& hi) {
  if (hi - lo >= width) return false;
  if (!loaded) return true;
  if (std::max(hi, w_hi) - std::min(lo, w_lo) < width) {
    lo = std::min(lo, w_lo);
    hi = std::max(hi, w_hi);
  } else if (lo > w_lo) {
    hi = std::min(lo + width - 1, count - 1);
  } else {
    lo = hi >= width - 1 ? hi - (width - 1) : 0;
  }
  return true;
}

/// The scalar reference body for points [begin, end), continuing a row
/// whose first `begin` points `head` summarizes (head.segment is the
/// segment of point begin-1, or the tracker's segment when begin is 0).
/// Returns the summary of points [0, end).
PwlRowResult pwl_row_points(const PwlRowTable& t, const PwlRowArgs& a,
                            std::int32_t* row, int begin, int end,
                            PwlRowResult head);

PwlRowResult pwl_row_scalar(const PwlRowTable& t, const PwlRowArgs& a,
                            std::int32_t* row);

PwlRowResult pwl_row_avx2(const PwlRowTable& t, const PwlRowArgs& a,
                          std::int32_t* row);

PwlRowResult pwl_row_avx512(const PwlRowTable& t, const PwlRowArgs& a,
                            std::int32_t* row);

}  // namespace us3d::simd

#endif  // US3D_SIMD_PWL_ROW_H
