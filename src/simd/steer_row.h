// TABLESTEER steer-row kernels (the SteerRowFn contract in
// simd/dispatch.h) and the one copy of the Fig. 4 datapath on raw words
// they and delay::SteerDatapath::index share. steer_row_scalar is the
// reference every vector body must match bit-for-bit, and the body that
// finishes each vector row's tail. The vector TUs are built with their
// -m<isa> flag on x86; elsewhere they degrade to the scalar reference
// (dispatch never selects them there).
#ifndef US3D_SIMD_STEER_ROW_H
#define US3D_SIMD_STEER_ROW_H

#include <cstdint>

#include "common/fixed_point.h"
#include "simd/dispatch.h"

namespace us3d::simd {

/// Echo-sample index of ref (entry word) + cx + cy (coefficient words):
/// the first adder's aligned sum moved onto the sum grid (half-up) and
/// saturated, the second adder's likewise, then half-up to an integer
/// index, clamped at 0.
inline std::int32_t steer_index(const SteerRowParams& s, std::int64_t ref,
                                std::int64_t cx, std::int64_t cy) {
  const std::int64_t sum0 = fx::saturate_raw(
      fx::align_half_up((ref << s.ref_align) + (cx << s.cx_align),
                        s.sum0_shift),
      s.sum_lo, s.sum_hi);
  const std::int64_t sum1 = fx::saturate_raw(
      fx::shift_right_half_up((sum0 << s.sum1_shift) + (cy << s.cy_align),
                              s.sum1_shift),
      s.sum_lo, s.sum_hi);
  const std::int64_t idx = fx::shift_right_half_up(sum1, s.sum_frac);
  return static_cast<std::int32_t>(idx < 0 ? 0 : idx);
}

/// The scalar reference for points [begin, end) of a row.
inline void steer_row_points(const SteerRowParams& s, std::int32_t ref,
                             const std::int32_t* cx, const std::int32_t* cy,
                             std::int32_t* row, int begin, int end) {
  for (int p = begin; p < end; ++p) row[p] = steer_index(s, ref, cx[p], cy[p]);
}

inline int steer_row_scalar(const SteerRowParams& s, std::int32_t ref,
                            const std::int32_t* cx, const std::int32_t* cy,
                            std::int32_t* row, int points) {
  steer_row_points(s, ref, cx, cy, row, 0, points);
  return 0;
}

int steer_row_avx2(const SteerRowParams& s, std::int32_t ref,
                   const std::int32_t* cx, const std::int32_t* cy,
                   std::int32_t* row, int points);

int steer_row_avx512(const SteerRowParams& s, std::int32_t ref,
                     const std::int32_t* cx, const std::int32_t* cy,
                     std::int32_t* row, int points);

}  // namespace us3d::simd

#endif  // US3D_SIMD_STEER_ROW_H
