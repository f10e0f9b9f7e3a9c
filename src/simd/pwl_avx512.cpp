// AVX-512 body of the PWL receive-row contract (simd/dispatch.h): 8
// focal points of one element per iteration, int64 lanes. AVX-512F only
// (the bounded operands of PwlRowTable::vector_bounded avoid the DQ
// conversions and multiplies); the TU is compiled with -mavx512f
// -ffp-contract=off so the q sum stays two roundings per add, exactly
// like the scalar reference.
#include "simd/pwl_row.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <limits>

namespace us3d::simd {

namespace {

constexpr int kLanes = 8;
/// Segments one permutexvar_epi64 can address: window spans 0..7.
constexpr std::size_t kWindow = 8;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Clamped q for points [p, p + 8). max(x_min, q) then min(x_max, .) is
/// std::clamp for an ordered q, and with these operand orders a NaN q
/// stays NaN (both ops return their second operand on NaN).
inline __m512d clamped_q(const PwlRowArgs& a, int p, __m512d ex, __m512d ey,
                         __m512d ez, __m512d x_min, __m512d x_max) {
  const __m512d dx = _mm512_sub_pd(_mm512_loadu_pd(a.x + p), ex);
  const __m512d dy = _mm512_sub_pd(_mm512_loadu_pd(a.y + p), ey);
  const __m512d dz = _mm512_sub_pd(_mm512_loadu_pd(a.z + p), ez);
  const __m512d q = _mm512_add_pd(
      _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
      _mm512_mul_pd(dz, dz));
  return _mm512_min_pd(x_max, _mm512_max_pd(x_min, q));
}

/// (v + half) >> shift for non-negative lanes: shift_right_half_up.
inline __m512i round_shift(__m512i v, __m512i half, __m128i shift) {
  return _mm512_srl_epi64(_mm512_add_epi64(v, half), shift);
}

inline __m512i saturate(__m512i v, __m512i lo, __m512i hi) {
  return _mm512_min_epi64(_mm512_max_epi64(v, lo), hi);
}

inline __m512i half_of(int shift) {
  return _mm512_set1_epi64((std::int64_t{1} << shift) >> 1);
}

/// Segments [lo, lo + span] with their words in registers, and the q
/// range [q_lo, q_hi) they cover. Starts empty (no q is inside).
struct Window {
  std::size_t lo = 0;
  std::size_t span = 0;
  double q_lo = kInf;
  double q_hi = -kInf;
  __m512i x_start = _mm512_setzero_si512();
  __m512i slope = _mm512_setzero_si512();
  __m512i value = _mm512_setzero_si512();

  bool loaded() const { return q_lo < q_hi; }

  void load(const PwlRowTable& t, std::size_t first, std::size_t last) {
    lo = first;
    span = last - first;
    q_lo = t.boundary[first];
    q_hi = last + 1 < t.count ? t.boundary[last + 1] : kInf;
    // Lanes past `last` never load.
    const auto lanes = static_cast<__mmask8>((2u << span) - 1u);
    x_start = _mm512_maskz_loadu_epi64(lanes, t.x_start + first);
    slope = _mm512_maskz_loadu_epi64(lanes, t.slope + first);
    value = _mm512_maskz_loadu_epi64(lanes, t.value + first);
  }
};

inline std::size_t last_lane(__m512i v) {
  alignas(64) std::int64_t lanes[kLanes];
  _mm512_store_si512(lanes, v);
  return static_cast<std::size_t>(lanes[kLanes - 1]);
}

}  // namespace

PwlRowResult pwl_row_avx512(const PwlRowTable& t, const PwlRowArgs& a,
                            std::int32_t* row) {
  if (!t.vector_bounded) return pwl_row_scalar(t, a, row);
  const int vector_end = a.points / kLanes * kLanes;
  const __m512d ex = _mm512_set1_pd(a.ex);
  const __m512d ey = _mm512_set1_pd(a.ey);
  const __m512d ez = _mm512_set1_pd(a.ez);
  const __m512d x_min = _mm512_set1_pd(t.x_min);
  const __m512d x_max = _mm512_set1_pd(t.x_max);
  const __m512i one = _mm512_set1_epi64(1);
  const __m128i product_shift = _mm_cvtsi64_si128(t.product_shift);
  const __m128i sum_shift = _mm_cvtsi64_si128(t.sum_shift);
  const __m128i frac_shift = _mm_cvtsi64_si128(t.result_frac_bits);
  const __m512i product_half = half_of(t.product_shift);
  const __m512i sum_half = half_of(t.sum_shift);
  const __m512i frac_half = half_of(t.result_frac_bits);
  const __m512i product_lo = _mm512_set1_epi64(t.product_lo);
  const __m512i product_hi = _mm512_set1_epi64(t.product_hi);
  const __m512i result_lo = _mm512_set1_epi64(t.result_lo);
  const __m512i result_hi = _mm512_set1_epi64(t.result_hi);

  // The statistics of chunks the scalar reference took, and (in
  // vector_points) how many points the vector body took.
  PwlRowResult head{.segment = a.segment};
  // prev holds the previous 8 segments; lane 7 is the segment of the
  // point before the current chunk.
  __m512i prev = _mm512_set1_epi64(static_cast<std::int64_t>(a.segment));
  __m512i steps = _mm512_setzero_si512();
  __m512i max_step = _mm512_setzero_si512();
  auto fold = [&] {
    head.segment = last_lane(prev);
    head.steps += _mm512_reduce_add_epi64(steps);
    head.max_step = std::max(
        head.max_step, static_cast<int>(_mm512_reduce_max_epi64(max_step)));
    return head;
  };

  Window w;
  for (int p = 0; p < vector_end; p += kLanes) {
    const __m512d q = clamped_q(a, p, ex, ey, ez, x_min, x_max);
    const __mmask8 inside =
        _mm512_cmp_pd_mask(q, _mm512_set1_pd(w.q_lo), _CMP_GE_OQ) &
        _mm512_cmp_pd_mask(q, _mm512_set1_pd(w.q_hi), _CMP_LT_OQ);
    if (inside != 0xFF) {
      // The scalar reference raises at the first NaN point.
      if (_mm512_cmp_pd_mask(q, q, _CMP_UNORD_Q) != 0) {
        return pwl_row_points(t, a, row, p, a.points, fold());
      }
      std::size_t lo =
          pwl_find_segment(t.boundary, t.count, _mm512_reduce_min_pd(q));
      std::size_t hi =
          pwl_find_segment(t.boundary, t.count, _mm512_reduce_max_pd(q));
      if (!pwl_next_window(t.count, kWindow, w.loaded(), w.lo, w.lo + w.span,
                           lo, hi)) {
        // Wider than a register: the scalar reference takes the chunk.
        head.segment = last_lane(prev);
        head = pwl_row_points(t, a, row, p, p + kLanes, head);
        prev = _mm512_set1_epi64(static_cast<std::int64_t>(head.segment));
        continue;
      }
      w.load(t, lo, hi);
    }

    // Window-local segment: the number of window boundaries <= q.
    __m512i local = _mm512_setzero_si512();
    for (std::size_t k = 1; k <= w.span; ++k) {
      const __mmask8 past = _mm512_cmp_pd_mask(
          q, _mm512_set1_pd(t.boundary[w.lo + k]), _CMP_GE_OQ);
      local = _mm512_mask_add_epi64(local, past, local, one);
    }
    const __m512i seg = _mm512_add_epi64(
        local, _mm512_set1_epi64(static_cast<std::int64_t>(w.lo)));
    const __m512i before = _mm512_alignr_epi64(seg, prev, kLanes - 1);
    const __m512i step = _mm512_abs_epi64(_mm512_sub_epi64(seg, before));
    steps = _mm512_add_epi64(steps, step);
    max_step = _mm512_max_epi64(max_step, step);
    prev = seg;

    // q < 2^31 and dx in [0, 2^31): int32 truncation and a 32x32->64
    // multiply are exact; every word below is non-negative.
    const __m512i xq = _mm512_cvtepi32_epi64(_mm512_cvttpd_epi32(q));
    const __m512i dx =
        _mm512_sub_epi64(xq, _mm512_permutexvar_epi64(local, w.x_start));
    const __m512i prod = saturate(
        round_shift(_mm512_mul_epi32(_mm512_permutexvar_epi64(local, w.slope),
                                     dx),
                    product_half, product_shift),
        product_lo, product_hi);
    const __m512i rx = saturate(
        round_shift(_mm512_add_epi64(_mm512_sll_epi64(prod, sum_shift),
                                     _mm512_permutexvar_epi64(local, w.value)),
                    sum_half, sum_shift),
        result_lo, result_hi);
    const __m512i tx = _mm512_loadu_si512(a.tx + p);
    const __m512i delay =
        round_shift(_mm512_add_epi64(tx, rx), frac_half, frac_shift);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + p),
                        _mm512_cvtepi64_epi32(delay));
    head.vector_points += kLanes;
  }
  return pwl_row_points(t, a, row, vector_end, a.points, fold());
}

}  // namespace us3d::simd

#else  // !defined(__AVX512F__)

namespace us3d::simd {

// Keeps the symbol defined off x86; dispatch reports the backend
// unavailable there, so this body is unreachable through resolve.
PwlRowResult pwl_row_avx512(const PwlRowTable& t, const PwlRowArgs& a,
                            std::int32_t* row) {
  return pwl_row_scalar(t, a, row);
}

}  // namespace us3d::simd

#endif
