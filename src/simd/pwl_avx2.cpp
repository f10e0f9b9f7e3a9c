// AVX2 body of the PWL receive-row contract (simd/dispatch.h): 4 focal
// points of one element per iteration, int64 lanes. AVX2 has no 64-bit
// min/max, arithmetic shift or abs, so the clamps and |Δsegment| are
// compare + blend, and the bounded operands of
// PwlRowTable::vector_bounded keep every word non-negative (logical
// shifts round half-up) and the multiply 32x32->64. The TU is compiled
// with -mavx2 -ffp-contract=off so the q sum stays unfused, exactly like
// the scalar reference.
#include "simd/pwl_row.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <limits>

namespace us3d::simd {

namespace {

constexpr int kLanes = 4;
/// Segments one permutevar8x32 of 64-bit words can address: spans 0..3.
constexpr std::size_t kWindow = 4;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Clamped q for points [p, p + 4). max(x_min, q) then min(x_max, .) is
/// std::clamp for an ordered q, and with these operand orders a NaN q
/// stays NaN (both ops return their second operand on NaN).
inline __m256d clamped_q(const PwlRowArgs& a, int p, __m256d ex, __m256d ey,
                         __m256d ez, __m256d x_min, __m256d x_max) {
  const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(a.x + p), ex);
  const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(a.y + p), ey);
  const __m256d dz = _mm256_sub_pd(_mm256_loadu_pd(a.z + p), ez);
  const __m256d q = _mm256_add_pd(
      _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
      _mm256_mul_pd(dz, dz));
  return _mm256_min_pd(x_max, _mm256_max_pd(x_min, q));
}

/// (v + half) >> shift for non-negative lanes: shift_right_half_up.
inline __m256i round_shift(__m256i v, __m256i half, __m128i shift) {
  return _mm256_srl_epi64(_mm256_add_epi64(v, half), shift);
}

inline __m256i saturate(__m256i v, __m256i lo, __m256i hi) {
  v = _mm256_blendv_epi8(v, lo, _mm256_cmpgt_epi64(lo, v));
  return _mm256_blendv_epi8(v, hi, _mm256_cmpgt_epi64(v, hi));
}

inline __m256i half_of(int shift) {
  return _mm256_set1_epi64x((std::int64_t{1} << shift) >> 1);
}

inline double reduce(__m256d v, bool want_max) {
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(lanes, v);
  double r = lanes[0];
  for (int l = 1; l < kLanes; ++l) {
    r = want_max ? std::max(r, lanes[l]) : std::min(r, lanes[l]);
  }
  return r;
}

/// Segments [lo, lo + span] with their words in registers, and the q
/// range [q_lo, q_hi) they cover. Starts empty (no q is inside).
struct Window {
  std::size_t lo = 0;
  std::size_t span = 0;
  double q_lo = kInf;
  double q_hi = -kInf;
  __m256i x_start = _mm256_setzero_si256();
  __m256i slope = _mm256_setzero_si256();
  __m256i value = _mm256_setzero_si256();

  bool loaded() const { return q_lo < q_hi; }

  void load(const PwlRowTable& t, std::size_t first, std::size_t last) {
    lo = first;
    span = last - first;
    q_lo = t.boundary[first];
    q_hi = last + 1 < t.count ? t.boundary[last + 1] : kInf;
    // Lanes past `last` never load.
    const __m256i lanes = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<std::int64_t>(span) + 1),
        _mm256_setr_epi64x(0, 1, 2, 3));
    auto words = [&](const std::int64_t* base) {
      return _mm256_maskload_epi64(
          reinterpret_cast<const long long*>(base + first), lanes);
    };
    x_start = words(t.x_start);
    slope = words(t.slope);
    value = words(t.value);
  }
};

inline std::size_t last_lane(__m256i v) {
  return static_cast<std::size_t>(_mm256_extract_epi64(v, kLanes - 1));
}

/// Sum and max over the lanes of non-negative int64 words.
inline void reduce_steps(__m256i steps, __m256i max_step, PwlRowResult& r) {
  alignas(32) std::int64_t sum_lanes[kLanes];
  alignas(32) std::int64_t max_lanes[kLanes];
  _mm256_store_si256(reinterpret_cast<__m256i*>(sum_lanes), steps);
  _mm256_store_si256(reinterpret_cast<__m256i*>(max_lanes), max_step);
  for (int l = 0; l < kLanes; ++l) {
    r.steps += sum_lanes[l];
    r.max_step = std::max(r.max_step, static_cast<int>(max_lanes[l]));
  }
}

}  // namespace

PwlRowResult pwl_row_avx2(const PwlRowTable& t, const PwlRowArgs& a,
                          std::int32_t* row) {
  if (!t.vector_bounded) return pwl_row_scalar(t, a, row);
  const int vector_end = a.points / kLanes * kLanes;
  const __m256d ex = _mm256_set1_pd(a.ex);
  const __m256d ey = _mm256_set1_pd(a.ey);
  const __m256d ez = _mm256_set1_pd(a.ez);
  const __m256d x_min = _mm256_set1_pd(t.x_min);
  const __m256d x_max = _mm256_set1_pd(t.x_max);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i narrow = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m128i product_shift = _mm_cvtsi64_si128(t.product_shift);
  const __m128i sum_shift = _mm_cvtsi64_si128(t.sum_shift);
  const __m128i frac_shift = _mm_cvtsi64_si128(t.result_frac_bits);
  const __m256i product_half = half_of(t.product_shift);
  const __m256i sum_half = half_of(t.sum_shift);
  const __m256i frac_half = half_of(t.result_frac_bits);
  const __m256i product_lo = _mm256_set1_epi64x(t.product_lo);
  const __m256i product_hi = _mm256_set1_epi64x(t.product_hi);
  const __m256i result_lo = _mm256_set1_epi64x(t.result_lo);
  const __m256i result_hi = _mm256_set1_epi64x(t.result_hi);

  // The statistics of chunks the scalar reference took, and (in
  // vector_points) how many points the vector body took.
  PwlRowResult head{.segment = a.segment};
  // prev holds the previous 4 segments; lane 3 is the segment of the
  // point before the current chunk.
  __m256i prev = _mm256_set1_epi64x(static_cast<std::int64_t>(a.segment));
  __m256i steps = zero;
  __m256i max_step = zero;
  auto fold = [&] {
    head.segment = last_lane(prev);
    reduce_steps(steps, max_step, head);
    return head;
  };

  Window w;
  for (int p = 0; p < vector_end; p += kLanes) {
    const __m256d q = clamped_q(a, p, ex, ey, ez, x_min, x_max);
    const __m256d inside = _mm256_and_pd(
        _mm256_cmp_pd(q, _mm256_set1_pd(w.q_lo), _CMP_GE_OQ),
        _mm256_cmp_pd(q, _mm256_set1_pd(w.q_hi), _CMP_LT_OQ));
    if (_mm256_movemask_pd(inside) != 0xF) {
      // The scalar reference raises at the first NaN point.
      if (_mm256_movemask_pd(_mm256_cmp_pd(q, q, _CMP_UNORD_Q)) != 0) {
        return pwl_row_points(t, a, row, p, a.points, fold());
      }
      std::size_t lo =
          pwl_find_segment(t.boundary, t.count, reduce(q, false));
      std::size_t hi =
          pwl_find_segment(t.boundary, t.count, reduce(q, true));
      if (!pwl_next_window(t.count, kWindow, w.loaded(), w.lo, w.lo + w.span,
                           lo, hi)) {
        // Wider than a register: the scalar reference takes the chunk.
        head.segment = last_lane(prev);
        head = pwl_row_points(t, a, row, p, p + kLanes, head);
        prev = _mm256_set1_epi64x(static_cast<std::int64_t>(head.segment));
        continue;
      }
      w.load(t, lo, hi);
    }

    // Window-local segment: the number of window boundaries <= q (a
    // passed compare is all-ones, i.e. -1).
    __m256i local = zero;
    for (std::size_t k = 1; k <= w.span; ++k) {
      const __m256d past = _mm256_cmp_pd(
          q, _mm256_set1_pd(t.boundary[w.lo + k]), _CMP_GE_OQ);
      local = _mm256_sub_epi64(local, _mm256_castpd_si256(past));
    }
    const __m256i seg = _mm256_add_epi64(
        local, _mm256_set1_epi64x(static_cast<std::int64_t>(w.lo)));
    const __m256i before = _mm256_blend_epi32(
        _mm256_permute4x64_epi64(seg, _MM_SHUFFLE(2, 1, 0, 0)),
        _mm256_permute4x64_epi64(prev, _MM_SHUFFLE(3, 3, 3, 3)), 0x03);
    const __m256i delta = _mm256_sub_epi64(seg, before);
    const __m256i step = _mm256_blendv_epi8(
        delta, _mm256_sub_epi64(zero, delta), _mm256_cmpgt_epi64(zero, delta));
    steps = _mm256_add_epi64(steps, step);
    max_step = _mm256_blendv_epi8(max_step, step,
                                  _mm256_cmpgt_epi64(step, max_step));
    prev = seg;

    // The 64-bit words of segment `local` sit at 32-bit lanes 2l, 2l+1.
    const __m256i pair = _mm256_slli_epi64(local, 1);
    const __m256i index = _mm256_or_si256(
        pair, _mm256_slli_epi64(_mm256_add_epi64(pair, one), 32));
    // q < 2^31 and dx in [0, 2^31): int32 truncation and a 32x32->64
    // multiply are exact; every word below is non-negative.
    const __m256i xq = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(q));
    const __m256i dx = _mm256_sub_epi64(
        xq, _mm256_permutevar8x32_epi32(w.x_start, index));
    const __m256i prod = saturate(
        round_shift(
            _mm256_mul_epi32(_mm256_permutevar8x32_epi32(w.slope, index), dx),
            product_half, product_shift),
        product_lo, product_hi);
    const __m256i rx = saturate(
        round_shift(
            _mm256_add_epi64(_mm256_sll_epi64(prod, sum_shift),
                             _mm256_permutevar8x32_epi32(w.value, index)),
            sum_half, sum_shift),
        result_lo, result_hi);
    const __m256i tx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.tx + p));
    const __m256i delay =
        round_shift(_mm256_add_epi64(tx, rx), frac_half, frac_shift);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(row + p),
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(delay, narrow)));
    head.vector_points += kLanes;
  }
  return pwl_row_points(t, a, row, vector_end, a.points, fold());
}

}  // namespace us3d::simd

#else  // !defined(__AVX2__)

namespace us3d::simd {

// Keeps the symbol defined off x86; dispatch reports the backend
// unavailable there, so this body is unreachable through resolve.
PwlRowResult pwl_row_avx2(const PwlRowTable& t, const PwlRowArgs& a,
                          std::int32_t* row) {
  return pwl_row_scalar(t, a, row);
}

}  // namespace us3d::simd

#endif
