// AVX2 body of the steer-row contract (simd/dispatch.h): 8 focal points
// of one element per iteration, int32 lanes. The TU is compiled with
// -mavx2. Runs only on SteerRowParams::vector_bounded configs, whose
// adders never round and whose intermediates all fit an int32 lane.
#include "simd/steer_row.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace us3d::simd {

namespace {

constexpr int kLanes = 8;

inline __m256i load(const std::int32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

}  // namespace

int steer_row_avx2(const SteerRowParams& s, std::int32_t ref,
                   const std::int32_t* cx, const std::int32_t* cy,
                   std::int32_t* row, int points) {
  if (!s.vector_bounded) return steer_row_scalar(s, ref, cx, cy, row, points);
  const int vector_end = points / kLanes * kLanes;
  // The first adder's left shift onto the sum grid distributes over its
  // operands' alignment shifts.
  const int sum0_left = -s.sum0_shift;
  const __m256i ref_aligned =
      _mm256_set1_epi32(ref << (s.ref_align + sum0_left));
  const __m128i cx_align = _mm_cvtsi32_si128(s.cx_align + sum0_left);
  const __m128i cy_align = _mm_cvtsi32_si128(s.cy_align);
  const __m128i index_shift = _mm_cvtsi32_si128(s.sum_frac);
  const __m256i index_half = _mm256_set1_epi32((1 << s.sum_frac) >> 1);
  const __m256i sum_lo = _mm256_set1_epi32(static_cast<std::int32_t>(s.sum_lo));
  const __m256i sum_hi = _mm256_set1_epi32(static_cast<std::int32_t>(s.sum_hi));
  const __m256i zero = _mm256_setzero_si256();
  const auto saturate = [&](__m256i v) {
    return _mm256_min_epi32(_mm256_max_epi32(v, sum_lo), sum_hi);
  };
  for (int p = 0; p < vector_end; p += kLanes) {
    const __m256i sum0 = saturate(_mm256_add_epi32(
        ref_aligned, _mm256_sll_epi32(load(cx + p), cx_align)));
    const __m256i sum1 = saturate(
        _mm256_add_epi32(sum0, _mm256_sll_epi32(load(cy + p), cy_align)));
    // Half-up by flooring (sum1 + half): the result is clamped at 0, and a
    // negative sum rounds to an index <= 0 either way.
    const __m256i index = _mm256_sra_epi32(
        _mm256_add_epi32(sum1, index_half), index_shift);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + p),
                        _mm256_max_epi32(index, zero));
  }
  steer_row_points(s, ref, cx, cy, row, vector_end, points);
  return vector_end;
}

}  // namespace us3d::simd

#else  // !defined(__AVX2__)

namespace us3d::simd {

// Keeps the symbol defined off x86; dispatch reports the backend
// unavailable there, so this body is unreachable through resolve.
int steer_row_avx2(const SteerRowParams& s, std::int32_t ref,
                   const std::int32_t* cx, const std::int32_t* cy,
                   std::int32_t* row, int points) {
  return steer_row_scalar(s, ref, cx, cy, row, points);
}

}  // namespace us3d::simd

#endif
