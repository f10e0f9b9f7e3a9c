#include "simd/das_sse2.h"

#include "simd/das_scalar.h"
#include "simd/dispatch.h"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace us3d::simd {

const bool kDasSse2Compiled = true;

void das_row_q_sse2(const std::int16_t* echo, std::int64_t samples,
                    const std::int16_t* delays, std::int32_t weight,
                    std::int32_t* acc, int points) {
  // The quantized contract pre-sanitizes delays into [0, samples] (the
  // sentinel reads zeroed padding), so there is no window test at all —
  // just per-lane loads (no gather before AVX2) and exact int16 products.
  static_cast<void>(samples);
  // weight < 2^15 (uQ1.14 word), so it fits a non-negative int16 lane and
  // mullo/mulhi_epi16 below form the exact signed 32-bit product.
  const __m128i vw = _mm_set1_epi16(static_cast<std::int16_t>(weight));
  int p = 0;
  for (; p + 8 <= points; p += 8) {
    alignas(16) std::int16_t sbuf[8];
    for (int l = 0; l < 8; ++l) {
      sbuf[l] = echo[static_cast<std::size_t>(
          static_cast<std::uint16_t>(delays[p + l]))];
    }
    const __m128i s = _mm_load_si128(reinterpret_cast<const __m128i*>(sbuf));
    // Exact 32-bit products from the 16x16 multiply pair, then the
    // contract's arithmetic shift and int32 accumulate — identical
    // integer arithmetic to the scalar reference, twice the lanes of the
    // double kernel.
    const __m128i prod_lo16 = _mm_mullo_epi16(s, vw);
    const __m128i prod_hi16 = _mm_mulhi_epi16(s, vw);
    const __m128i prod01 = _mm_unpacklo_epi16(prod_lo16, prod_hi16);
    const __m128i prod23 = _mm_unpackhi_epi16(prod_lo16, prod_hi16);
    const __m128i t01 = _mm_srai_epi32(prod01, kQuantWeightFracBits);
    const __m128i t23 = _mm_srai_epi32(prod23, kQuantWeightFracBits);
    __m128i* acc01 = reinterpret_cast<__m128i*>(acc + p);
    __m128i* acc23 = reinterpret_cast<__m128i*>(acc + p + 4);
    _mm_storeu_si128(acc01, _mm_add_epi32(_mm_loadu_si128(acc01), t01));
    _mm_storeu_si128(acc23, _mm_add_epi32(_mm_loadu_si128(acc23), t23));
  }
  if (p < points) {
    das_row_q_scalar(echo, samples, delays + p, weight, acc + p, points - p);
  }
}

}  // namespace us3d::simd

#else  // !defined(__SSE2__)

namespace us3d::simd {

const bool kDasSse2Compiled = false;

// Keeps the symbol defined on non-x86 targets; dispatch reports the
// backend unavailable, so this body is unreachable through resolve.
void das_row_q_sse2(const std::int16_t* echo, std::int64_t samples,
                    const std::int16_t* delays, std::int32_t weight,
                    std::int32_t* acc, int points) {
  das_row_q_scalar(echo, samples, delays, weight, acc, points);
}

}  // namespace us3d::simd

#endif
