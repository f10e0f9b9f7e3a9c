// SSE2 backend for the quantized DAS row contract (simd/dispatch.h): 8
// points per iteration, int16 end to end and compare-free (delays arrive
// pre-sanitized, see the DasRowQFn contract): per-lane int16 loads, then
// the classic mullo/mulhi_epi16 unpack to form the exact 32-bit products.
// There is no SSE2 double body: without a gather its per-lane masked
// loads ran 4.4x slower than the scalar reference, so das_row_fn(kSSE2)
// hands out das_row_scalar. The TU is compiled with -msse2 on x86;
// elsewhere it degrades to the scalar body and kDasSse2Compiled is false.
#ifndef US3D_SIMD_DAS_SSE2_H
#define US3D_SIMD_DAS_SSE2_H

#include <cstdint>

namespace us3d::simd {

/// True when this TU was built with real SSE2 intrinsics.
extern const bool kDasSse2Compiled;

void das_row_q_sse2(const std::int16_t* echo, std::int64_t samples,
                    const std::int16_t* delays, std::int32_t weight,
                    std::int32_t* acc, int points);

}  // namespace us3d::simd

#endif  // US3D_SIMD_DAS_SSE2_H
