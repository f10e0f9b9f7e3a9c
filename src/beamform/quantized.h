// Fixed-point side of the quantized int16 DAS pipeline: the formats every
// layer agrees on, the declared accuracy bounds the property tests pin,
// and the int16 echo container the integer row kernels (simd/dispatch.h,
// DasRowQFn) sweep.
//
// Quantization scheme, end to end:
//  - echo samples: per-buffer peak scaling onto sQ0.15 — the largest
//    magnitude in the buffer maps to raw 32767, so lsb() = peak / 32767
//    and the full int16 dynamic range is spent on the actual signal.
//    Rounding is to-nearest, ties away from zero (what an add-half-LSB
//    rounder does), saturating at +/-32767.
//  - apodization weights: uQ1.14 words (kQuantWeightFormat; 1.0 -> 16384
//    exactly), quantized half-up/saturating through the fx datapath model.
//  - delay indices: preserved exactly when in-window (delay/
//    quantized_plane.h), sentinel `samples` otherwise (reads the zeroed
//    row padding) — zero added delay error, and compare-free kernels.
// A quantized voxel is reconstructed as double(acc) * lsb(), optionally
// normalized by the *quantized* total weight so the integer path is
// self-consistent rather than borrowing double-path constants.
#ifndef US3D_BEAMFORM_QUANTIZED_H
#define US3D_BEAMFORM_QUANTIZED_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/fixed_point.h"
#include "simd/dispatch.h"

namespace us3d::beamform {

class EchoBuffer;

/// uQ1.14: the apodization-weight word of the integer row contract.
/// Unsigned — apodization windows are non-negative — with one integer bit
/// so a unit weight is exact.
inline constexpr fx::Format kQuantWeightFormat{1, simd::kQuantWeightFracBits,
                                               false};

/// sQ0.15: the echo-sample word. The binary point is nominal — the real
/// scale is per-buffer (QuantizedEchoBuffer::lsb()) — but the width and
/// saturation behaviour are this format's.
inline constexpr fx::Format kQuantEchoFormat{0, 15, true};

/// Declared accuracy bounds of the quantized path, pinned by the property
/// tests (tests/beamform/test_quantized_pipeline.cpp) and reported by the
/// block-kernel bench. Index quantization itself is exact; the delay-error
/// budget is the engine-side table rounding the error harness measures.
inline constexpr double kQuantMaxDelayErrorSamples = 0.5;
/// Minimum PSNR (dB, against the exact double volume) a quantized
/// reconstruction must reach on the harness phantoms.
inline constexpr double kQuantMinPsnrDb = 60.0;

/// Quantizes one apodization weight into its uQ1.14 kernel word
/// (half-up, saturating). The result is in [0, 2^15) as the integer row
/// contract requires.
std::int32_t quantize_weight(double weight);

/// Int16 mirror of EchoBuffer: one peak-scaled sQ0.15 row per element,
/// rows padded to a 64-byte pitch with at least two zeroed trailing
/// entries — entry `samples` is the out-of-window sentinel the sanitized
/// delay planes address, entry samples+1 absorbs the 32-bit gather
/// overread of the AVX2/AVX-512 integer kernels. Scratch semantics like
/// the delay planes:
/// capacity grows monotonically, steady-state frames re-quantize in place.
class QuantizedEchoBuffer {
 public:
  QuantizedEchoBuffer() = default;

  /// Re-quantizes from `echoes` (grow-only reshape). Requires
  /// samples_per_element() <= simd::kQuantMaxSamples — longer windows are
  /// unaddressable by int16 delay indices. A NaN or infinite sample is
  /// refused with a ContractViolation naming its element and sample, and
  /// leaves this buffer unchanged.
  void quantize_from(const EchoBuffer& echoes);

  int element_count() const { return elements_; }
  std::int64_t samples_per_element() const { return samples_; }
  /// Padded row pitch in entries (a multiple of 32 int16 = 64 bytes,
  /// always >= samples_per_element() + 2).
  std::size_t row_stride() const { return stride_; }

  /// Real value of one raw LSB: peak / 32767, or 0 for an all-zero buffer
  /// (every raw word is then 0 too, so reconstruction stays exact).
  double lsb() const { return lsb_; }

  /// One element's quantized samples, densely packed (size = samples).
  std::span<const std::int16_t> row(int element) const {
    return {data_.data() + static_cast<std::size_t>(element) * stride_,
            static_cast<std::size_t>(samples_)};
  }

 private:
  int elements_ = 0;
  std::int64_t samples_ = 0;
  std::size_t stride_ = 0;
  double lsb_ = 0.0;
  std::vector<std::int16_t, AlignedAllocator<std::int16_t, 64>> data_;
};

}  // namespace us3d::beamform

#endif  // US3D_BEAMFORM_QUANTIZED_H
