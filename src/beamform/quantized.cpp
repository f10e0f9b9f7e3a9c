#include "beamform/quantized.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "beamform/echo_buffer.h"
#include "common/contracts.h"

namespace us3d::beamform {

std::int32_t quantize_weight(double weight) {
  US3D_EXPECTS(weight >= 0.0);
  return static_cast<std::int32_t>(
      fx::Value::from_real(weight, kQuantWeightFormat).raw());
}

void QuantizedEchoBuffer::quantize_from(const EchoBuffer& echoes) {
  // Peak scan first, so a refused buffer leaves this one untouched. A NaN
  // would slip past std::max and reach std::lround, and an infinite peak
  // would zero the scale (Inf * 0), so non-finite samples are refused.
  double peak = 0.0;
  for (int e = 0; e < echoes.element_count(); ++e) {
    const std::span<const float> row = echoes.row(e);
    for (std::size_t s = 0; s < row.size(); ++s) {
      const double v = row[s];
      if (!std::isfinite(v)) {
        throw ContractViolation("non-finite echo sample at element " +
                                std::to_string(e) + ", sample " +
                                std::to_string(s));
      }
      peak = std::max(peak, std::abs(v));
    }
  }

  elements_ = echoes.element_count();
  samples_ = echoes.samples_per_element();
  US3D_EXPECTS(samples_ <= simd::kQuantMaxSamples);
  // 32 int16 entries = one 64-byte cache line per pitch step; the +2
  // guarantees two zeroed entries past the last sample even when the row
  // already sits on the pitch — entry `samples` is the out-of-window
  // sentinel the sanitized delay planes address, and entry samples+1
  // covers the 32-bit gathers' overread of the entry after the target.
  constexpr std::size_t kLine = 32;
  const std::size_t row_entries = static_cast<std::size_t>(samples_) + 2;
  stride_ = (row_entries + kLine - 1) / kLine * kLine;
  const std::size_t needed = static_cast<std::size_t>(elements_) * stride_;
  if (needed > data_.size()) data_.resize(needed);

  lsb_ = peak > 0.0 ? peak / 32767.0 : 0.0;
  const double scale = peak > 0.0 ? 32767.0 / peak : 0.0;

  const std::int64_t max_raw = kQuantEchoFormat.max_raw();  // 32767
  for (int e = 0; e < elements_; ++e) {
    const std::span<const float> src = echoes.row(e);
    std::int16_t* dst = data_.data() + static_cast<std::size_t>(e) * stride_;
    for (std::int64_t s = 0; s < samples_; ++s) {
      const long r = std::lround(static_cast<double>(src[static_cast<
          std::size_t>(s)]) * scale);
      const long clamped = std::clamp<long>(r, -max_raw, max_raw);
      dst[s] = static_cast<std::int16_t>(clamped);
    }
    // Deterministic (and gather-safe) padding regardless of what a prior,
    // longer frame left behind.
    std::memset(dst + samples_, 0,
                (stride_ - static_cast<std::size_t>(samples_)) *
                    sizeof(std::int16_t));
  }
}

}  // namespace us3d::beamform
