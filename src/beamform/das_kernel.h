// The apodization-weighted delay-and-sum inner kernel of the block hot
// path (Eq. 1 over a FocalBlock). Three things make it fast where the old
// per-voxel accumulate() was slow:
//
//  1. The zero-weight element test is hoisted out of the inner loop: the
//     kernel precomputes the list of *active* elements (w != 0) once per
//     apodization map, so the sweep never branches on weights.
//  2. The loop order is element-outer / point-inner: one element's echo
//     row and one DelayPlane row stream through the inner loop as plain
//     contiguous arrays — gather on the echo index, but sequential
//     everywhere else. The row sweep itself runs through an explicit-SIMD
//     backend (src/simd/): AVX2 masked gather, SSE2, or the scalar
//     reference, selected per call (option > US3D_SIMD env > best
//     available, see simd/dispatch.h).
//  3. Per-point partial sums accumulate in a flat double array owned by the
//     caller (reused across blocks, no allocation in the sweep).
//
// Bit-compatibility: the element-outer order visits active elements in
// ascending flat index, which is exactly the order the per-point
// Beamformer::beamform_point() adds them in, and sums in double just like
// it — so a block sweep produces bit-identical voxels to a per-point sweep
// (the tests' oracle). The SIMD backends keep one double accumulator per
// point (lanes map 1:1 to points, elements fold in the same ascending
// order, mul + add, never FMA), so every backend is additionally
// bit-identical to scalar.
#ifndef US3D_BEAMFORM_DAS_KERNEL_H
#define US3D_BEAMFORM_DAS_KERNEL_H

#include <span>
#include <vector>

#include <cstdint>

#include "beamform/echo_buffer.h"
#include "beamform/quantized.h"
#include "delay/delay_plane.h"
#include "delay/quantized_plane.h"
#include "probe/apodization.h"
#include "simd/dispatch.h"

namespace us3d::beamform {

class DasKernel {
 public:
  explicit DasKernel(const probe::ApodizationMap& apodization);

  /// Elements with nonzero apodization weight, ascending flat index.
  const std::vector<int>& active_elements() const { return active_; }
  int active_count() const { return static_cast<int>(active_.size()); }

  /// Weighted delay-and-sum: acc[p] = sum over active elements e of
  /// w_e * echoes(e, plane(e, p)). Overwrites acc[0 .. plane.point_count()).
  /// Out-of-window delay indices read as zero, matching EchoBuffer::sample.
  /// `backend` selects the row kernel (simd/dispatch.h); kAuto resolves
  /// via US3D_SIMD / CPU detection, a concrete backend must be available
  /// on this host (resolve_backend throws otherwise). Every backend
  /// produces bit-identical sums.
  void accumulate_block(const EchoBuffer& echoes,
                        const delay::DelayPlane& plane, std::span<double> acc,
                        simd::DasBackend backend = simd::DasBackend::kAuto)
      const;

  /// Fixed-point mirror of accumulate_block for the quantized pipeline:
  /// acc[p] = sum over active elements of the uQ1.14-weighted int16
  /// samples, each product arithmetic-shifted by kQuantWeightFracBits
  /// before accumulating (the DasRowQFn contract). Exact integer
  /// arithmetic, so every backend is bit-identical — the parity suite in
  /// tests/beamform/test_das_kernel_quantized.cpp pins it. A real voxel is
  /// double(acc[p]) * echoes.lsb(). `acc` must hold at least
  /// plane.padded_point_count() entries: the rows are swept through their
  /// sentinel-filled padding (which accumulates exactly 0) so no backend
  /// runs a scalar row tail; entries past point_count() are scratch.
  void accumulate_block_quantized(
      const QuantizedEchoBuffer& echoes,
      const delay::QuantizedDelayPlane& plane, std::span<std::int32_t> acc,
      simd::DasBackend backend = simd::DasBackend::kAuto) const;

  /// Sum of the *quantized* weights in real units (raw / 2^14): the
  /// normalization constant of the quantized path, kept self-consistent
  /// with the words the kernels actually multiplied by.
  double quantized_total_weight() const { return quantized_total_weight_; }

 private:
  int elements_;                  // element count the kernel was built for
  std::vector<int> active_;       // flat indices of nonzero-weight elements
  std::vector<double> weights_;   // weight per active_ entry (same order)
  std::vector<std::int32_t> quantized_weights_;  // uQ1.14 words, same order
  double quantized_total_weight_ = 0.0;
};

}  // namespace us3d::beamform

#endif  // US3D_BEAMFORM_DAS_KERNEL_H
