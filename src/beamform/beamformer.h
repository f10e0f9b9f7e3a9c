// Receive delay-and-sum beamformer (Eq. 1): for every focal point S, sum
// the apodized echo samples selected by the delay engine across elements.
// The engine is a plug-in, so the same beamformer runs with EXACT,
// TABLEFREE, TABLESTEER or FULLTABLE delays — image quality then directly
// reflects delay accuracy, as Sec. II-A argues.
//
// The hot path is block-based: reconstruct_span decomposes its range into
// smooth-order FocalBlocks, asks the engine for a DelayPlane per block
// (one virtual call per run instead of per voxel) and feeds it to the
// DasKernel. A per-point sweep through beamform_point() is bit-identical
// to it and serves as the test oracle (tests/beamform/test_das_kernel.cpp).
// All mutable sweep state lives in a caller-owned BeamformScratch so
// workers reuse one scratch per thread and frames allocate nothing.
#ifndef US3D_BEAMFORM_BEAMFORMER_H
#define US3D_BEAMFORM_BEAMFORMER_H

#include <cstdint>
#include <vector>

#include "beamform/das_kernel.h"
#include "beamform/echo_buffer.h"
#include "beamform/volume_image.h"
#include "common/latency.h"
#include "delay/delay_plane.h"
#include "delay/engine.h"
#include "imaging/scan_order.h"
#include "imaging/system_config.h"
#include "probe/apodization.h"

namespace us3d::beamform {

struct BeamformOptions {
  imaging::ScanOrder order = imaging::ScanOrder::kNappeByNappe;
  /// Normalize each voxel by the total apodization weight.
  bool normalize = true;
  /// Transmit origin for this frame, forwarded to the delay engine's
  /// begin_frame(). Synthetic-aperture shots pass their virtual source.
  Vec3 origin{};
  /// Max focal points per block; 0 picks a size that keeps the DelayPlane
  /// around 256 KiB (see Beamformer::auto_block_points).
  int block_points = 0;
  /// SIMD backend for the DAS row kernel. kAuto resolves via the US3D_SIMD
  /// env var, then the best backend the CPU supports; forcing an
  /// unavailable backend throws (simd/dispatch.h). All backends produce
  /// bit-identical volumes.
  simd::DasBackend simd = simd::DasBackend::kAuto;
  /// Arithmetic precision of the sweep. kAuto resolves via US3D_PRECISION
  /// then defaults to kDouble (the exact reference). kQuantized runs the
  /// int16 end-to-end fixed-point path (beamform/quantized.h).
  simd::Precision precision = simd::Precision::kAuto;
};

/// Reusable sweep state: the DelayPlane the engine fills, the partial-sum
/// array the kernel accumulates into and the block point storage.
/// Everything grows once to the high-water mark and is then reused — one
/// scratch per worker thread makes whole frames allocation-free.
struct BeamformScratch {
  delay::DelayPlane plane;
  std::vector<double> acc;
  std::vector<imaging::FocalPoint> block_points;
  /// Quantized-path mirrors (int16 delay plane, int32 partial sums, and
  /// the echo quantization target for callers that pass a float
  /// EchoBuffer). Untouched by double-precision sweeps.
  delay::QuantizedDelayPlane qplane;
  std::vector<std::int32_t> qacc;
  QuantizedEchoBuffer qechoes;
  /// When true, reconstruct_span times each block into `profile_data`
  /// (one record per FocalBlock swept).
  bool profile = false;
  LatencyStats profile_data;
};

class Beamformer {
 public:
  Beamformer(const imaging::SystemConfig& config,
             const probe::ApodizationMap& apodization);

  /// Reconstructs the whole volume with delays from `engine`. Equivalent
  /// to begin_frame() + reconstruct_span() over the full scan range.
  VolumeImage reconstruct(const EchoBuffer& echoes,
                          delay::DelayEngine& engine,
                          const BeamformOptions& options = {}) const;

  /// Beamforms one outer-axis slab of the volume into `image` (only the
  /// voxels inside `range` are written). The caller owns the frame
  /// protocol: `engine.begin_frame()` must already have been called with
  /// the frame's origin. This is the unit of work the parallel runtime
  /// hands to each worker — sweeping disjoint ranges of the same frame
  /// with independent engine clones writes disjoint voxels and is
  /// bit-identical to the serial sweep. `scratch` is the worker's reusable
  /// sweep state.
  void reconstruct_span(const EchoBuffer& echoes, delay::DelayEngine& engine,
                        const imaging::ScanRange& range, VolumeImage& image,
                        BeamformScratch& scratch,
                        const BeamformOptions& options = {}) const;

  /// Convenience overload backed by a thread-local scratch (tests,
  /// one-shot callers). Concurrent sweeps from different threads are fine;
  /// each thread reuses its own buffers.
  void reconstruct_span(const EchoBuffer& echoes, delay::DelayEngine& engine,
                        const imaging::ScanRange& range, VolumeImage& image,
                        const BeamformOptions& options = {}) const;

  /// Quantized-path overload taking echoes already quantized by the
  /// caller: the runtime quantizes each frame's EchoBuffer once and hands
  /// the same QuantizedEchoBuffer to every worker span, instead of paying
  /// the quantization per span. Passing this buffer *is* the precision
  /// choice — options.precision is not consulted — and the sweep is
  /// bit-identical to the float-EchoBuffer entry point resolving to
  /// kQuantized (quantization is deterministic).
  void reconstruct_span(const QuantizedEchoBuffer& echoes,
                        delay::DelayEngine& engine,
                        const imaging::ScanRange& range, VolumeImage& image,
                        BeamformScratch& scratch,
                        const BeamformOptions& options = {}) const;

  /// Beamforms a single focal point, normalized: one compute() and one
  /// weighted sum, the arithmetic of the block path voxel for voxel (the
  /// tests' per-point oracle). Reuses a thread-local delay row — no
  /// per-call heap allocation.
  float beamform_point(const EchoBuffer& echoes, delay::DelayEngine& engine,
                       const imaging::FocalPoint& fp) const;

  const DasKernel& kernel() const { return kernel_; }

  /// The block size used when BeamformOptions::block_points is 0: as many
  /// points as keep `elements` DelayPlane rows near 256 KiB, clamped to
  /// [16, 1024].
  static int auto_block_points(int elements);

 private:
  float accumulate(const EchoBuffer& echoes,
                   std::span<const std::int32_t> delays) const;
  void reconstruct_span_quantized(const QuantizedEchoBuffer& echoes,
                                  delay::DelayEngine& engine,
                                  const imaging::ScanRange& range,
                                  VolumeImage& image,
                                  BeamformScratch& scratch,
                                  const BeamformOptions& options) const;
  static BeamformScratch& thread_scratch();

  imaging::SystemConfig config_;
  probe::ApodizationMap apodization_;
  DasKernel kernel_;
  double weight_norm_;
  double quantized_weight_norm_;
};

}  // namespace us3d::beamform

#endif  // US3D_BEAMFORM_BEAMFORMER_H
