// The frame sweeper — the runtime that makes on-the-fly delay generation
// pay off at the system level. A FramePipeline owns a persistent worker
// pool and one DelayEngine clone per worker; each frame's volume is
// partitioned into contiguous outer-axis slabs (nappes for kNappeByNappe)
// via imaging::partition_scan, and every worker sweeps its slab with its
// private engine through Beamformer::reconstruct_span. Because delay values
// depend only on (origin, focal point) — never on visit order — the parallel
// result is bit-identical to Beamformer::reconstruct on one thread; the
// property tests in tests/runtime/ pin that invariant for every engine.
//
// A FramePipeline sweeps one frame at a time and keeps no statistics.
// Streaming — bounded queues, overlapped stages, compounding, delivery
// accounting — is runtime/async_pipeline.h, which drives a FramePipeline
// and depends on it, never the other way round.
#ifndef US3D_RUNTIME_FRAME_PIPELINE_H
#define US3D_RUNTIME_FRAME_PIPELINE_H

#include <memory>
#include <string>
#include <vector>

#include "beamform/beamformer.h"
#include "beamform/volume_image.h"
#include "delay/engine.h"
#include "imaging/scan_order.h"
#include "imaging/system_config.h"
#include "probe/apodization.h"
#include "runtime/pipeline_stats.h"
#include "runtime/worker_pool.h"

namespace us3d::runtime {

struct PipelineConfig {
  /// Parallelism of the per-frame sweep. 1 reproduces the serial
  /// beamformer exactly (and shares its code path).
  int worker_threads = 1;
  imaging::ScanOrder order = imaging::ScanOrder::kNappeByNappe;
  /// Forwarded to BeamformOptions.
  bool normalize = true;
  /// SIMD backend for the DAS row kernel, forwarded to BeamformOptions.
  /// kAuto honours US3D_SIMD, then picks the best the CPU supports. The
  /// resolved choice is FramePipeline::simd_backend().
  simd::DasBackend simd = simd::DasBackend::kAuto;
  /// Arithmetic precision of the beamform hot path, forwarded to
  /// BeamformOptions. kAuto honours US3D_PRECISION, then defaults to
  /// kDouble. kQuantized quantizes each frame's echoes once (int16) and
  /// runs the integer sweep. The resolved choice is
  /// FramePipeline::precision().
  simd::Precision precision = simd::Precision::kAuto;
};

class FramePipeline {
 public:
  /// Clones `prototype` once per worker slab. The prototype itself is not
  /// retained and never computes — it only serves as the configured
  /// template (tables, formats, probe geometry). A volume without voxels
  /// or worker_threads < 1 is refused before any worker is spawned.
  FramePipeline(const imaging::SystemConfig& config,
                const probe::ApodizationMap& apodization,
                const delay::DelayEngine& prototype,
                const PipelineConfig& pipeline_config = {});

  /// Actual sweep parallelism: min(worker_threads, outer axis extent).
  int worker_threads() const { return static_cast<int>(ranges_.size()); }

  /// Caps how many pool members sweep concurrently, in [1,
  /// worker_threads()], without re-partitioning: slabs are claimed
  /// dynamically, so the volume (and its bit pattern) is unchanged — only
  /// the CPU concurrency drops. This is the hook the imaging service uses
  /// to re-share one global worker budget across sessions as they come
  /// and go. Thread-safe; takes effect from the next frame.
  void set_worker_cap(int cap);
  int worker_cap() const;
  const std::vector<imaging::ScanRange>& ranges() const { return ranges_; }
  std::string engine_name() const { return engines_.front()->name(); }
  const imaging::VolumeSpec& volume() const { return config_.volume; }

  /// Concrete DAS backend and precision, resolved once at construction
  /// (kAuto pinned to the environment/CPU seen then), so workers never
  /// re-resolve mid-stream and stats always name what actually ran.
  simd::DasBackend simd_backend() const { return simd_backend_; }
  simd::Precision precision() const { return precision_; }

  /// Parallel reconstruction of a single frame; bit-identical to
  /// Beamformer::reconstruct(echoes, engine, {order, normalize, origin}).
  beamform::VolumeImage reconstruct_frame(const beamform::EchoBuffer& echoes,
                                          const Vec3& origin);

  /// Parallel sweep of one frame into `image` (all slabs, one per worker).
  /// Returns the per-block timing gathered from the workers' scratches.
  /// One frame at a time: the worker pool is not reentrant.
  StageStats beamform_into(const beamform::EchoBuffer& echoes,
                           const Vec3& origin, beamform::VolumeImage& image);

 private:
  imaging::SystemConfig config_;
  beamform::Beamformer beamformer_;
  PipelineConfig pipeline_config_;
  simd::DasBackend simd_backend_ = simd::DasBackend::kScalar;
  simd::Precision precision_ = simd::Precision::kDouble;
  /// Frame-level echo quantization target for the kQuantized path: filled
  /// once per frame by beamform_into (frames are beamformed one at a time;
  /// only the sweep inside a frame is parallel), read by every worker.
  beamform::QuantizedEchoBuffer qechoes_;
  std::vector<imaging::ScanRange> ranges_;
  std::vector<std::unique_ptr<delay::DelayEngine>> engines_;  // per slab
  std::vector<beamform::BeamformScratch> scratch_;            // per slab
  WorkerPool pool_;
};

}  // namespace us3d::runtime

#endif  // US3D_RUNTIME_FRAME_PIPELINE_H
