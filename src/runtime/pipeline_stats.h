// Instrumentation for the streaming frame pipeline: per-stage latency
// accumulators (ingest / beamform / consume), sustained frame rate and
// voxel throughput. The JSON emitter is read by the imaging service's
// session JSON (examples/imaging_service.cpp prints it) and pinned by
// tests/runtime/test_pipeline_stats.cpp, so its keys should only grow,
// never be renamed.
#ifndef US3D_RUNTIME_PIPELINE_STATS_H
#define US3D_RUNTIME_PIPELINE_STATS_H

#include <cstdint>
#include <string>

#include "common/latency.h"

namespace us3d::runtime {

/// Latency accumulator for one pipeline stage, in seconds (the shared
/// accumulator under its historical runtime name).
using StageStats = ::us3d::LatencyStats;

/// One AsyncPipeline session's worth of measurements (AsyncPipeline owns
/// and returns them; nothing accumulates across sessions). Latencies are
/// wall-clock and
/// per frame: `ingest` covers pulling a frame from the FrameSource,
/// `beamform` the parallel reconstruction, `compound` the
/// synthetic-aperture accumulate stage (one record per insonification
/// folded into a compound volume), `consume` the sink callback (pipelined
/// stages overlap, which is why sustained fps can beat the sum of stage
/// means). `block` is finer-grained: one record per FocalBlock swept by
/// any worker (engine compute_block + DAS kernel + image scatter),
/// aggregated across workers after each frame.
///
/// Frame accounting is delivery-based: `frames` counts output volumes
/// actually handed to the sink (or returned to the caller), never work
/// that was beamformed and then lost. `insonifications` counts input
/// frames the pipeline accepted; with K-origin compounding one delivered
/// frame sums K insonifications. `dropped_frames` surfaces in-flight
/// insonifications that never reached a delivered volume (e.g. the sink
/// failed while they were queued or beamforming).
struct PipelineStats {
  StageStats ingest;
  StageStats beamform;
  StageStats compound;
  StageStats consume;
  StageStats block;
  std::int64_t frames = 0;    ///< volumes delivered to the sink/caller
  std::int64_t insonifications = 0;  ///< input frames accepted
  std::int64_t dropped_frames = 0;   ///< accepted but never delivered
  std::int64_t voxels = 0;    ///< total voxels delivered across frames
  /// Wall-clock seconds of the session: from the AsyncPipeline's
  /// construction to its finish() (live up to now in a mid-run snapshot).
  /// sustained_fps / voxels_per_second divide by it.
  double wall_s = 0.0;
  int worker_threads = 0;
  /// Current queue depth (bound on in-flight frames). Configured at
  /// construction; an adaptive load-shedding policy may shrink or regrow
  /// it mid-stream via AsyncPipeline::set_queue_depth, so dashboards can
  /// compare configured vs adaptive depth. 0 for hand-built stats.
  int queue_depth = 0;
  /// Allocated VolumeRing slots (fixed for the session; the adaptive
  /// depth is a soft cap within this allocation). 0 for hand-built stats.
  int ring_slots = 0;
  /// Resolved SIMD backend of the DAS row kernel ("scalar", "sse2",
  /// "avx2", "neon"; see simd/dispatch.h), recorded when the pipeline
  /// resolves its configuration. Empty for hand-built stats.
  std::string simd_backend;
  /// Resolved arithmetic precision of the beamform hot path ("double" or
  /// "quantized"; see simd/dispatch.h), recorded alongside the backend.
  /// Empty for hand-built stats.
  std::string precision;

  double sustained_fps() const {
    return wall_s > 0.0 ? static_cast<double>(frames) / wall_s : 0.0;
  }
  double voxels_per_second() const {
    return wall_s > 0.0 ? static_cast<double>(voxels) / wall_s : 0.0;
  }

  /// The session ledger's invariants: delivery never exceeds acceptance,
  /// drops are never negative and never exceed acceptance. AsyncPipeline
  /// asserts this on its final stats in finish(); the delivery accounting
  /// tests pin it.
  bool lifetime_coherent() const {
    return frames >= 0 && insonifications >= frames && dropped_frames >= 0 &&
           dropped_frames <= insonifications && voxels >= 0 && wall_s >= 0.0;
  }

  /// Human-readable multi-line summary.
  std::string to_string() const;
  /// Machine-readable single JSON object (no trailing newline).
  std::string to_json() const;
};

}  // namespace us3d::runtime

#endif  // US3D_RUNTIME_PIPELINE_STATS_H
