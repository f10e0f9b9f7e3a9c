#include "runtime/frame_pipeline.h"

#include <algorithm>
#include <string>

#include "common/contracts.h"

namespace us3d::runtime {

namespace {

/// Refuses what partition_scan and the worker pool would otherwise trip
/// over later and less legibly: a volume without voxels would only be
/// refused at the first frame, and worker_threads < 1 by partition_scan's
/// bare `parts > 0`.
const PipelineConfig& checked(const imaging::SystemConfig& config,
                              const PipelineConfig& pipeline_config) {
  const imaging::VolumeSpec& v = config.volume;
  if (v.n_theta < 1 || v.n_phi < 1 || v.n_depth < 1) {
    throw ContractViolation(
        "FramePipeline: SystemConfig::volume has no voxels (n_theta=" +
        std::to_string(v.n_theta) + ", n_phi=" + std::to_string(v.n_phi) +
        ", n_depth=" + std::to_string(v.n_depth) + ")");
  }
  if (pipeline_config.worker_threads < 1) {
    throw ContractViolation(
        "FramePipeline: PipelineConfig::worker_threads must be >= 1, got " +
        std::to_string(pipeline_config.worker_threads));
  }
  return pipeline_config;
}

}  // namespace

FramePipeline::FramePipeline(const imaging::SystemConfig& config,
                             const probe::ApodizationMap& apodization,
                             const delay::DelayEngine& prototype,
                             const PipelineConfig& pipeline_config)
    : config_(config),
      beamformer_(config, apodization),
      pipeline_config_(checked(config, pipeline_config)),
      // Resolve the DAS backend once up front: a forced-but-unavailable
      // backend fails here, loudly, instead of mid-stream in a worker, and
      // a later environment change cannot make the stream diverge from
      // what the stats report. Workers receive this concrete backend,
      // never kAuto. Precision follows the same resolve-once rule.
      simd_backend_(simd::resolve_backend(pipeline_config.simd)),
      precision_(simd::resolve_precision(pipeline_config.precision)),
      ranges_(imaging::partition_scan(config.volume, pipeline_config_.order,
                                      pipeline_config_.worker_threads)),
      pool_(static_cast<int>(ranges_.size())) {
  US3D_EXPECTS(prototype.element_count() ==
               probe::MatrixProbe(config.probe).element_count());
  engines_.reserve(ranges_.size());
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    engines_.push_back(prototype.clone());
  }
  // One reusable sweep scratch per worker: DelayPlane, partial sums and
  // block storage grow to their high-water mark on the first frame and are
  // reused for every frame after — the steady state allocates nothing.
  scratch_.resize(ranges_.size());
  for (beamform::BeamformScratch& s : scratch_) s.profile = true;
}

void FramePipeline::set_worker_cap(int cap) {
  US3D_EXPECTS(cap >= 1);
  pool_.set_parallelism_cap(std::min(cap, worker_threads()));
}

int FramePipeline::worker_cap() const { return pool_.parallelism_cap(); }

StageStats FramePipeline::beamform_into(const beamform::EchoBuffer& echoes,
                                        const Vec3& origin,
                                        beamform::VolumeImage& image) {
  const beamform::BeamformOptions options{
      .order = pipeline_config_.order,
      .normalize = pipeline_config_.normalize,
      .origin = origin,
      .simd = simd_backend_,
      .precision = precision_,
  };
  // For the quantized path the frame's echoes are quantized exactly once,
  // here, before the workers fan out — every worker then reads the same
  // int16 buffer instead of each re-quantizing its slab's view.
  const bool quantized = precision_ == simd::Precision::kQuantized;
  if (quantized) qechoes_.quantize_from(echoes);
  pool_.run(static_cast<int>(ranges_.size()), [&](int worker) {
    delay::DelayEngine& engine = *engines_[static_cast<std::size_t>(worker)];
    engine.begin_frame(origin);
    const imaging::ScanRange& range = ranges_[static_cast<std::size_t>(worker)];
    beamform::BeamformScratch& scratch =
        scratch_[static_cast<std::size_t>(worker)];
    if (quantized) {
      beamformer_.reconstruct_span(qechoes_, engine, range, image, scratch,
                                   options);
    } else {
      beamformer_.reconstruct_span(echoes, engine, range, image, scratch,
                                   options);
    }
  });
  // Fold the workers' per-block profiles into one frame-level accumulator
  // (after the pool has quiesced, so no synchronization is needed).
  StageStats frame_blocks;
  for (beamform::BeamformScratch& s : scratch_) {
    frame_blocks.merge(s.profile_data);
    s.profile_data.reset();
  }
  return frame_blocks;
}

beamform::VolumeImage FramePipeline::reconstruct_frame(
    const beamform::EchoBuffer& echoes, const Vec3& origin) {
  beamform::VolumeImage image(config_.volume);
  beamform_into(echoes, origin, image);
  return image;
}

}  // namespace us3d::runtime
