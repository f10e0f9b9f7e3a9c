#include "beamform/beamformer.h"

#include <algorithm>
#include <chrono>

#include "common/contracts.h"

namespace us3d::beamform {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

Beamformer::Beamformer(const imaging::SystemConfig& config,
                       const probe::ApodizationMap& apodization)
    : config_(config), apodization_(apodization), kernel_(apodization) {
  US3D_EXPECTS(apodization.elements_x() == config.probe.elements_x);
  US3D_EXPECTS(apodization.elements_y() == config.probe.elements_y);
  const double total = apodization_.total_weight();
  US3D_EXPECTS(total > 0.0);
  weight_norm_ = 1.0 / total;
  // Every weight could quantize to zero if the whole map sits below one
  // uQ1.14 LSB; that only trips a contract when a *quantized* normalized
  // sweep actually runs.
  const double qtotal = kernel_.quantized_total_weight();
  quantized_weight_norm_ = qtotal > 0.0 ? 1.0 / qtotal : 0.0;
}

int Beamformer::auto_block_points(int elements) {
  constexpr int kTargetBytes = 256 * 1024;
  const int points =
      kTargetBytes / (static_cast<int>(sizeof(std::int32_t)) * elements);
  return std::clamp(points, 16, 1024);
}

BeamformScratch& Beamformer::thread_scratch() {
  thread_local BeamformScratch scratch;
  return scratch;
}

float Beamformer::accumulate(const EchoBuffer& echoes,
                             std::span<const std::int32_t> delays) const {
  double acc = 0.0;
  const int n = static_cast<int>(delays.size());
  for (int e = 0; e < n; ++e) {
    const double w = apodization_.weight_flat(e);
    if (w == 0.0) continue;
    acc += w * echoes.sample(e, delays[static_cast<std::size_t>(e)]);
  }
  return static_cast<float>(acc);
}

VolumeImage Beamformer::reconstruct(const EchoBuffer& echoes,
                                    delay::DelayEngine& engine,
                                    const BeamformOptions& options) const {
  VolumeImage image(config_.volume);
  engine.begin_frame(options.origin);
  reconstruct_span(echoes, engine,
                   imaging::full_scan_range(config_.volume, options.order),
                   image, options);
  return image;
}

void Beamformer::reconstruct_span(const EchoBuffer& echoes,
                                  delay::DelayEngine& engine,
                                  const imaging::ScanRange& range,
                                  VolumeImage& image,
                                  BeamformScratch& scratch,
                                  const BeamformOptions& options) const {
  US3D_EXPECTS(echoes.element_count() == engine.element_count());
  US3D_EXPECTS(engine.frame_begun());
  US3D_EXPECTS(image.spec().total_points() == config_.volume.total_points());
  const imaging::VolumeGrid grid(config_.volume);

  const simd::Precision precision = simd::resolve_precision(options.precision);
  if (precision == simd::Precision::kQuantized) {
    // Quantize this caller's echoes into the scratch and run the integer
    // sweep. Quantization is deterministic, so repeating it per span (the
    // runtime avoids this via the QuantizedEchoBuffer overload) changes
    // nothing but time.
    scratch.qechoes.quantize_from(echoes);
    reconstruct_span_quantized(scratch.qechoes, engine, range, image, scratch,
                               options);
    return;
  }

  // Resolve the SIMD backend once per span, not per block: kAuto resolution
  // reads the environment and probes availability, which cannot change
  // mid-sweep. Blocks then carry a concrete backend down to the kernel.
  const simd::DasBackend backend = simd::resolve_backend(options.simd);
  const int block_points = options.block_points > 0
                               ? options.block_points
                               : auto_block_points(engine.element_count());
  if (scratch.acc.size() < static_cast<std::size_t>(block_points)) {
    scratch.acc.resize(static_cast<std::size_t>(block_points));
  }
  imaging::for_each_focal_block(
      grid, options.order, range, block_points, scratch.block_points,
      [&](const imaging::FocalBlock& block) {
        const auto t0 = scratch.profile ? Clock::now() : Clock::time_point{};
        engine.compute_block(block, scratch.plane);
        kernel_.accumulate_block(echoes, scratch.plane, scratch.acc, backend);
        for (int p = 0; p < block.size(); ++p) {
          // Cast to float before the normalization multiply, exactly as
          // beamform_point() does — keeps the block sweep bit-identical to
          // the per-point oracle (and the pre-block history).
          float v = static_cast<float>(scratch.acc[static_cast<std::size_t>(p)]);
          if (options.normalize) v *= static_cast<float>(weight_norm_);
          const imaging::FocalPoint& fp = block[p];
          image.at(fp.i_theta, fp.i_phi, fp.i_depth) = v;
        }
        if (scratch.profile) scratch.profile_data.record(seconds_since(t0));
      });
}

void Beamformer::reconstruct_span(const EchoBuffer& echoes,
                                  delay::DelayEngine& engine,
                                  const imaging::ScanRange& range,
                                  VolumeImage& image,
                                  const BeamformOptions& options) const {
  reconstruct_span(echoes, engine, range, image, thread_scratch(), options);
}

void Beamformer::reconstruct_span(const QuantizedEchoBuffer& echoes,
                                  delay::DelayEngine& engine,
                                  const imaging::ScanRange& range,
                                  VolumeImage& image,
                                  BeamformScratch& scratch,
                                  const BeamformOptions& options) const {
  reconstruct_span_quantized(echoes, engine, range, image, scratch, options);
}

void Beamformer::reconstruct_span_quantized(const QuantizedEchoBuffer& echoes,
                                            delay::DelayEngine& engine,
                                            const imaging::ScanRange& range,
                                            VolumeImage& image,
                                            BeamformScratch& scratch,
                                            const BeamformOptions& options)
    const {
  US3D_EXPECTS(echoes.element_count() == engine.element_count());
  US3D_EXPECTS(engine.frame_begun());
  US3D_EXPECTS(image.spec().total_points() == config_.volume.total_points());
  // Normalizing by a quantized total weight of zero would wipe the volume;
  // it means the apodization map sits entirely below one uQ1.14 LSB and
  // the quantized path cannot represent it.
  US3D_EXPECTS(!options.normalize || kernel_.quantized_total_weight() > 0.0);
  const imaging::VolumeGrid grid(config_.volume);

  const simd::DasBackend backend = simd::resolve_backend(options.simd);
  const int block_points = options.block_points > 0
                               ? options.block_points
                               : auto_block_points(engine.element_count());
  // Rounded up to a whole vector: the kernel sweeps rows through the
  // quantized plane's sentinel padding (see accumulate_block_quantized).
  const std::size_t qacc_points =
      static_cast<std::size_t>((block_points + 15) / 16 * 16);
  if (scratch.qacc.size() < qacc_points) {
    scratch.qacc.resize(qacc_points);
  }
  const std::int64_t samples = echoes.samples_per_element();
  const double lsb = echoes.lsb();
  imaging::for_each_focal_block(
      grid, options.order, range, block_points, scratch.block_points,
      [&](const imaging::FocalBlock& block) {
        const auto t0 = scratch.profile ? Clock::now() : Clock::time_point{};
        // The engine fills the same int32 plane as the double path; only
        // the per-block int16 requantization and the integer kernel
        // differ. Delay selection is therefore identical by construction.
        engine.compute_block(block, scratch.plane);
        scratch.qplane.quantize_from(scratch.plane, samples);
        kernel_.accumulate_block_quantized(echoes, scratch.qplane,
                                           scratch.qacc, backend);
        for (int p = 0; p < block.size(); ++p) {
          // Reconstruct in double (exact for any int32 accumulator), cast
          // to float before the normalization multiply like the double
          // path does.
          float v = static_cast<float>(
              static_cast<double>(scratch.qacc[static_cast<std::size_t>(p)]) *
              lsb);
          if (options.normalize) {
            v *= static_cast<float>(quantized_weight_norm_);
          }
          const imaging::FocalPoint& fp = block[p];
          image.at(fp.i_theta, fp.i_phi, fp.i_depth) = v;
        }
        if (scratch.profile) scratch.profile_data.record(seconds_since(t0));
      });
}

float Beamformer::beamform_point(const EchoBuffer& echoes,
                                 delay::DelayEngine& engine,
                                 const imaging::FocalPoint& fp) const {
  thread_local std::vector<std::int32_t> delays;
  delays.resize(static_cast<std::size_t>(engine.element_count()));
  engine.compute(fp, delays);
  return accumulate(echoes, delays) * static_cast<float>(weight_norm_);
}

}  // namespace us3d::beamform
