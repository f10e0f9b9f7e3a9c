// Property tests for the declared accuracy bounds of the quantized int16
// pipeline (beamform/quantized.h) and for its runtime plumbing. Three
// claims are pinned here:
//
//  1. Index quantization adds ZERO delay error: every in-window entry of
//     the int32 DelayPlane survives int16 quantization exactly, so the
//     quantized path's delay-error budget (kQuantMaxDelayErrorSamples) is
//     spent entirely by the engine's own rounding, which the
//     delay/error_harness measures directly.
//  2. The quantized reconstruction stays within the declared image-quality
//     bounds against the exact double volume (acoustic/metrics PSNR >=
//     kQuantMinPsnrDb on the synthesized phantoms).
//  3. The parallel runtime's quantized frames are bit-identical to the
//     serial quantized beamformer, and the resolved precision is reported
//     in PipelineStats.
//
// Echo quantization also refuses non-finite samples instead of feeding
// them to the peak scale and std::lround.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "acoustic/echo_synth.h"
#include "acoustic/metrics.h"
#include "acoustic/phantom.h"
#include "beamform/beamformer.h"
#include "beamform/quantized.h"
#include "common/contracts.h"
#include "common/prng.h"
#include "delay/error_harness.h"
#include "delay/full_table.h"
#include "delay/quantized_plane.h"
#include "delay/tablefree.h"
#include "delay/tablesteer.h"
#include "imaging/scan_order.h"
#include "imaging/system_config.h"
#include "probe/apodization.h"
#include "probe/presets.h"
#include "runtime/async_pipeline.h"
#include "runtime/frame_pipeline.h"

namespace us3d::beamform {
namespace {

imaging::SystemConfig small_cfg() { return imaging::scaled_system(6, 7, 24); }

acoustic::Phantom corner_phantom(const imaging::SystemConfig& cfg) {
  const imaging::VolumeGrid grid(cfg.volume);
  acoustic::Phantom phantom;
  phantom.push_back(acoustic::PointScatterer{
      grid.focal_point(1, 1, cfg.volume.n_depth / 3).position, 1.0});
  phantom.push_back(acoustic::PointScatterer{
      grid.focal_point(cfg.volume.n_theta - 2, cfg.volume.n_phi - 2,
                       2 * cfg.volume.n_depth / 3)
          .position,
      0.7});
  phantom.push_back(acoustic::PointScatterer{
      grid.focal_point(cfg.volume.n_theta / 2, cfg.volume.n_phi / 2,
                       cfg.volume.n_depth / 2)
          .position,
      1.3});
  return phantom;
}

probe::ApodizationMap hann_apod(const imaging::SystemConfig& cfg) {
  return probe::ApodizationMap(probe::MatrixProbe(cfg.probe),
                               probe::WindowKind::kHann);
}

/// Claim 1, directly at the plane level: sweep a table engine over every
/// focal block of the volume and check the int16 plane against the int32
/// plane entry for entry. In-window indices must be preserved EXACTLY
/// (zero added delay error); everything else must be the sentinel.
TEST(QuantizedDelayError, IndexQuantizationAddsZeroDelayError) {
  const imaging::SystemConfig cfg = small_cfg();
  delay::TableSteerEngine engine(cfg, delay::TableSteerConfig::bits18());
  engine.begin_frame(Vec3{});

  const std::int64_t samples = 96;  // shorter than any real window: forces
                                    // genuine out-of-window entries too
  const imaging::VolumeGrid grid(cfg.volume);
  const auto order = imaging::ScanOrder::kNappeByNappe;
  delay::DelayPlane plane;
  delay::QuantizedDelayPlane qplane;
  std::vector<imaging::FocalPoint> buffer;
  std::int64_t in_window = 0;
  std::int64_t sentinels = 0;
  imaging::for_each_focal_block(
      grid, order, imaging::full_scan_range(cfg.volume, order), 64, buffer,
      [&](const imaging::FocalBlock& block) {
        engine.compute_block(block, plane);
        qplane.quantize_from(plane, samples);
        for (int e = 0; e < plane.element_count(); ++e) {
          for (int p = 0; p < plane.point_count(); ++p) {
            const std::int32_t d = plane.at(e, p);
            const std::int16_t q = qplane.at(e, p);
            if (d >= 0 && d < samples) {
              // Exact preservation — the |quantized - original| delay
              // error of the int16 path is identically zero.
              ASSERT_EQ(static_cast<std::int32_t>(q), d);
              ++in_window;
            } else {
              ASSERT_EQ(static_cast<std::int64_t>(q), samples);
              ++sentinels;
            }
          }
        }
      });
  // The sweep must have exercised both sides of the window to mean
  // anything.
  EXPECT_GT(in_window, 0);
  EXPECT_GT(sentinels, 0);
}

/// Claim 1, at the harness level: with an engine whose only error is
/// rounding exact delays to integer indices (FullTable), the end-to-end
/// selection error of the quantized path — engine rounding plus the zero
/// added by int16 quantization — stays within the declared
/// kQuantMaxDelayErrorSamples budget.
TEST(QuantizedDelayError, FullTableSelectionStaysWithinTheDeclaredBudget) {
  const imaging::SystemConfig cfg = small_cfg();
  delay::FullTableEngine engine(cfg);
  const delay::SelectionErrorReport report = delay::measure_selection_error(
      cfg, engine, imaging::ScanOrder::kNappeByNappe, delay::SweepStrides{});
  EXPECT_GT(report.pairs_total, 0);
  EXPECT_LE(report.all.max_abs(), kQuantMaxDelayErrorSamples);
}

/// Claim 2: quantized vs exact double volumes on a synthesized phantom.
/// sQ0.15 peak scaling plus uQ1.14 weights keeps the PSNR far above the
/// declared floor; the assertion is against the declared constant so a
/// format regression (fewer effective bits anywhere in the chain) fails
/// loudly.
TEST(QuantizedImageQuality, PsnrAgainstDoubleMeetsTheDeclaredBound) {
  const imaging::SystemConfig cfg = small_cfg();
  const auto echoes = acoustic::synthesize_echoes(cfg, corner_phantom(cfg));
  const auto apod = hann_apod(cfg);
  const Beamformer bf(cfg, apod);
  delay::TableFreeEngine engine(cfg);

  BeamformOptions dopts;
  dopts.precision = simd::Precision::kDouble;
  const VolumeImage exact = bf.reconstruct(echoes, engine, dopts);

  BeamformOptions qopts;
  qopts.precision = simd::Precision::kQuantized;
  const VolumeImage quantized = bf.reconstruct(echoes, engine, qopts);

  const acoustic::VolumeDiff diff = acoustic::compare_volumes(exact, quantized);
  EXPECT_GE(diff.psnr_db, kQuantMinPsnrDb)
      << "max_abs_diff=" << diff.max_abs_diff << " rms=" << diff.rms_diff;
}

/// Claim 3a: a multi-worker quantized FramePipeline is bit-identical to
/// the serial quantized Beamformer — the same guarantee the double path
/// has always made, extended to the integer sweep.
TEST(QuantizedRuntime, ParallelQuantizedIsBitIdenticalToSerialQuantized) {
  const imaging::SystemConfig cfg = small_cfg();
  const auto echoes = acoustic::synthesize_echoes(cfg, corner_phantom(cfg));
  const auto apod = hann_apod(cfg);
  const Beamformer serial(cfg, apod);
  delay::TableSteerEngine serial_engine(cfg,
                                        delay::TableSteerConfig::bits18());

  BeamformOptions qopts;
  qopts.precision = simd::Precision::kQuantized;
  const VolumeImage reference =
      serial.reconstruct(echoes, serial_engine, qopts);

  for (const int threads : {1, 2, 3}) {
    delay::TableSteerEngine prototype(cfg, delay::TableSteerConfig::bits18());
    runtime::FramePipeline pipeline(
        cfg, apod, prototype,
        runtime::PipelineConfig{.worker_threads = threads,
                                .precision = simd::Precision::kQuantized});
    const VolumeImage parallel = pipeline.reconstruct_frame(echoes, Vec3{});
    const auto& s = reference.spec();
    for (int it = 0; it < s.n_theta; ++it) {
      for (int ip = 0; ip < s.n_phi; ++ip) {
        for (int id = 0; id < s.n_depth; ++id) {
          ASSERT_EQ(reference.at(it, ip, id), parallel.at(it, ip, id))
              << "threads=" << threads << " at (" << it << "," << ip << ","
              << id << ")";
        }
      }
    }
  }
}

/// Claim 3b: the resolved precision is observable — PipelineStats carries
/// it as a string and exports it under the "precision" JSON key.
TEST(QuantizedRuntime, ResolvedPrecisionIsReportedInStats) {
  const imaging::SystemConfig cfg = small_cfg();
  const auto apod = hann_apod(cfg);
  delay::TableFreeEngine prototype(cfg);

  runtime::FramePipeline quantized(
      cfg, apod, prototype,
      runtime::PipelineConfig{.precision = simd::Precision::kQuantized});
  EXPECT_EQ(quantized.precision(), simd::Precision::kQuantized);
  const runtime::PipelineStats quantized_stats =
      runtime::AsyncPipeline(quantized).stats_snapshot();
  EXPECT_EQ(quantized_stats.precision, "quantized");
  EXPECT_NE(quantized_stats.to_json().find("\"precision\":\"quantized\""),
            std::string::npos);

  // Explicit, not kAuto: this case must hold even under a
  // US3D_PRECISION=quantized environment cell.
  runtime::FramePipeline exact(
      cfg, apod, prototype,
      runtime::PipelineConfig{.precision = simd::Precision::kDouble});
  EXPECT_EQ(runtime::AsyncPipeline(exact).stats_snapshot().precision,
            "double");
}

TEST(QuantizedEchoBuffer, RefusesNonFiniteSamplesNamingThem) {
  // NaN slips past std::max in the peak scan and an infinite peak zeroes
  // the scale (Inf * 0 = NaN), so either would reach std::lround.
  const imaging::SystemConfig cfg = small_cfg();
  const auto good = acoustic::synthesize_echoes(cfg, corner_phantom(cfg));
  QuantizedEchoBuffer q;
  q.quantize_from(good);
  const double lsb = q.lsb();
  const std::vector<std::int16_t> row1(q.row(1).begin(), q.row(1).end());

  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    EchoBuffer echoes = good;
    echoes.row(1)[7] = bad;
    try {
      q.quantize_from(echoes);
      ADD_FAILURE() << "sample " << bad << " was accepted";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("element 1"), std::string::npos) << what;
      EXPECT_NE(what.find("sample 7"), std::string::npos) << what;
    }
    // A refused buffer leaves the previous quantization in place.
    EXPECT_EQ(q.lsb(), lsb);
    EXPECT_TRUE(std::equal(row1.begin(), row1.end(), q.row(1).begin()));
  }
}

}  // namespace
}  // namespace us3d::beamform
