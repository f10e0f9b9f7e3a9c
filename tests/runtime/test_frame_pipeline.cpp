// FramePipeline invariants. The headline property — the reason the runtime
// may parallelize order-sensitive engines at all — is that parallel
// reconstruction is BIT-IDENTICAL to the serial Beamformer::reconstruct for
// every delay engine, every scan order and every thread count, because
// delay values depend only on (origin, focal point). The property tests
// sweep seeded-random system configurations to pin this down. Streaming
// through an AsyncPipeline is tested in test_async_pipeline.cpp.
#include "runtime/frame_pipeline.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "acoustic/echo_synth.h"
#include "acoustic/phantom.h"
#include "common/contracts.h"
#include "common/prng.h"
#include "delay/exact.h"
#include "delay/full_table.h"
#include "delay/synthetic_aperture.h"
#include "delay/tablefree.h"
#include "delay/tablesteer.h"
#include "probe/presets.h"

namespace us3d::runtime {
namespace {

using beamform::VolumeImage;

struct EngineCase {
  std::string label;
  std::function<std::unique_ptr<delay::DelayEngine>(
      const imaging::SystemConfig&)>
      make;
};

std::vector<EngineCase> pipeline_engines() {
  return {
      {"EXACT",
       [](const imaging::SystemConfig& cfg) {
         return std::make_unique<delay::ExactDelayEngine>(cfg);
       }},
      {"TABLEFREE",
       [](const imaging::SystemConfig& cfg) {
         return std::make_unique<delay::TableFreeEngine>(cfg);
       }},
      {"TABLESTEER-18b",
       [](const imaging::SystemConfig& cfg) {
         return std::make_unique<delay::TableSteerEngine>(
             cfg, delay::TableSteerConfig::bits18());
       }},
      {"FULLTABLE",
       [](const imaging::SystemConfig& cfg) {
         return std::make_unique<delay::FullTableEngine>(cfg);
       }},
  };
}

/// Voxel-for-voxel equality (float ==, no tolerance).
void expect_bit_identical(const VolumeImage& a, const VolumeImage& b,
                          const std::string& what) {
  const auto& s = a.spec();
  ASSERT_EQ(s.total_points(), b.spec().total_points()) << what;
  for (int it = 0; it < s.n_theta; ++it) {
    for (int ip = 0; ip < s.n_phi; ++ip) {
      for (int id = 0; id < s.n_depth; ++id) {
        ASSERT_EQ(a.at(it, ip, id), b.at(it, ip, id))
            << what << " differs at (" << it << "," << ip << "," << id << ")";
      }
    }
  }
}

acoustic::Phantom random_phantom(const imaging::SystemConfig& cfg,
                                 SplitMix64& rng, int scatterers) {
  const imaging::VolumeGrid grid(cfg.volume);
  acoustic::Phantom phantom;
  for (int i = 0; i < scatterers; ++i) {
    const int it = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(cfg.volume.n_theta)));
    const int ip = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(cfg.volume.n_phi)));
    const int id = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(cfg.volume.n_depth)));
    phantom.push_back(acoustic::PointScatterer{
        grid.focal_point(it, ip, id).position, rng.next_in(0.5, 1.5)});
  }
  return phantom;
}

probe::ApodizationMap rect_apod(const imaging::SystemConfig& cfg) {
  return probe::ApodizationMap(probe::MatrixProbe(cfg.probe),
                               probe::WindowKind::kRect);
}

TEST(FramePipeline, ParallelIsBitIdenticalToSerialForEveryEngine) {
  const imaging::SystemConfig cfg = imaging::scaled_system(8, 9, 30);
  SplitMix64 rng(42);
  const auto echoes =
      acoustic::synthesize_echoes(cfg, random_phantom(cfg, rng, 3));
  const auto apod = rect_apod(cfg);
  const beamform::Beamformer serial(cfg, apod);

  for (const EngineCase& c : pipeline_engines()) {
    auto serial_engine = c.make(cfg);
    const VolumeImage reference = serial.reconstruct(echoes, *serial_engine);
    for (const int threads : {1, 2, 3, 8}) {
      auto prototype = c.make(cfg);
      FramePipeline pipeline(cfg, apod, *prototype,
                             PipelineConfig{.worker_threads = threads});
      const VolumeImage parallel = pipeline.reconstruct_frame(echoes, Vec3{});
      expect_bit_identical(reference, parallel,
                           c.label + " threads=" + std::to_string(threads));
    }
  }
}

TEST(FramePipeline, BitIdenticalInBothScanOrders) {
  const imaging::SystemConfig cfg = imaging::scaled_system(6, 8, 24);
  SplitMix64 rng(7);
  const auto echoes =
      acoustic::synthesize_echoes(cfg, random_phantom(cfg, rng, 2));
  const auto apod = rect_apod(cfg);
  const beamform::Beamformer serial(cfg, apod);
  for (const imaging::ScanOrder order :
       {imaging::ScanOrder::kNappeByNappe,
        imaging::ScanOrder::kScanlineByScanline}) {
    delay::TableFreeEngine engine(cfg);
    const VolumeImage reference =
        serial.reconstruct(echoes, engine, {.order = order});
    delay::TableFreeEngine prototype(cfg);
    FramePipeline pipeline(
        cfg, apod, prototype,
        PipelineConfig{.worker_threads = 4, .order = order});
    expect_bit_identical(reference, pipeline.reconstruct_frame(echoes, Vec3{}),
                         std::string("order=") + to_string(order));
  }
}

TEST(FramePipeline, PropertyRandomConfigsStayBitIdentical) {
  // Seeded-PRNG sweep over system geometry, engine, thread count and
  // phantom: the parallel/serial equivalence must hold for all of them.
  SplitMix64 rng(0xC0FFEEu);
  const auto engines = pipeline_engines();
  for (int trial = 0; trial < 6; ++trial) {
    const int side = 4 + static_cast<int>(rng.next_below(5));    // 4..8
    const int lines = 5 + static_cast<int>(rng.next_below(5));   // 5..9
    const int depths = 16 + static_cast<int>(rng.next_below(17)); // 16..32
    const imaging::SystemConfig cfg =
        imaging::scaled_system(side, lines, depths);
    const auto& engine_case =
        engines[static_cast<std::size_t>(rng.next_below(engines.size()))];
    const int threads = 2 + static_cast<int>(rng.next_below(5));  // 2..6
    const auto order = rng.next_below(2) == 0
                           ? imaging::ScanOrder::kNappeByNappe
                           : imaging::ScanOrder::kScanlineByScanline;
    const auto echoes =
        acoustic::synthesize_echoes(cfg, random_phantom(cfg, rng, 2));
    const auto apod = rect_apod(cfg);

    auto serial_engine = engine_case.make(cfg);
    const VolumeImage reference = beamform::Beamformer(cfg, apod).reconstruct(
        echoes, *serial_engine, {.order = order});
    auto prototype = engine_case.make(cfg);
    FramePipeline pipeline(
        cfg, apod, *prototype,
        PipelineConfig{.worker_threads = threads, .order = order});
    expect_bit_identical(
        reference, pipeline.reconstruct_frame(echoes, Vec3{}),
        "trial " + std::to_string(trial) + " " + engine_case.label +
            " side=" + std::to_string(side) + " threads=" +
            std::to_string(threads));
  }
}

TEST(FramePipeline, RepeatedRunsAreDeterministic) {
  const imaging::SystemConfig cfg = imaging::scaled_system(6, 7, 20);
  SplitMix64 rng(99);
  const auto echoes =
      acoustic::synthesize_echoes(cfg, random_phantom(cfg, rng, 3));
  const auto apod = rect_apod(cfg);
  delay::TableFreeEngine prototype(cfg);
  FramePipeline pipeline(cfg, apod, prototype,
                         PipelineConfig{.worker_threads = 4});
  const VolumeImage first = pipeline.reconstruct_frame(echoes, Vec3{});
  for (int repeat = 0; repeat < 3; ++repeat) {
    expect_bit_identical(first, pipeline.reconstruct_frame(echoes, Vec3{}),
                         "repeat " + std::to_string(repeat));
  }
}

TEST(FramePipeline, SyntheticApertureOriginsFlowThroughTheWorkers) {
  const imaging::SystemConfig cfg = imaging::scaled_system(6, 7, 20);
  const delay::SyntheticAperturePlan plan =
      delay::diverging_wave_plan(3, 3.0e-3);
  const Vec3 origin{0.0, 0.0, plan.origin_z[1]};
  SplitMix64 rng(5);
  acoustic::SynthesisOptions synth;
  synth.origin = origin;
  const auto echoes =
      acoustic::synthesize_echoes(cfg, random_phantom(cfg, rng, 2), synth);
  const auto apod = rect_apod(cfg);

  delay::SyntheticApertureSteerEngine serial_engine(cfg, plan);
  const VolumeImage reference = beamform::Beamformer(cfg, apod).reconstruct(
      echoes, serial_engine, {.origin = origin});
  delay::SyntheticApertureSteerEngine prototype(cfg, plan);
  FramePipeline pipeline(cfg, apod, prototype,
                         PipelineConfig{.worker_threads = 3});
  expect_bit_identical(reference, pipeline.reconstruct_frame(echoes, origin),
                       "synthetic aperture");
}

TEST(FramePipeline, ThreadCountClampsToOuterExtent) {
  const imaging::SystemConfig cfg = imaging::scaled_system(4, 5, 6);
  delay::ExactDelayEngine prototype(cfg);
  FramePipeline pipeline(cfg, rect_apod(cfg), prototype,
                         PipelineConfig{.worker_threads = 64});
  EXPECT_EQ(pipeline.worker_threads(), 6);  // n_depth nappes
}

TEST(FramePipeline, RefusesAVolumeWithoutVoxelsNamingTheField) {
  // Regression: a zero-voxel volume used to be accepted — the pool was
  // spawned over its nappes — and only refused at the first frame.
  imaging::SystemConfig cfg = imaging::scaled_system(4, 5, 8);
  cfg.volume.n_theta = 0;
  cfg.volume.n_phi = 0;
  delay::ExactDelayEngine prototype(imaging::scaled_system(4, 5, 8));
  try {
    FramePipeline pipeline(cfg, rect_apod(cfg), prototype,
                           PipelineConfig{.worker_threads = 2});
    FAIL() << "a volume without voxels was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("volume"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("n_theta=0"), std::string::npos)
        << e.what();
  }
}

TEST(FramePipeline, RefusesZeroWorkerThreadsNamingTheField) {
  const imaging::SystemConfig cfg = imaging::scaled_system(4, 5, 8);
  delay::ExactDelayEngine prototype(cfg);
  for (const int threads : {0, -3}) {
    try {
      FramePipeline pipeline(cfg, rect_apod(cfg), prototype,
                             PipelineConfig{.worker_threads = threads});
      FAIL() << "worker_threads=" << threads << " was accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("worker_threads"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FramePipeline, WorkerCapThrottlesWithoutChangingTheVolume) {
  const imaging::SystemConfig cfg = imaging::scaled_system(6, 7, 20);
  SplitMix64 rng(97);
  const auto echoes = acoustic::synthesize_echoes(
      cfg, random_phantom(cfg, rng, 3));
  delay::TableFreeEngine prototype(cfg);

  FramePipeline serial(cfg, rect_apod(cfg), prototype,
                       PipelineConfig{.worker_threads = 1});
  const VolumeImage reference = serial.reconstruct_frame(echoes, Vec3{});

  FramePipeline pipeline(cfg, rect_apod(cfg), prototype,
                         PipelineConfig{.worker_threads = 4});
  EXPECT_EQ(pipeline.worker_cap(), pipeline.worker_threads());
  for (const int cap : {1, 2, 4}) {
    pipeline.set_worker_cap(cap);
    EXPECT_EQ(pipeline.worker_cap(), std::min(cap, pipeline.worker_threads()));
    const VolumeImage capped = pipeline.reconstruct_frame(echoes, Vec3{});
    expect_bit_identical(reference, capped,
                         "worker cap " + std::to_string(cap));
  }
  // The cap clamps to the pool size rather than growing it.
  pipeline.set_worker_cap(64);
  EXPECT_EQ(pipeline.worker_cap(), pipeline.worker_threads());
  EXPECT_THROW(pipeline.set_worker_cap(0), ContractViolation);
}

}  // namespace
}  // namespace us3d::runtime
