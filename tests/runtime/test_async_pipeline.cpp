// AsyncPipeline invariants. The headline properties: (1) the async
// bounded-queue pipeline produces volumes BIT-IDENTICAL to the serial
// Beamformer for every delay engine — overlap changes scheduling, never
// values; (2) K-origin compounding is bit-identical to beamforming each
// insonification serially and summing in shot order; (3) backpressure is
// real — try_submit refuses once the bounded queues and the VolumeRing
// are full — and failures (sink or worker) stop the stream with
// delivery-based accounting: frames means delivered, everything else is
// surfaced as dropped_frames. run() keeps all of that when it drives a
// FrameSource, propagates source, sink and worker exceptions after the
// stages quiesce, and leaves the FramePipeline ready for the next session.
#include "runtime/async_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "acoustic/echo_synth.h"
#include "acoustic/phantom.h"
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
    const int it = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(cfg.volume.n_theta)));
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

/// One frame per entry of `origins`, sequence-numbered in order.
std::vector<EchoFrame> origin_frames(const imaging::SystemConfig& cfg,
                                     const std::vector<Vec3>& origins,
                                     std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<EchoFrame> frames;
  std::int64_t seq = 0;
  for (const Vec3& origin : origins) {
    acoustic::SynthesisOptions synth;
    synth.origin = origin;
    frames.push_back(EchoFrame{
        acoustic::synthesize_echoes(cfg, random_phantom(cfg, rng, 2), synth),
        origin, seq++});
  }
  return frames;
}

struct EngineCase {
  std::string label;
  std::function<std::unique_ptr<delay::DelayEngine>(
      const imaging::SystemConfig&)>
      make;
  /// Frame origins this engine accepts (SA cycles its plan; the
  /// fixed-table engines require the centred origin).
  std::vector<Vec3> origins_for(int frames) const {
    std::vector<Vec3> origins;
    for (int i = 0; i < frames; ++i) {
      origins.push_back(plan_origins.empty()
                            ? Vec3{}
                            : plan_origins[static_cast<std::size_t>(i) %
                                           plan_origins.size()]);
    }
    return origins;
  }
  std::vector<Vec3> plan_origins;  // empty for non-SA engines
};

std::vector<EngineCase> all_engines() {
  const delay::SyntheticAperturePlan plan = delay::diverging_wave_plan(3, 3.0e-3);
  std::vector<Vec3> sa_origins;
  for (const double z : plan.origin_z) sa_origins.push_back(Vec3{0.0, 0.0, z});
  return {
      {"EXACT",
       [](const imaging::SystemConfig& cfg) {
         return std::make_unique<delay::ExactDelayEngine>(cfg);
       },
       {}},
      {"TABLEFREE",
       [](const imaging::SystemConfig& cfg) {
         return std::make_unique<delay::TableFreeEngine>(cfg);
       },
       {}},
      {"TABLESTEER-18b",
       [](const imaging::SystemConfig& cfg) {
         return std::make_unique<delay::TableSteerEngine>(
             cfg, delay::TableSteerConfig::bits18());
       },
       {}},
      {"FULLTABLE",
       [](const imaging::SystemConfig& cfg) {
         return std::make_unique<delay::FullTableEngine>(cfg);
       },
       {}},
      {"TABLESTEER-SA",
       [plan](const imaging::SystemConfig& cfg) {
         return std::make_unique<delay::SyntheticApertureSteerEngine>(cfg,
                                                                      plan);
       },
       sa_origins},
  };
}

/// Per-frame serial references (one reconstruct per insonification).
std::vector<VolumeImage> serial_references(const imaging::SystemConfig& cfg,
                                           const EngineCase& c,
                                           const std::vector<EchoFrame>& frames) {
  const auto apod = rect_apod(cfg);
  const beamform::Beamformer serial(cfg, apod);
  std::vector<VolumeImage> refs;
  for (const EchoFrame& f : frames) {
    auto engine = c.make(cfg);
    refs.push_back(serial.reconstruct(f.echoes, *engine, {.origin = f.origin}));
  }
  return refs;
}

TEST(AsyncPipeline, OutputsMatchSerialForEveryEngineInOrder) {
  const imaging::SystemConfig cfg = imaging::scaled_system(6, 7, 20);
  const auto apod = rect_apod(cfg);
  for (const EngineCase& c : all_engines()) {
    auto frames = origin_frames(cfg, c.origins_for(4), 17);
    const auto refs = serial_references(cfg, c, frames);

    auto prototype = c.make(cfg);
    FramePipeline pipeline(cfg, apod, *prototype,
                           PipelineConfig{.worker_threads = 3});
    AsyncPipeline async(pipeline, AsyncOptions{.depth = 3});
    for (EchoFrame& f : frames) ASSERT_TRUE(async.submit(std::move(f)));
    std::vector<VolumeImage> received;
    std::vector<std::int64_t> order;
    const PipelineStats stats =
        async.finish([&](const VolumeImage& v, std::int64_t seq) {
          received.push_back(v);
          order.push_back(seq);
        });
    async.rethrow_if_failed();
    ASSERT_EQ(received.size(), refs.size()) << c.label;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      EXPECT_EQ(order[i], static_cast<std::int64_t>(i)) << c.label;
      expect_bit_identical(refs[i], received[i],
                           c.label + " frame " + std::to_string(i));
    }
    EXPECT_EQ(stats.frames, 4);
    EXPECT_EQ(stats.insonifications, 4);
    EXPECT_EQ(stats.dropped_frames, 0);
  }
}

TEST(AsyncPipeline, CompoundedVolumesMatchTheSerialSumForEveryEngine) {
  const imaging::SystemConfig cfg = imaging::scaled_system(6, 7, 18);
  const auto apod = rect_apod(cfg);
  constexpr int kGroup = 3;
  constexpr int kFrames = 6;  // two full groups
  for (const EngineCase& c : all_engines()) {
    auto frames = origin_frames(cfg, c.origins_for(kFrames), 23);
    const auto refs = serial_references(cfg, c, frames);
    // Serial compounding reference: sum each group in shot order.
    std::vector<VolumeImage> compounds;
    for (int g = 0; g < kFrames / kGroup; ++g) {
      VolumeImage acc = refs[static_cast<std::size_t>(g * kGroup)];
      for (int k = 1; k < kGroup; ++k) {
        acc.add(refs[static_cast<std::size_t>(g * kGroup + k)]);
      }
      compounds.push_back(std::move(acc));
    }

    auto prototype = c.make(cfg);
    FramePipeline pipeline(cfg, apod, *prototype,
                           PipelineConfig{.worker_threads = 2});
    // Depth 1 (an input queue of one; the ring still gets the two slots
    // compounding needs) is the tightest hand-off under compounding.
    for (const int depth : {1, 2, 4}) {
      const std::string label = c.label + " depth " + std::to_string(depth);
      AsyncPipeline async(
          pipeline, AsyncOptions{.depth = depth, .compound_origins = kGroup});
      for (const EchoFrame& f : frames) ASSERT_TRUE(async.submit(f));
      std::vector<VolumeImage> received;
      std::vector<std::int64_t> order;
      const PipelineStats stats =
          async.finish([&](const VolumeImage& v, std::int64_t seq) {
            received.push_back(v);
            order.push_back(seq);
          });
      async.rethrow_if_failed();
      ASSERT_EQ(received.size(), compounds.size()) << label;
      for (std::size_t g = 0; g < compounds.size(); ++g) {
        // The compound volume is tagged with its last insonification.
        EXPECT_EQ(order[g], static_cast<std::int64_t>((g + 1) * kGroup - 1))
            << label;
        expect_bit_identical(compounds[g], received[g],
                             label + " compound " + std::to_string(g));
      }
      EXPECT_EQ(stats.frames, kFrames / kGroup) << label;
      EXPECT_EQ(stats.insonifications, kFrames) << label;
      EXPECT_EQ(stats.dropped_frames, 0) << label;
      // One compound record per shot summed.
      EXPECT_EQ(stats.compound.count, kFrames) << label;
      EXPECT_EQ(stats.beamform.count, kFrames) << label;
    }
  }
}

TEST(AsyncPipeline, PartialTailGroupIsDeliveredNotDropped) {
  const imaging::SystemConfig cfg = imaging::scaled_system(5, 6, 14);
  const auto apod = rect_apod(cfg);
  auto frames = origin_frames(cfg, std::vector<Vec3>(5, Vec3{}), 31);
  delay::TableFreeEngine prototype(cfg);
  FramePipeline pipeline(cfg, apod, prototype,
                         PipelineConfig{.worker_threads = 2});
  AsyncPipeline async(pipeline,
                      AsyncOptions{.depth = 2, .compound_origins = 3});
  for (EchoFrame& f : frames) ASSERT_TRUE(async.submit(std::move(f)));
  std::vector<std::int64_t> order;
  const PipelineStats stats = async.finish(
      [&](const VolumeImage&, std::int64_t seq) { order.push_back(seq); });
  async.rethrow_if_failed();
  // 5 shots at K=3: one full group (seq 2) and one partial tail (seq 4).
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 4);
  EXPECT_EQ(stats.frames, 2);
  EXPECT_EQ(stats.insonifications, 5);
  EXPECT_EQ(stats.dropped_frames, 0);
}

TEST(AsyncPipeline, TrySubmitBackpressuresWithoutAConsumer) {
  const imaging::SystemConfig cfg = imaging::scaled_system(5, 6, 14);
  const auto apod = rect_apod(cfg);
  const auto frames = origin_frames(cfg, std::vector<Vec3>(1, Vec3{}), 41);
  delay::TableFreeEngine prototype(cfg);
  FramePipeline pipeline(cfg, apod, prototype,
                         PipelineConfig{.worker_threads = 2});
  AsyncPipeline async(pipeline, AsyncOptions{.depth = 1});
  // Nobody polls: in-flight work is bounded by the input queue (1), the
  // beamformed hand-off (1) and the single ring slot, so refusal MUST
  // come within a handful of accepted frames no matter how fast the
  // beamform stage is.
  int accepted = 0;
  while (accepted < 16) {
    EchoFrame f = frames[0];
    f.sequence = accepted;
    if (!async.try_submit(f)) break;
    ++accepted;
  }
  EXPECT_GE(accepted, 1);
  EXPECT_LT(accepted, 16) << "try_submit never refused: no backpressure";
  // Draining delivers exactly what was accepted — nothing lost, nothing
  // invented.
  int delivered = 0;
  const PipelineStats stats =
      async.finish([&](const VolumeImage&, std::int64_t) { ++delivered; });
  async.rethrow_if_failed();
  EXPECT_EQ(delivered, accepted);
  EXPECT_EQ(stats.frames, accepted);
  EXPECT_EQ(stats.insonifications, accepted);
  EXPECT_EQ(stats.dropped_frames, 0);
}

TEST(AsyncPipeline, PollIsNonBlockingAndWaitOneDeliversInOrder) {
  const imaging::SystemConfig cfg = imaging::scaled_system(5, 6, 14);
  const auto apod = rect_apod(cfg);
  auto frames = origin_frames(cfg, std::vector<Vec3>(3, Vec3{}), 43);
  delay::TableFreeEngine prototype(cfg);
  FramePipeline pipeline(cfg, apod, prototype,
                         PipelineConfig{.worker_threads = 2});
  AsyncPipeline async(pipeline, AsyncOptions{.depth = 2});
  int delivered = 0;
  const VolumeSink count = [&](const VolumeImage&, std::int64_t) {
    ++delivered;
  };
  EXPECT_FALSE(async.poll(count));  // nothing submitted yet
  for (EchoFrame& f : frames) ASSERT_TRUE(async.submit(std::move(f)));
  // Each wait_one blocks until the next volume is beamformed.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(async.wait_one(count));
  EXPECT_EQ(delivered, 3);
  const PipelineStats stats = async.finish(count);
  async.rethrow_if_failed();
  EXPECT_EQ(delivered, 3);  // finish found nothing left
  EXPECT_EQ(stats.frames, 3);
}

TEST(AsyncPipeline, SinkFailureStopsTheStreamAndCountsDrops) {
  const imaging::SystemConfig cfg = imaging::scaled_system(5, 6, 14);
  const auto apod = rect_apod(cfg);
  delay::TableFreeEngine prototype(cfg);
  FramePipeline pipeline(cfg, apod, prototype,
                         PipelineConfig{.worker_threads = 2});
  AsyncPipeline async(pipeline, AsyncOptions{.depth = 2});
  const auto frames = origin_frames(cfg, std::vector<Vec3>(4, Vec3{}), 47);
  const VolumeSink failing = [](const VolumeImage&, std::int64_t) {
    throw std::runtime_error("sink failed");
  };
  EchoFrame f0 = frames[0];
  ASSERT_TRUE(async.submit(std::move(f0)));
  EXPECT_FALSE(async.wait_one(failing));  // delivery attempt fails it
  EXPECT_TRUE(async.failed());
  EchoFrame f1 = frames[1];
  EXPECT_FALSE(async.submit(std::move(f1)));  // refused after failure
  const PipelineStats stats = async.finish(failing);
  EXPECT_EQ(stats.frames, 0);          // delivered means delivered
  EXPECT_EQ(stats.insonifications, 1);
  EXPECT_EQ(stats.dropped_frames, 1);  // the failed delivery is not lost
  EXPECT_THROW(async.rethrow_if_failed(), std::runtime_error);
}

TEST(AsyncPipeline, SetQueueDepthShrinksAndRegrowsTheBoundMidStream) {
  const imaging::SystemConfig cfg = imaging::scaled_system(5, 6, 14);
  const auto apod = rect_apod(cfg);
  delay::TableFreeEngine prototype(cfg);
  FramePipeline pipeline(cfg, apod, prototype,
                         PipelineConfig{.worker_threads = 2});
  AsyncPipeline async(pipeline, AsyncOptions{.depth = 4});
  EXPECT_EQ(async.queue_depth(), 4);
  EXPECT_EQ(async.ring_slots(), 4);

  auto frames = origin_frames(cfg, std::vector<Vec3>(6, Vec3{}), 59);
  // Shrink mid-stream: already-queued work is never dropped, the tighter
  // bound only refuses new submissions earlier.
  ASSERT_TRUE(async.submit(EchoFrame{frames[0]}));
  async.set_queue_depth(1);
  EXPECT_EQ(async.queue_depth(), 1);
  int accepted = 1;
  for (int i = 1; i < 6; ++i) {
    EchoFrame f = frames[static_cast<std::size_t>(i)];
    if (async.try_submit(f)) ++accepted;
  }
  EXPECT_LT(accepted, 6) << "a depth-1 bound must refuse an instant burst";

  // Regrow and stream the rest through.
  async.set_queue_depth(4);
  for (int i = accepted; i < 6; ++i) {
    EchoFrame f = frames[static_cast<std::size_t>(i)];
    f.sequence = i;
    ASSERT_TRUE(async.submit(std::move(f)));
  }
  int delivered = 0;
  const PipelineStats stats =
      async.finish([&](const VolumeImage&, std::int64_t) { ++delivered; });
  async.rethrow_if_failed();
  EXPECT_EQ(delivered, 6);
  EXPECT_EQ(stats.frames, 6);
  EXPECT_EQ(stats.dropped_frames, 0);
  EXPECT_EQ(stats.queue_depth, 4);  // the latest configured depth
  EXPECT_EQ(stats.ring_slots, 4);   // the allocation never changed
}

TEST(AsyncPipeline, ConcurrentScrapeNeverObservesATornLedger) {
  // Regression: submit() used to count acceptance only after the blocking
  // queue push, so a delivery racing the push could bump frames while
  // submitted_ still excluded that insonification — a scraper would see
  // frames > insonifications. The fix counts acceptance optimistically
  // (increment before the push, roll back on refusal), making
  // delivered <= submitted hold at every instant.
  const imaging::SystemConfig cfg = imaging::scaled_system(5, 6, 14);
  const auto apod = rect_apod(cfg);
  delay::TableFreeEngine prototype(cfg);
  FramePipeline pipeline(cfg, apod, prototype,
                         PipelineConfig{.worker_threads = 2});
  AsyncPipeline async(pipeline, AsyncOptions{.depth = 2});
  const auto frames = origin_frames(cfg, std::vector<Vec3>(1, Vec3{}), 61);

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const PipelineStats snap = async.stats_snapshot();
      if (snap.frames > snap.insonifications) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  constexpr int kFrames = 24;
  int delivered = 0;
  const VolumeSink count = [&](const VolumeImage&, std::int64_t) {
    ++delivered;
  };
  // try_submit + poll-on-refusal: a blocking submit with no concurrent
  // consumer would wedge once both ring slots sit in undelivered outputs
  // (the documented backpressure contract), and the refusal/delivery
  // interleaving is exactly what keeps submits racing deliveries here.
  int submitted = 0;
  while (submitted < kFrames) {
    EchoFrame f = frames[0];
    f.sequence = submitted;
    if (async.try_submit(f)) {
      ++submitted;
    } else {
      async.poll(count);
    }
  }
  while (delivered < kFrames) ASSERT_TRUE(async.wait_one(count));
  done.store(true, std::memory_order_release);
  scraper.join();
  async.rethrow_if_failed();
  EXPECT_EQ(torn.load(), 0) << "a scrape observed frames > insonifications";
  const PipelineStats stats = async.finish(count);
  EXPECT_EQ(stats.frames, kFrames);
  EXPECT_EQ(stats.insonifications, kFrames);
  EXPECT_EQ(stats.dropped_frames, 0);
}

TEST(AsyncPipeline, DestructionWithoutFinishDoesNotHang) {
  const imaging::SystemConfig cfg = imaging::scaled_system(5, 6, 14);
  const auto apod = rect_apod(cfg);
  delay::TableFreeEngine prototype(cfg);
  FramePipeline pipeline(cfg, apod, prototype,
                         PipelineConfig{.worker_threads = 2});
  auto frames = origin_frames(cfg, std::vector<Vec3>(3, Vec3{}), 53);
  {
    AsyncPipeline async(pipeline, AsyncOptions{.depth = 1});
    for (EchoFrame& f : frames) {
      if (!async.try_submit(f)) break;
    }
    // No poll, no finish: the destructor must shut the stages down.
  }
  SUCCEED();
}

/// Discards every volume.
const VolumeSink kDevNull = [](const VolumeImage&, std::int64_t) {};

TEST(AsyncPipelineRun, DeliversEveryFrameInOrderBitIdenticalToSerial) {
  const imaging::SystemConfig cfg = imaging::scaled_system(6, 7, 20);
  const auto apod = rect_apod(cfg);
  const EngineCase tablefree = all_engines()[1];
  const auto frames = origin_frames(cfg, tablefree.origins_for(5), 11);
  const auto refs = serial_references(cfg, tablefree, frames);

  delay::TableFreeEngine prototype(cfg);
  FramePipeline pipeline(cfg, apod, prototype,
                         PipelineConfig{.worker_threads = 3});
  ReplayFrameSource source(frames);
  std::vector<std::int64_t> order;
  std::vector<VolumeImage> received;
  const PipelineStats stats = AsyncPipeline(pipeline).run(
      source, [&](const VolumeImage& v, std::int64_t seq) {
        order.push_back(seq);
        received.push_back(v);  // copy: the ring slot is recycled
      });
  ASSERT_EQ(received.size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<std::int64_t>(i));
    expect_bit_identical(refs[i], received[i], "frame " + std::to_string(i));
  }
  EXPECT_EQ(stats.frames, 5);
  EXPECT_EQ(stats.insonifications, 5);
  EXPECT_EQ(stats.voxels, 5 * cfg.volume.total_points());
  EXPECT_EQ(stats.ingest.count, 5);
  EXPECT_EQ(stats.beamform.count, 5);
  EXPECT_EQ(stats.consume.count, 5);
  EXPECT_GT(stats.sustained_fps(), 0.0);
}

TEST(AsyncPipelineRun, CompoundedRunMatchesSerialSum) {
  const imaging::SystemConfig cfg = imaging::scaled_system(6, 7, 18);
  const auto apod = rect_apod(cfg);
  const EngineCase tablefree = all_engines()[1];
  const auto frames = origin_frames(cfg, tablefree.origins_for(4), 43);
  const auto refs = serial_references(cfg, tablefree, frames);
  std::vector<VolumeImage> compounds;
  for (std::size_t g = 0; g < 2; ++g) {
    VolumeImage acc = refs[2 * g];
    acc.add(refs[2 * g + 1]);
    compounds.push_back(std::move(acc));
  }
  delay::TableFreeEngine prototype(cfg);
  FramePipeline pipeline(cfg, apod, prototype,
                         PipelineConfig{.worker_threads = 3});
  ReplayFrameSource source(frames);
  std::vector<VolumeImage> received;
  AsyncPipeline async(pipeline, AsyncOptions{.compound_origins = 2});
  async.run(source, [&](const VolumeImage& v, std::int64_t) {
    received.push_back(v);
  });
  ASSERT_EQ(received.size(), 2u);
  for (std::size_t g = 0; g < 2; ++g) {
    expect_bit_identical(compounds[g], received[g],
                         "compound " + std::to_string(g));
  }
}

TEST(AsyncPipelineRun, PerturbedSyntheticApertureOriginsReplayIdentically) {
  // Regression for the origin-matching bugfix: origins that round-tripped
  // through storage/arithmetic arrive a few ulps off the plan values; the
  // engine must select the same table and produce the same volume instead
  // of throwing.
  const imaging::SystemConfig cfg = imaging::scaled_system(6, 7, 18);
  const delay::SyntheticAperturePlan plan =
      delay::diverging_wave_plan(3, 3.0e-3);
  const auto apod = rect_apod(cfg);
  std::vector<Vec3> origins;
  for (const double z : plan.origin_z) origins.push_back(Vec3{0.0, 0.0, z});
  const auto exact_frames = origin_frames(cfg, origins, 57);
  std::vector<EchoFrame> perturbed_frames = exact_frames;
  for (EchoFrame& f : perturbed_frames) {
    // The same physical shot, origin nudged as if deserialized.
    const double z = f.origin.z;
    f.origin = Vec3{1.0e-12, -1.0e-12, z * (1.0 + 4.0e-16) - 1.0e-12};
  }
  const auto stream = [&](const std::vector<EchoFrame>& frames) {
    delay::SyntheticApertureSteerEngine prototype(cfg, plan);
    FramePipeline pipeline(cfg, apod, prototype,
                           PipelineConfig{.worker_threads = 2});
    ReplayFrameSource source(frames);
    std::vector<VolumeImage> out;
    AsyncPipeline(pipeline).run(
        source, [&](const VolumeImage& v, std::int64_t) { out.push_back(v); });
    return out;
  };
  const std::vector<VolumeImage> expected = stream(exact_frames);
  const std::vector<VolumeImage> actual = stream(perturbed_frames);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expect_bit_identical(expected[i], actual[i],
                         "perturbed origin frame " + std::to_string(i));
  }
}

TEST(AsyncPipelineRun, SinkExceptionPropagatesWithTruthfulStats) {
  // Frames used to be counted as soon as they were beamformed — a failing
  // sink left stats claiming phantom deliveries and silently swallowed
  // the in-flight volume. Accounting is delivery-based with drops
  // surfaced, and finish() (idempotent) still hands the failed session's
  // stats to the caller after run() threw.
  const imaging::SystemConfig cfg = imaging::scaled_system(5, 6, 16);
  const auto frames = origin_frames(cfg, std::vector<Vec3>(4, Vec3{}), 31);
  delay::ExactDelayEngine prototype(cfg);
  FramePipeline pipeline(cfg, rect_apod(cfg), prototype,
                         PipelineConfig{.worker_threads = 2});
  const VolumeSink failing = [](const VolumeImage&, std::int64_t seq) {
    if (seq == 1) throw std::runtime_error("sink failed");
  };
  {
    AsyncPipeline async(pipeline);
    ReplayFrameSource source(frames);
    EXPECT_THROW(async.run(source, failing), std::runtime_error);
    const PipelineStats stats = async.finish(kDevNull);
    EXPECT_EQ(stats.frames, 1);
    EXPECT_GE(stats.dropped_frames, 1);
    EXPECT_EQ(stats.insonifications, stats.frames + stats.dropped_frames);
  }
  // The same FramePipeline takes a new session.
  int delivered = 0;
  const VolumeSink count = [&](const VolumeImage&, std::int64_t) {
    ++delivered;
  };
  ReplayFrameSource source(frames);
  AsyncPipeline(pipeline).run(source, count);
  EXPECT_EQ(delivered, 4);
}

/// EXACT delays, except that every compute() of a frame whose origin has
/// x > 0 throws — drives the worker error paths without breaking the
/// engine for the frames after.
class PoisonableEngine final : public delay::DelayEngine {
 public:
  explicit PoisonableEngine(const imaging::SystemConfig& cfg) : exact_(cfg) {}
  std::string name() const override { return "POISONABLE"; }
  int element_count() const override { return exact_.element_count(); }
  std::unique_ptr<delay::DelayEngine> clone() const override {
    return std::make_unique<PoisonableEngine>(*this);
  }

 protected:
  void do_begin_frame(const Vec3& origin) override {
    poisoned_ = origin.x > 0.0;
    exact_.begin_frame(Vec3{});
  }
  void do_compute(const imaging::FocalPoint& fp,
                  std::span<std::int32_t> out) override {
    if (poisoned_) throw std::runtime_error("engine failed mid-sweep");
    exact_.compute(fp, out);
  }

 private:
  delay::ExactDelayEngine exact_;
  bool poisoned_ = false;
};

TEST(AsyncPipelineRun, WorkerExceptionPropagatesAndTheNextSessionRuns) {
  const imaging::SystemConfig cfg = imaging::scaled_system(5, 6, 16);
  const auto frames = origin_frames(cfg, std::vector<Vec3>(3, Vec3{}), 37);
  std::vector<EchoFrame> poisoned = frames;
  poisoned[1].origin.x = 1.0e-3;
  PoisonableEngine prototype(cfg);
  FramePipeline pipeline(cfg, rect_apod(cfg), prototype,
                         PipelineConfig{.worker_threads = 2});
  int delivered = 0;
  const VolumeSink count = [&](const VolumeImage&, std::int64_t) {
    ++delivered;
  };
  {
    AsyncPipeline async(pipeline);
    ReplayFrameSource source(poisoned);
    EXPECT_THROW(async.run(source, count), std::runtime_error);
    const PipelineStats stats = async.finish(kDevNull);
    EXPECT_LE(stats.frames, 1);  // frame 0 may beat the failure out
    EXPECT_EQ(delivered, stats.frames);
    EXPECT_GE(stats.dropped_frames, 1);
    EXPECT_EQ(stats.insonifications, stats.frames + stats.dropped_frames);
  }
  // The pool and the stage threads wound down cleanly: a new session on
  // the same FramePipeline streams every frame.
  delivered = 0;
  ReplayFrameSource source(frames);
  AsyncPipeline(pipeline).run(source, count);
  EXPECT_EQ(delivered, 3);
}

/// A source that fails mid-stream — drives the ingest error path.
class ThrowingSource final : public FrameSource {
 public:
  ThrowingSource(std::vector<EchoFrame> frames, std::size_t throw_at)
      : frames_(std::move(frames)), throw_at_(throw_at) {}
  std::optional<EchoFrame> next_frame() override {
    if (emitted_ >= throw_at_) throw std::runtime_error("source failed");
    EchoFrame frame = frames_[emitted_ % frames_.size()];
    frame.sequence = static_cast<std::int64_t>(emitted_++);
    return frame;
  }

 private:
  std::vector<EchoFrame> frames_;
  std::size_t throw_at_;
  std::size_t emitted_ = 0;
};

TEST(AsyncPipelineRun, SourceExceptionPropagatesAfterIngestedFramesDeliver) {
  // Regression: a throwing FrameSource used to unwind past the joinable
  // consumer thread and std::terminate. The exception must propagate
  // after the stages quiesce, with already ingested frames still
  // delivered.
  const imaging::SystemConfig cfg = imaging::scaled_system(5, 6, 16);
  const auto frames = origin_frames(cfg, std::vector<Vec3>(2, Vec3{}), 67);
  delay::ExactDelayEngine prototype(cfg);
  FramePipeline pipeline(cfg, rect_apod(cfg), prototype,
                         PipelineConfig{.worker_threads = 2});
  int delivered = 0;
  const VolumeSink count = [&](const VolumeImage&, std::int64_t) {
    ++delivered;
  };
  ThrowingSource source(frames, /*throw_at=*/2);
  EXPECT_THROW(AsyncPipeline(pipeline).run(source, count), std::runtime_error);
  EXPECT_EQ(delivered, 2);
  // The same FramePipeline takes a new session.
  ReplayFrameSource good(frames);
  AsyncPipeline(pipeline).run(good, count);
  EXPECT_EQ(delivered, 4);
}

}  // namespace
}  // namespace us3d::runtime
