// The async pipeline's stage spans against its stage timers. perfbench's
// latency reconciliation adds the PipelineStats stage means to the gaps
// between a frame's stage.beamform / stage.compound / stage.sink spans;
// any work a span covers beyond its timer is therefore counted nowhere.
// So each span must cover exactly what its timer times: stage.beamform
// the beamform sweep (not the stats bookkeeping and the hand-off to the
// compound stage that follow it), stage.compound with K = 1 nothing at
// all (no compound time is recorded; the emit that hands the volume to
// the consumer is a wait), and stage.sink the sink call.
#include "runtime/async_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "acoustic/echo_synth.h"
#include "acoustic/phantom.h"
#include "common/latency.h"
#include "delay/tablesteer.h"
#include "obs/trace.h"
#include "probe/apodization.h"

namespace us3d::runtime {
namespace {

/// Recorded spans whose "session" arg is `session`.
std::vector<obs::SpanRecord> session_spans(std::int64_t session) {
  std::vector<obs::SpanRecord> out;
  const obs::TraceSnapshot snap = obs::TraceCollector::instance().collect();
  for (const obs::ThreadTrace& thread : snap.threads) {
    for (const obs::SpanRecord& r : thread.spans) {
      if (r.arg2_name != nullptr && std::strcmp(r.arg2_name, "session") == 0 &&
          r.arg2 == session) {
        out.push_back(r);
      }
    }
  }
  return out;
}

bool named(const obs::SpanRecord& r, const char* name) {
  return std::strcmp(r.name, name) == 0;
}

double duration_ns(const obs::SpanRecord& r) {
  return static_cast<double>(r.t1_ns - r.t0_ns);
}

/// What a span adds to the timer it brackets — its own clock reads and
/// the instructions between them and the timer's — on this build
/// (sanitizers multiply it): the median span around a timer around
/// nothing, recorded with tracing on.
double clock_read_slack_ns(std::int64_t session) {
  for (int i = 0; i < 65; ++i) {
    US3D_TRACE_SPAN("test.clock_slack", "sequence", i, "session", session);
    const auto t0 = std::chrono::steady_clock::now();
    const double elapsed = seconds_since(t0);
    EXPECT_GE(elapsed, 0.0);
  }
  std::vector<double> ns;
  for (const obs::SpanRecord& r : session_spans(session)) {
    ns.push_back(duration_ns(r));
  }
  EXPECT_EQ(ns.size(), 65u);
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return ns[ns.size() / 2];
}

TEST(StageSpans, CoverExactlyWhatTheStageTimersTime) {
  if (!obs::TraceCollector::compiled_in()) GTEST_SKIP();
  const imaging::SystemConfig cfg = imaging::scaled_system(5, 6, 14);
  const probe::ApodizationMap apod(probe::MatrixProbe(cfg.probe),
                                   probe::WindowKind::kRect);
  delay::TableSteerEngine prototype(cfg);
  FramePipeline pipeline(cfg, apod, prototype,
                         PipelineConfig{.worker_threads = 2});
  const Vec3 scatterer =
      imaging::VolumeGrid(cfg.volume).focal_point(3, 3, 7).position;
  const EchoFrame frame{
      acoustic::synthesize_echoes(
          cfg, acoustic::Phantom{acoustic::PointScatterer{scatterer, 1.0}}),
      Vec3{}, 0};

  // Frames run one at a time through one pipeline, so the growth of
  // each PipelineStats timer across a frame is that frame's record. The
  // caller waits in wait_one() while the stages run, and the sink
  // stalls, so every hand-off after a stage has a parked thread to wake.
  constexpr int kFrames = 24;
  constexpr std::int64_t kSession = 7'316'001;
  struct Spans {
    double beamform_ns = -1.0;
    double compound_ns = -1.0;
    double sink_ns = -1.0;
  };
  struct Timers {
    double beamform_ns = 0.0;
    std::int64_t compounds = 0;
    double sink_ns = 0.0;
  };
  std::vector<Timers> timers;
  obs::TraceCollector& tracer = obs::TraceCollector::instance();
  tracer.reset();
  tracer.set_enabled(true);
  // A span may exceed its timer by clock-read slack: a few times the
  // cost measured here plus 2 us for the stage threads' colder paths. A
  // K = 1 compound span that still covered the hand-off to the consumer
  // (a lock, a queue push and two notifies, one waking the parked
  // caller) takes about 10 us in an optimized build.
  const double slack_ns = 2000.0 + 5.0 * clock_read_slack_ns(kSession + 1);
  const VolumeSink stalled = [](const beamform::VolumeImage&, std::int64_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  {
    AsyncPipeline async(pipeline,
                        AsyncOptions{.depth = 1, .session = kSession});
    PipelineStats before = async.stats_snapshot();
    for (int i = 0; i < kFrames; ++i) {
      EchoFrame next = frame;
      next.sequence = i;
      ASSERT_TRUE(async.submit(std::move(next)));
      ASSERT_TRUE(async.wait_one(stalled));
      const PipelineStats now = async.stats_snapshot();
      timers.push_back(Timers{
          (now.beamform.total_s - before.beamform.total_s) * 1e9,
          now.compound.count - before.compound.count,
          (now.consume.total_s - before.consume.total_s) * 1e9});
      before = now;
    }
    async.finish(stalled);
    async.rethrow_if_failed();
  }
  tracer.set_enabled(false);
  std::vector<Spans> spans(static_cast<std::size_t>(kFrames));
  for (const obs::SpanRecord& r : session_spans(kSession)) {
    ASSERT_TRUE(r.arg1 >= 0 && r.arg1 < kFrames) << r.name << " " << r.arg1;
    Spans& s = spans[static_cast<std::size_t>(r.arg1)];
    if (named(r, "stage.beamform")) s.beamform_ns = duration_ns(r);
    if (named(r, "stage.compound")) s.compound_ns = duration_ns(r);
    if (named(r, "stage.sink")) s.sink_ns = duration_ns(r);
  }
  tracer.reset();

  // A preempted frame may exceed the slack, so a quarter of the frames
  // may miss.
  int beamform_over = 0, compound_over = 0, sink_over = 0;
  for (int i = 0; i < kFrames; ++i) {
    const Spans& s = spans[static_cast<std::size_t>(i)];
    const Timers& t = timers[static_cast<std::size_t>(i)];
    ASSERT_GE(s.beamform_ns, 0.0) << "frame " << i;
    ASSERT_GE(s.compound_ns, 0.0) << "frame " << i;
    ASSERT_GE(s.sink_ns, 0.0) << "frame " << i;
    EXPECT_EQ(t.compounds, 0) << "K = 1 records no compound time";
    // Every span brackets its timer's interval.
    EXPECT_GE(s.beamform_ns + 1.0, t.beamform_ns) << "frame " << i;
    EXPECT_GE(s.sink_ns + 1.0, t.sink_ns) << "frame " << i;
    if (s.beamform_ns - t.beamform_ns > slack_ns) ++beamform_over;
    if (s.compound_ns > slack_ns) ++compound_over;
    if (s.sink_ns - t.sink_ns > slack_ns) ++sink_over;
  }
  EXPECT_LE(beamform_over, kFrames / 4)
      << "stage.beamform outlasts the beamform timer (slack " << slack_ns
      << " ns)";
  EXPECT_LE(compound_over, kFrames / 4)
      << "a K = 1 stage.compound span covers work no timer records (slack "
      << slack_ns << " ns)";
  EXPECT_LE(sink_over, kFrames / 4)
      << "stage.sink outlasts the sink timer (slack " << slack_ns << " ns)";
}

}  // namespace
}  // namespace us3d::runtime
