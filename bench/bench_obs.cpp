// OBS — telemetry overhead on a streaming workload: a TABLEFREE
// FramePipeline (2 workers) streamed through AsyncPipeline::run at queue
// depth 2, run back to back with the observability layers
// runtime-enabled and runtime-disabled, so BENCH_obs.json pins what
// turning them on costs. Two gated cells: tracing alone, and the full
// stack (trace + event log + resource profiler) — each must stay <= 5% on
// --tiny, judged on the median of per-rep ratios with the modes
// interleaved within each rep. Micro-cells price one span record, one
// event emit and one profiler sampling pass. In a US3D_TRACING=OFF build
// the span sites are compiled out entirely and both trace modes measure
// the same code — `tracing_compiled` in the JSON says which claim a given
// trajectory point makes.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "acoustic/echo_synth.h"
#include "bench_util.h"
#include "common/json_writer.h"
#include "common/latency.h"
#include "common/stats.h"
#include "delay/tablefree.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/resource_profiler.h"
#include "obs/trace.h"
#include "runtime/async_pipeline.h"

namespace {

us3d::imaging::SystemConfig workload_system(bool tiny) {
  // --tiny: 8x8 probe, 12x12x48 volume; otherwise 12x12 probe,
  // 24x24x120, where the per-frame beamform dominates thread handoff.
  return tiny ? us3d::imaging::scaled_system(8, 12, 48)
              : us3d::imaging::scaled_system(12, 24, 120);
}

std::vector<us3d::runtime::EchoFrame> workload_frames(
    const us3d::imaging::SystemConfig& cfg, int count) {
  using namespace us3d;
  const imaging::VolumeGrid grid(cfg.volume);
  const acoustic::Phantom phantom{acoustic::PointScatterer{
      grid.focal_point(cfg.volume.n_theta / 2, cfg.volume.n_phi / 2,
                       cfg.volume.n_depth / 2)
          .position,
      1.0}};
  return std::vector<runtime::EchoFrame>(
      static_cast<std::size_t>(count),
      runtime::EchoFrame{acoustic::synthesize_echoes(cfg, phantom), Vec3{},
                         0});
}

/// One streaming pass; returns wall seconds.
double run_once(const us3d::imaging::SystemConfig& cfg,
                const us3d::probe::ApodizationMap& apod,
                const std::vector<us3d::runtime::EchoFrame>& frames,
                int repeats) {
  using namespace us3d;
  delay::TableFreeEngine prototype(cfg);
  runtime::FramePipeline pipeline(cfg, apod, prototype,
                                  runtime::PipelineConfig{.worker_threads = 2});
  runtime::ReplayFrameSource source(frames, repeats);
  const auto t0 = std::chrono::steady_clock::now();
  runtime::AsyncPipeline session(pipeline, runtime::AsyncOptions{.depth = 2});
  session.run(source, [](const beamform::VolumeImage&, std::int64_t) {});
  return seconds_since(t0);
}

/// The three modes every rep runs, in this index order.
enum Mode { kDisabled = 0, kTracing = 1, kFullStack = 2, kModes = 3 };

/// One streaming pass in `mode`: tracing, the event log and (full stack)
/// the resource profiler switched to match. Returns wall seconds.
double run_mode(Mode mode, const us3d::imaging::SystemConfig& cfg,
                const us3d::probe::ApodizationMap& apod,
                const std::vector<us3d::runtime::EchoFrame>& frames,
                int repeats) {
  using namespace us3d::obs;
  TraceCollector::instance().set_enabled(mode != kDisabled);
  EventLog::instance().set_enabled(mode == kFullStack);
  // Reset per pass so the enabled runs keep recording into warm buffers
  // without ever paying a drop-path difference between reps.
  TraceCollector::instance().reset();
  EventLog::instance().reset();
  if (mode == kFullStack) {
    ResourceProfiler::global().start(MetricsRegistry::global(),
                                     std::chrono::milliseconds(50));
  }
  const double wall = run_once(cfg, apod, frames, repeats);
  ResourceProfiler::global().stop();  // no-op unless started above
  return wall;
}

/// Nanoseconds per US3D_TRACE_INSTANT with tracing enabled (the price of
/// one span record: clock read plus one ring push).
double span_record_cost_ns(int iterations) {
  using namespace us3d::obs;
  TraceCollector::instance().set_enabled(true);
  TraceCollector::instance().reset();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    US3D_TRACE_INSTANT("bench.instant", "i", i);
  }
  const double wall = us3d::seconds_since(t0);
  TraceCollector::instance().set_enabled(false);
  return wall * 1e9 / iterations;
}

/// Nanoseconds per emit_event() call with the log enabled (the price an
/// admission/shed site pays when US3D_EVENTS is on).
double event_emit_cost_ns(int iterations) {
  using namespace us3d::obs;
  EventLog::instance().set_enabled(true);
  EventLog::instance().reset();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    US3D_EVENT_DEBUG("bench.emit", i, i, "micro", "arg", i, "neg", -i);
  }
  const double wall = us3d::seconds_since(t0);
  EventLog::instance().set_enabled(false);
  return wall * 1e9 / iterations;
}

/// Microseconds per ResourceProfiler::sample_once() pass (what the
/// sampler thread pays per period: per-thread CPU clocks + /proc RSS +
/// gauge publication).
double profiler_sample_cost_us(us3d::obs::MetricsRegistry& registry,
                               int iterations) {
  using namespace us3d::obs;
  ResourceProfiler::global().register_current_thread("bench");
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    ResourceProfiler::global().sample_once(registry);
  }
  return us3d::seconds_since(t0) * 1e6 / iterations;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace us3d;
  const bool tiny = argc > 1 && std::string(argv[1]) == "--tiny";
  bench::banner("OBS",
                "telemetry overhead: tracing, events, profiler + metrics");

  const imaging::SystemConfig cfg = workload_system(tiny);
  const probe::ApodizationMap apod(probe::MatrixProbe(cfg.probe),
                                   probe::WindowKind::kRect);
  const auto frames = workload_frames(cfg, 2);
  const int repeats = tiny ? 2 : 4;
  const int reps = tiny ? 201 : 21;

  // Warm up caches and thread pools outside the timed modes.
  obs::TraceCollector::instance().set_enabled(false);
  obs::EventLog::instance().set_enabled(false);
  run_once(cfg, apod, frames, 1);

  // Every rep runs the three modes back to back, rotating which goes
  // first, and yields one overhead ratio per enabled mode against that
  // rep's own disabled pass. The gate reads the median ratio: drift and
  // scheduler noise on a shared host move a rep's three passes together,
  // and the median of many short reps is not swung by the outlier passes
  // that decided a best-of-N wall from separate blocks of reps.
  SampleQuantiles walls[kModes];
  SampleQuantiles trace_ratio;
  SampleQuantiles combined_ratio;
  obs::TraceSnapshot snap;
  obs::EventSnapshot events;
  for (int rep = 0; rep < reps; ++rep) {
    double wall[kModes] = {};
    for (int k = 0; k < kModes; ++k) {
      const Mode mode = static_cast<Mode>((rep + k) % kModes);
      wall[mode] = run_mode(mode, cfg, apod, frames, repeats);
      walls[mode].add(wall[mode]);
      if (mode == kTracing) snap = obs::TraceCollector::instance().collect();
      if (mode == kFullStack) events = obs::EventLog::instance().collect();
    }
    trace_ratio.add((wall[kTracing] / wall[kDisabled] - 1.0) * 1e2);
    combined_ratio.add((wall[kFullStack] / wall[kDisabled] - 1.0) * 1e2);
  }
  obs::TraceCollector::instance().set_enabled(false);
  obs::EventLog::instance().set_enabled(false);

  const double disabled_s = walls[kDisabled].p50();
  const double enabled_s = walls[kTracing].p50();
  const double combined_s = walls[kFullStack].p50();
  const double overhead_percent = trace_ratio.p50();
  const double combined_overhead_percent = combined_ratio.p50();

  bench::section("telemetry overhead (median of " + std::to_string(reps) +
                 " interleaved reps)");
  MarkdownTable table({"mode", "wall [ms]", "spans", "events"});
  table.add_row({obs::TraceCollector::compiled_in() ? "all-disabled"
                                                    : "compiled-out",
                 format_double(disabled_s * 1e3, 2), "0", "0"});
  table.add_row({obs::TraceCollector::compiled_in() ? "tracing"
                                                    : "compiled-out",
                 format_double(enabled_s * 1e3, 2),
                 std::to_string(snap.total_spans()), "0"});
  table.add_row({"trace+events+profiler", format_double(combined_s * 1e3, 2),
                 std::to_string(snap.total_spans()),
                 std::to_string(events.events.size())});
  table.print(std::cout);
  std::cout << "\ntracing overhead: " << format_double(overhead_percent, 2)
            << "% (IQR " << format_double(trace_ratio.quantile(0.25), 2)
            << " .. " << format_double(trace_ratio.quantile(0.75), 2)
            << "), full stack: "
            << format_double(combined_overhead_percent, 2) << "% (IQR "
            << format_double(combined_ratio.quantile(0.25), 2) << " .. "
            << format_double(combined_ratio.quantile(0.75), 2) << ") (span sites "
            << (obs::TraceCollector::compiled_in() ? "compiled in"
                                                   : "compiled out")
            << ")\n";

  // Micro-costs of the new layers, so a regression shows up as a number
  // even when the end-to-end ratio hides in scheduler noise.
  const double span_ns = span_record_cost_ns(tiny ? 200000 : 1000000);
  const double emit_ns = event_emit_cost_ns(tiny ? 200000 : 1000000);
  const double sample_us =
      profiler_sample_cost_us(obs::MetricsRegistry::global(),
                              tiny ? 200 : 1000);
  bench::section("micro-costs");
  std::cout << "span record: " << format_double(span_ns, 1)
            << " ns, event emit: " << format_double(emit_ns, 1)
            << " ns, profiler sample_once: " << format_double(sample_us, 1)
            << " us\n";

  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("bench", "obs_tracing_overhead")
      .kv("tiny", tiny)
      .kv("tracing_compiled", obs::TraceCollector::compiled_in())
      .kv("reps", reps)
      .kv("stream_repeats", repeats)
      .kv("disabled_wall_s", disabled_s)
      .kv("enabled_wall_s", enabled_s)
      .kv("overhead_percent", overhead_percent)
      .kv("overhead_percent_q1", trace_ratio.quantile(0.25))
      .kv("overhead_percent_q3", trace_ratio.quantile(0.75))
      .kv("combined_wall_s", combined_s)
      .kv("combined_overhead_percent", combined_overhead_percent)
      .kv("combined_overhead_percent_q1", combined_ratio.quantile(0.25))
      .kv("combined_overhead_percent_q3", combined_ratio.quantile(0.75))
      .kv("span_record_ns", span_ns)
      .kv("event_emit_ns", emit_ns)
      .kv("profiler_sample_us", sample_us)
      .kv("events_recorded", static_cast<std::int64_t>(events.events.size()))
      .kv("events_dropped", static_cast<std::int64_t>(events.dropped))
      .kv("spans_recorded", snap.total_spans())
      .kv("spans_dropped", snap.total_dropped())
      .kv_raw("metrics", obs::MetricsRegistry::global().snapshot_json())
      .end_object();
  std::ofstream json("BENCH_obs.json");
  json << os.str() << '\n';
  std::cout << "\nwrote BENCH_obs.json\n";
  return 0;
}
