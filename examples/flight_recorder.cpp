// Flight-recorder walkthrough and end-to-end validation: run an imaging
// service with every telemetry layer live (trace + metrics + events +
// resource profiler), force a session to die mid-stream through a
// throwing sink, and let the failure hook write a post-mortem bundle.
// Then play investigator: re-read the bundle through the repo's strict
// JSON reader and verify it is complete — manifest + all four artifacts,
// each valid JSON, with a balanced Chrome trace. Exits nonzero if any
// check fails; ctest runs it as examples/flight_recorder, the bundle
// acceptance test.
//
//   US3D_POSTMORTEM_DIR=postmortem ./example_flight_recorder
//   (defaults the directory to ./postmortem when the env var is unset)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "acoustic/echo_synth.h"
#include "common/json_reader.h"
#include "common/prng.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource_profiler.h"
#include "obs/trace.h"
#include "service/imaging_service.h"

using namespace us3d;
using runtime::EchoFrame;
using service::ImagingService;
using service::Scenario;

namespace {

Scenario tiny(const std::string& name) {
  Scenario s;
  s.name = name;
  s.engine = service::EngineFamily::kTableFree;
  s.probe_elements = 5;
  s.n_lines = 6;
  s.n_depth = 16;
  s.worker_threads = 2;
  s.queue_depth = 2;
  return s;
}

std::vector<EchoFrame> frames_for(const Scenario& scenario, int count,
                                  std::uint64_t seed) {
  const imaging::SystemConfig cfg = scenario.system();
  const imaging::VolumeGrid grid(cfg.volume);
  SplitMix64 rng(seed);
  const std::vector<Vec3> origins = scenario.origins(count);
  std::vector<EchoFrame> frames;
  for (int i = 0; i < count; ++i) {
    const acoustic::Phantom phantom{acoustic::PointScatterer{
        grid.focal_point(static_cast<int>(rng.next_below(
                             static_cast<std::uint64_t>(cfg.volume.n_theta))),
                         cfg.volume.n_phi / 2, cfg.volume.n_depth / 2)
            .position,
        1.0}};
    acoustic::SynthesisOptions synth;
    synth.origin = origins[static_cast<std::size_t>(i)];
    frames.push_back(EchoFrame{acoustic::synthesize_echoes(cfg, phantom, synth),
                               origins[static_cast<std::size_t>(i)], i});
  }
  return frames;
}

const runtime::VolumeSink kDevNull = [](const beamform::VolumeImage&,
                                        std::int64_t) {};

/// Polls until `want` volumes came out (the async stages run behind the
/// submit loop) or the session goes terminal. Returns delivered count.
int drain(ImagingService& service, int session, const runtime::VolumeSink& sink,
          int want) {
  int delivered = 0;
  for (int spin = 0; spin < 2000 && delivered < want; ++spin) {
    delivered += service.poll(session, sink);
    if (service.session_failed(session)) break;
    if (delivered < want) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return delivered;
}

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::cout << "  ok: " << what << "\n";
  } else {
    std::cout << "  FAIL: " << what << "\n";
    ++g_failures;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Parses one bundle artifact; returns null-kind on any failure (counted).
JsonValue parse_artifact(const std::string& bundle, const std::string& name) {
  const std::string text = slurp(bundle + "/" + name);
  check(!text.empty(), name + " exists and is non-empty");
  if (text.empty()) return JsonValue();
  try {
    JsonValue v = parse_json(text);
    check(true, name + " is valid JSON (strict reader)");
    return v;
  } catch (const std::exception& e) {
    check(false, name + " is valid JSON: " + e.what());
    return JsonValue();
  }
}

void validate_bundle(const std::string& bundle) {
  std::cout << "\nvalidating bundle " << bundle << "\n";

  const JsonValue manifest = parse_artifact(bundle, "manifest.json");
  if (manifest.is_object()) {
    check(manifest.at("reason").as_string() == "session_failure",
          "manifest reason is session_failure");
    check(manifest.at("artifacts").size() == 4, "manifest lists 4 artifacts");
  }

  const JsonValue trace = parse_artifact(bundle, "trace.json");
  if (trace.is_object()) {
    // Balance check: per thread, B and E counts match and nesting never
    // goes negative — the same invariant CI asserts on trace.json.
    std::map<std::int64_t, std::int64_t> depth;
    bool balanced = true;
    for (const JsonValue& ev : trace.at("traceEvents").elements()) {
      const std::string& ph = ev.at("ph").as_string();
      const std::int64_t tid = ev.at("tid").as_int();
      if (ph == "B") ++depth[tid];
      if (ph == "E" && --depth[tid] < 0) balanced = false;
    }
    for (const auto& [tid, d] : depth) balanced = balanced && d == 0;
    check(balanced, "trace B/E events balance on every thread");
  }

  const JsonValue metrics = parse_artifact(bundle, "metrics.json");
  if (metrics.is_object()) {
    const JsonValue* counters = metrics.find("counters");
    check(counters != nullptr &&
              counters->find("service.frames_submitted") != nullptr,
          "metrics.json carries service counters");
  }

  const JsonValue events = parse_artifact(bundle, "events.json");
  if (events.is_object()) {
    bool saw_failure = false;
    for (const JsonValue& ev : events.at("events").elements()) {
      if (ev.at("name").as_string() == "session.failed") saw_failure = true;
    }
    check(saw_failure, "events.json records the session.failed event");
  }

  const JsonValue resources = parse_artifact(bundle, "resources.json");
  if (resources.is_object()) {
    check(resources.find("rss_bytes") != nullptr &&
              resources.find("stages") != nullptr,
          "resources.json has rss and per-stage sections");
  }
}

}  // namespace

int main() {
  // Bring up all four telemetry layers explicitly (a real deployment
  // would use US3D_TRACE / US3D_EVENTS / US3D_PROFILE / US3D_POSTMORTEM_DIR).
  obs::TraceCollector::instance().set_enabled(true);
  obs::TraceCollector::instance().reset();
  obs::EventLog::instance().set_enabled(true);
  obs::EventLog::instance().reset();
  obs::set_thread_name("client");
  obs::ResourceProfiler::global().register_current_thread("client");
  obs::ResourceProfiler::global().start(obs::MetricsRegistry::global(),
                                        std::chrono::milliseconds(20));

  obs::FlightRecorderOptions rec;
  const char* dir = std::getenv("US3D_POSTMORTEM_DIR");
  rec.directory = dir != nullptr ? dir : "postmortem";
  obs::FlightRecorder::global().configure(rec);
  std::cout << "post-mortem bundles go to " << rec.directory << "\n";

  ImagingService service(service::ServiceBudget{.worker_threads = 4,
                                                .inflight_volumes = 8});

  // A healthy session and a doomed one.
  const auto healthy = service.open_session(
      tiny("healthy"), {.priority = service::PriorityClass::kInteractive});
  const auto doomed = service.open_session(
      tiny("doomed"), {.priority = service::PriorityClass::kRoutine});

  for (EchoFrame& f : frames_for(tiny("x"), 3, 11)) {
    service.submit(healthy.session, std::move(f));
  }
  drain(service, healthy.session, kDevNull, 3);

  // Force the failure: a sink that throws mid-delivery kills the doomed
  // session; the service's failure hook writes the post-mortem bundle.
  for (EchoFrame& f : frames_for(tiny("x"), 3, 17)) {
    service.submit(doomed.session, std::move(f));
  }
  drain(service, doomed.session,
        [](const beamform::VolumeImage&, std::int64_t) {
          throw std::runtime_error("simulated display failure");
        },
        3);
  check(service.session_failed(doomed.session), "doomed session failed");
  check(!service.session_failed(healthy.session),
        "healthy session unaffected (failure isolation)");

  service.close_session(doomed.session, kDevNull);
  service.close_session(healthy.session, kDevNull);
  obs::ResourceProfiler::global().stop();

  const auto written = obs::FlightRecorder::global().bundles_written();
  std::cout << "\nbundles written: " << written << "\n";
  check(written >= 1, "session failure dumped");

  // Find the session_failure bundle (newest matching directory).
  namespace fs = std::filesystem;
  std::vector<std::string> bundles;
  if (fs::exists(rec.directory)) {
    for (const auto& entry : fs::directory_iterator(rec.directory)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("pm-", 0) == 0 &&
          name.find("session_failure") != std::string::npos) {
        bundles.push_back(entry.path().string());
      }
    }
  }
  std::sort(bundles.begin(), bundles.end());
  check(!bundles.empty(), "a session_failure bundle exists");
  if (!bundles.empty()) validate_bundle(bundles.back());

  std::cout << "\n" << (g_failures == 0 ? "ALL CHECKS PASSED" : "FAILURES")
            << " (" << g_failures << " failures)\n";
  return g_failures == 0 ? 0 : 1;
}
