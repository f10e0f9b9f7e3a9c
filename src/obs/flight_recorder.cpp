#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/resource_profiler.h"
#include "obs/trace.h"

namespace us3d::obs {

namespace fs = std::filesystem;

namespace {

std::string sanitize_slug(const std::string& reason) {
  std::string out;
  out.reserve(reason.size());
  for (const char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out.push_back(ok ? c : '-');
  }
  return out.empty() ? std::string("dump") : out;
}

/// UTC wall time for the manifest ("2026-08-08T12:34:56Z").
std::string utc_timestamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// "pm-<ordinal>-<slug>", the ordinal zero-padded to six digits.
std::string bundle_name(std::uint64_t ordinal, const std::string& slug) {
  std::ostringstream os;
  os << "pm-";
  os.width(6);
  os.fill('0');
  os << ordinal << '-' << slug;
  return os.str();
}

/// The ordinal of a "pm-<digits>-..." name; 0 for anything else (a
/// staging directory, a stray file name), which is never a bundle.
std::uint64_t ordinal_of(const std::string& name) {
  if (name.rfind("pm-", 0) != 0) return 0;
  std::uint64_t ordinal = 0;
  std::size_t i = 3;
  for (; i < name.size() && name[i] >= '0' && name[i] <= '9'; ++i) {
    ordinal = ordinal * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return i > 3 && i < name.size() && name[i] == '-' ? ordinal : 0;
}

/// The bundles under `parent`, oldest (lowest ordinal) first.
std::vector<std::pair<std::uint64_t, fs::path>> list_bundles(
    const fs::path& parent) {
  std::vector<std::pair<std::uint64_t, fs::path>> bundles;
  for (const auto& entry : fs::directory_iterator(parent)) {
    const std::uint64_t ordinal =
        ordinal_of(entry.path().filename().string());
    if (ordinal != 0 && entry.is_directory()) {
      bundles.emplace_back(ordinal, entry.path());
    }
  }
  std::sort(bundles.begin(), bundles.end());
  return bundles;
}

/// Creates a fresh private directory under `parent` whose name does not
/// start with "pm-", so no reader or retention sweep sees it as a bundle.
fs::path make_staging_dir(const fs::path& parent) {
  auto nonce = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  for (;; ++nonce) {
    const fs::path staging = parent / (".partial-" + std::to_string(nonce));
    if (fs::create_directory(staging)) return staging;
  }
}

void write_manifest(const fs::path& dir, const std::string& reason,
                    std::int64_t session, const std::string& name) {
  std::ofstream os(dir / "manifest.json");
  JsonWriter w(os);
  w.begin_object()
      .kv("reason", reason)
      .kv("session", session)
      .kv("timestamp", utc_timestamp())
      .kv("bundle", name)
      .key("artifacts")
      .begin_array()
      .value("trace.json")
      .value("metrics.json")
      .value("events.json")
      .value("resources.json")
      .end_array()
      .end_object();
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options) {
  configure(std::move(options));
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = [] {
    auto* r = new FlightRecorder();
    FlightRecorderOptions options;
    const char* dir = std::getenv("US3D_POSTMORTEM_DIR");
    if (dir != nullptr) options.directory = dir;
    r->configure(std::move(options));
    return r;
  }();
  return *recorder;
}

void FlightRecorder::configure(FlightRecorderOptions options) {
  MutexLock lock(mutex_);
  options_ = std::move(options);
}

bool FlightRecorder::enabled() const {
  MutexLock lock(mutex_);
  return !options_.directory.empty();
}

std::uint64_t FlightRecorder::bundles_written() const {
  MutexLock lock(mutex_);
  return bundles_written_;
}

std::uint64_t FlightRecorder::rate_limited() const {
  MutexLock lock(mutex_);
  return rate_limited_;
}

std::string FlightRecorder::dump(const std::string& reason,
                                 std::int64_t session) {
  // Serializes concurrent dumps by design: a post-mortem is rare and the
  // failure path that triggers it must never throw, so the whole body is
  // fenced. Only leaf locks (registry/collector/log internals) nest
  // inside.
  MutexLock lock(mutex_);
  if (options_.directory.empty()) return "";
  const auto now = std::chrono::steady_clock::now();
  if (dumped_once_ && now - last_dump_ < options_.min_interval) {
    ++rate_limited_;
    MetricsRegistry::global().counter("flightrec.rate_limited")->increment();
    return "";
  }
  fs::path staging;
  try {
    const fs::path parent(options_.directory);
    fs::create_directories(parent);
    staging = make_staging_dir(parent);

    {
      std::ofstream os(staging / "trace.json");
      TraceCollector::instance().write_chrome_trace(os);
    }
    {
      std::ofstream os(staging / "metrics.json");
      os << MetricsRegistry::global().snapshot_json();
    }
    {
      std::ofstream os(staging / "events.json");
      EventLog::instance().write_events_json(os, options_.last_events);
    }
    {
      // A final synchronous pass so resources.json reflects the moment of
      // failure, not the last sampler tick.
      ResourceProfiler::global().sample_once(MetricsRegistry::global());
      std::ofstream os(staging / "resources.json");
      os << ResourceProfiler::global().summary().to_json();
    }

    // Publish under the ordinal after the highest bundle on disk, so
    // ordinals keep counting across recorders and processes. The rename
    // never replaces a bundle: if another writer took the name first,
    // the next ordinal is tried.
    const std::string slug = sanitize_slug(reason);
    const auto existing = list_bundles(parent);
    std::uint64_t ordinal = existing.empty() ? 1 : existing.back().first + 1;
    fs::path bundle;
    for (;; ++ordinal) {
      const std::string name = bundle_name(ordinal, slug);
      bundle = parent / name;
      if (fs::exists(bundle)) continue;
      // Written last: a manifest's presence marks a complete bundle.
      write_manifest(staging, reason, session, name);
      std::error_code error;
      fs::rename(staging, bundle, error);
      if (!error) break;
      if (!fs::exists(bundle)) {
        throw fs::filesystem_error("publish bundle", staging, bundle, error);
      }
    }
    staging.clear();

    // Retention: drop the lowest-ordinal bundles beyond max_bundles.
    const auto bundles = list_bundles(parent);
    for (std::size_t i = 0; i + options_.max_bundles < bundles.size(); ++i) {
      fs::remove_all(bundles[i].second);
    }

    last_dump_ = now;
    dumped_once_ = true;
    ++bundles_written_;
    MetricsRegistry::global().counter("flightrec.bundles_written")
        ->increment();
    US3D_EVENT_INFO("flightrec.dump", session, -1, "bundle written");
    return bundle.string();
  } catch (...) {
    // Never let a post-mortem attempt take down the failure path that
    // asked for it, nor leave its staging directory behind.
    if (!staging.empty()) {
      std::error_code ignored;
      fs::remove_all(staging, ignored);
    }
    return "";
  }
}

}  // namespace us3d::obs
