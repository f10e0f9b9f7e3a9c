// Flight recorder: turns the always-on telemetry (span rings, metrics,
// event log, resource profiler) into a post-mortem artifact the moment
// something goes wrong. A dump snapshots the four layers one after
// another (each layer's own snapshot is consistent, the four together are
// not one instant) into a private staging directory, then renames it
// into place, so a bundle directory appears only once it is complete:
//
//   <dir>/pm-<seq>-<reason>/
//     manifest.json    reason, session, timestamp, artifact list
//     trace.json       Chrome trace (TraceCollector::write_chrome_trace)
//     metrics.json     MetricsRegistry snapshot_json()
//     events.json      last-N structured events (+ drop count)
//     resources.json   ResourceProfiler summary
//
// <seq> is one more than the highest bundle ordinal already in <dir>, so
// ordinals keep counting across recorders and processes sharing a
// directory; a rename never replaces an existing bundle (a taken name
// moves the dump to the next ordinal). Two processes dumping at the same
// moment with different reasons can still publish one ordinal twice.
// Staging directories (".partial-*") are never listed or counted.
//
// Triggers: explicit dump() calls and the service's session-failure
// hook. Dumps are rate-limited (a crash-looping session can't flood the
// disk) and retention-bounded (lowest-ordinal bundles deleted beyond
// max_bundles). Disabled entirely when no directory is configured — the
// default unless US3D_POSTMORTEM_DIR is set — so production code can
// call dump() unconditionally from failure paths.
//
// Never call dump() while holding a session or pipeline lock: it does
// file IO and walks every telemetry registry. The service sets a flag
// under its lock and dumps after release (see maybe_dump_failure).
#ifndef US3D_OBS_FLIGHT_RECORDER_H
#define US3D_OBS_FLIGHT_RECORDER_H

#include <chrono>
#include <cstdint>
#include <string>

#include "common/annotated_mutex.h"

namespace us3d::obs {

struct FlightRecorderOptions {
  /// Bundle parent directory; empty disables the recorder. Defaults from
  /// the US3D_POSTMORTEM_DIR environment variable for the global()
  /// instance.
  std::string directory;
  /// Oldest bundles beyond this are deleted after each dump.
  std::size_t max_bundles = 8;
  /// Dumps closer together than this are dropped (counted, not queued).
  std::chrono::milliseconds min_interval{2000};
  /// How many trailing events land in events.json.
  std::size_t last_events = 256;
};

class FlightRecorder {
 public:
  /// Process-wide instance used by the service hooks; configured from
  /// US3D_POSTMORTEM_DIR at first use, reconfigurable via configure().
  static FlightRecorder& global();

  FlightRecorder() = default;
  explicit FlightRecorder(FlightRecorderOptions options);

  void configure(FlightRecorderOptions options);
  bool enabled() const;

  /// Writes one bundle and returns its directory path. Returns "" when
  /// disabled, rate-limited, or the directory cannot be created. `reason`
  /// becomes part of the bundle name — keep it a short slug
  /// ("session_failure", "manual"); non-slug characters are
  /// sanitized to '-'. Thread-safe; concurrent dumps serialize.
  std::string dump(const std::string& reason, std::int64_t session = -1);

  /// Dumps written / dropped by the rate limiter since construction.
  std::uint64_t bundles_written() const;
  std::uint64_t rate_limited() const;

 private:
  mutable Mutex mutex_;
  FlightRecorderOptions options_ US3D_GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point last_dump_ US3D_GUARDED_BY(mutex_);
  bool dumped_once_ US3D_GUARDED_BY(mutex_) = false;
  std::uint64_t bundles_written_ US3D_GUARDED_BY(mutex_) = 0;
  std::uint64_t rate_limited_ US3D_GUARDED_BY(mutex_) = 0;
};

}  // namespace us3d::obs

#endif  // US3D_OBS_FLIGHT_RECORDER_H
