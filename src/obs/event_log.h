// Structured event log: the narrative companion to the span rings. Spans
// say how long each stage took; events say *what happened* — every
// admission, shed, rebalance, failure and queue stall leaves one typed,
// timestamped record the flight recorder can replay after a session dies.
//
// Same discipline as obs/trace.h, deliberately:
//  - Near-zero cost when disabled (the default unless the US3D_EVENTS env
//    var or EventLog::set_enabled turns it on): one relaxed atomic load
//    per emit site, no buffer ever allocated.
//  - Lock-free recording when enabled: each thread owns a fixed-capacity
//    drop-oldest SeqlockRing (obs/seqlock_ring.h, the same ring and
//    per-thread registry as trace spans) and only ever writes its own
//    ring, so an export mid-chaos never blocks an emitter and never reads
//    a torn record. Overwritten-before-seen records are counted, never
//    silently lost.
//  - Never allocates on the emit path: records store `const char*` for
//    the event name, the detail string and both argument keys — they MUST
//    be string literals (or otherwise outlive the log). tools/lint_us3d.py
//    enforces the literal rule at the US3D_EVENT_* macro sites exactly as
//    it does for trace spans.
#ifndef US3D_OBS_EVENT_LOG_H
#define US3D_OBS_EVENT_LOG_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace us3d::obs {

/// 64-bit so an EventRecord is whole ring words with no padding.
enum class EventSeverity : std::int64_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

/// "debug" / "info" / "warn" / "error" (static storage).
const char* severity_name(EventSeverity severity);

/// One recorded event. The pointers are borrowed, never owned: name and
/// the optional detail/key strings must have static storage.
struct EventRecord {
  std::uint64_t t_ns = 0;  ///< ns since the process trace epoch
  EventSeverity severity = EventSeverity::kInfo;
  const char* name = nullptr;   ///< literal: "service.shed", ...
  std::int64_t session = -1;    ///< session context; -1 = none
  std::int64_t sequence = -1;   ///< frame sequence context; -1 = none
  const char* detail = nullptr; ///< static string (backend, policy, reason)
  const char* arg1_name = nullptr;
  std::int64_t arg1 = 0;
  const char* arg2_name = nullptr;
  std::int64_t arg2 = 0;
};

/// Everything the log currently remembers, merged across threads and
/// sorted by timestamp (oldest first).
struct EventSnapshot {
  std::vector<EventRecord> events;
  std::uint64_t dropped = 0;

  /// The newest `n` events (suffix of `events`).
  std::vector<EventRecord> last(std::size_t n) const;
  /// First event with this name, or nullptr (test/assert helper).
  const EventRecord* find(const char* name) const;
  std::size_t count(const char* name) const;
};

/// Process-wide event log: owns every thread's ring (rings outlive their
/// threads so a post-mortem can read events from joined stage threads),
/// the runtime switch, and the JSON exporter the flight recorder uses.
class EventLog {
 public:
  static EventLog& instance();

  /// Runtime switch. Starts enabled only when the US3D_EVENTS environment
  /// variable is "1"/"on" at first use. One relaxed load per emit site.
  void set_enabled(bool enabled);
  bool enabled() const;

  /// Ring capacity (events) for threads that register after this call.
  void set_thread_capacity(std::size_t events);
  std::size_t thread_capacity() const;

  /// Non-destructive merged snapshot, sorted by timestamp.
  EventSnapshot collect() const;

  /// {"enabled":...,"dropped":N,"events":[{...}...]} — the newest
  /// `last_n` events (0 = all), readable back through us3d::parse_json.
  void write_events_json(std::ostream& os, std::size_t last_n = 0) const;

  /// Discards all recorded events, zeroes drop counters, and releases the
  /// rings of threads that already exited.
  void reset();

  /// Recording interface (used by the emit functions). Timestamps share
  /// the trace epoch so events line up with spans in a post-mortem.
  void record(const EventRecord& record);

 private:
  EventLog();
};

/// Emit one event (cheap no-op while the log is disabled). `name`,
/// `detail` and the argument keys must be string literals / static.
void emit_event(EventSeverity severity, const char* name,
                std::int64_t session = -1, std::int64_t sequence = -1,
                const char* detail = nullptr, const char* arg1_name = nullptr,
                std::int64_t arg1 = 0, const char* arg2_name = nullptr,
                std::int64_t arg2 = 0);

}  // namespace us3d::obs

/// Emit macros, one per severity:
///   US3D_EVENT_WARN("service.shed", session, sequence, policy_name,
///                   "depth", depth);
/// Argument order after the literal name: session id, frame sequence,
/// static detail string, then up to two ("key", value) int64 pairs. All
/// trailing arguments are optional. The name and the keys must be string
/// literals — records keep the pointers (lint-enforced).
#define US3D_EVENT_DEBUG(...) \
  ::us3d::obs::emit_event(::us3d::obs::EventSeverity::kDebug, __VA_ARGS__)
#define US3D_EVENT_INFO(...) \
  ::us3d::obs::emit_event(::us3d::obs::EventSeverity::kInfo, __VA_ARGS__)
#define US3D_EVENT_WARN(...) \
  ::us3d::obs::emit_event(::us3d::obs::EventSeverity::kWarn, __VA_ARGS__)
#define US3D_EVENT_ERROR(...) \
  ::us3d::obs::emit_event(::us3d::obs::EventSeverity::kError, __VA_ARGS__)

#endif  // US3D_OBS_EVENT_LOG_H
