#include "obs/event_log.h"

#include <algorithm>
#include <ostream>
#include <string_view>

#include "common/json_writer.h"
#include "obs/seqlock_ring.h"
#include "obs/trace.h"

namespace us3d::obs {

const char* severity_name(EventSeverity severity) {
  switch (severity) {
    case EventSeverity::kDebug:
      return "debug";
    case EventSeverity::kInfo:
      return "info";
    case EventSeverity::kWarn:
      return "warn";
    case EventSeverity::kError:
      return "error";
  }
  return "info";
}

// ---------------------------------------------------------------------------
// EventSnapshot helpers
// ---------------------------------------------------------------------------

std::vector<EventRecord> EventSnapshot::last(std::size_t n) const {
  if (n >= events.size()) return events;
  return std::vector<EventRecord>(events.end() - static_cast<std::ptrdiff_t>(n),
                                  events.end());
}

const EventRecord* EventSnapshot::find(const char* name) const {
  const std::string_view want(name);
  for (const EventRecord& r : events) {
    if (r.name != nullptr && std::string_view(r.name) == want) return &r;
  }
  return nullptr;
}

std::size_t EventSnapshot::count(const char* name) const {
  const std::string_view want(name);
  std::size_t n = 0;
  for (const EventRecord& r : events) {
    if (r.name != nullptr && std::string_view(r.name) == want) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// EventLog
// ---------------------------------------------------------------------------

namespace {

// Leaked on purpose: worker threads may emit during static destruction.
ThreadRings<EventRecord>& rings() {
  static auto* r = new ThreadRings<EventRecord>("US3D_EVENTS", 4096);
  return *r;
}

}  // namespace

EventLog::EventLog() = default;

EventLog& EventLog::instance() {
  static EventLog log;
  (void)rings();
  return log;
}

void EventLog::set_enabled(bool enabled) { rings().set_enabled(enabled); }

bool EventLog::enabled() const { return rings().enabled(); }

void EventLog::set_thread_capacity(std::size_t events) {
  rings().set_thread_capacity(events);
}

std::size_t EventLog::thread_capacity() const {
  return rings().thread_capacity();
}

void EventLog::record(const EventRecord& record) { rings().record(record); }

EventSnapshot EventLog::collect() const {
  EventSnapshot snap;
  rings().for_each([&snap](const ThreadRings<EventRecord>::Buffer& buffer) {
    snap.dropped += buffer.ring.snapshot(snap.events);
  });
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const EventRecord& a, const EventRecord& b) {
                     return a.t_ns < b.t_ns;
                   });
  return snap;
}

void EventLog::reset() { rings().reset(); }

void EventLog::write_events_json(std::ostream& os, std::size_t last_n) const {
  const EventSnapshot snap = collect();
  const std::vector<EventRecord> events =
      last_n == 0 ? snap.events : snap.last(last_n);
  JsonWriter w(os);
  w.begin_object()
      .kv("enabled", enabled())
      .kv("dropped", static_cast<std::int64_t>(snap.dropped))
      .kv("truncated_to", static_cast<std::int64_t>(last_n))
      .key("events")
      .begin_array();
  for (const EventRecord& r : events) {
    w.begin_object()
        .kv("t_ns", static_cast<std::int64_t>(r.t_ns))
        .kv("severity", severity_name(r.severity))
        .kv("name", r.name != nullptr ? r.name : "event");
    if (r.session >= 0) w.kv("session", r.session);
    if (r.sequence >= 0) w.kv("sequence", r.sequence);
    if (r.detail != nullptr) w.kv("detail", r.detail);
    if (r.arg1_name != nullptr) w.kv(r.arg1_name, r.arg1);
    if (r.arg2_name != nullptr) w.kv(r.arg2_name, r.arg2);
    w.end_object();
  }
  w.end_array().end_object();
}

// ---------------------------------------------------------------------------
// emit_event
// ---------------------------------------------------------------------------

void emit_event(EventSeverity severity, const char* name, std::int64_t session,
                std::int64_t sequence, const char* detail,
                const char* arg1_name, std::int64_t arg1,
                const char* arg2_name, std::int64_t arg2) {
  EventLog& log = EventLog::instance();
  if (!log.enabled()) return;
  EventRecord r;
  // Events share the trace epoch so a post-mortem lines them up with spans.
  r.t_ns = TraceCollector::instance().now_ns();
  r.severity = severity;
  r.name = name;
  r.session = session;
  r.sequence = sequence;
  r.detail = detail;
  r.arg1_name = arg1_name;
  r.arg1 = arg1;
  r.arg2_name = arg2_name;
  r.arg2 = arg2;
  log.record(r);
}

}  // namespace us3d::obs
