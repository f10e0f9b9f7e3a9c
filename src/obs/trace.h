// Always-on-capable pipeline tracing: per-thread fixed-capacity span ring
// buffers behind a RAII macro, drained by a process-wide collector into
// Chrome trace-event JSON (load `trace.json` at https://ui.perfetto.dev).
//
// Design constraints, in order:
//  - Zero cost when compiled out: `US3D_TRACING=OFF` (CMake option) makes
//    US3D_TRACE_SPAN/US3D_TRACE_INSTANT expand to an empty inline call —
//    no clock reads, no buffers, an empty trace.
//  - Near-zero cost when compiled in but disabled (the default unless the
//    US3D_TRACE env var or TraceCollector::set_enabled turns it on): one
//    relaxed atomic load per span site, no buffer is ever allocated.
//  - Lock-free recording when enabled: each thread owns a fixed-capacity
//    drop-oldest SeqlockRing (obs/seqlock_ring.h, zero steady-state
//    allocation) and only ever writes its own ring; the collector
//    snapshots rings from any thread through its per-slot seqlock, so a
//    mid-run export never blocks a pipeline stage and never reads a torn
//    record.
//
// Span names and argument names must be string literals (or otherwise
// outlive the collector) — records store the pointers, never copies,
// which is what keeps recording allocation-free.
#ifndef US3D_OBS_TRACE_H
#define US3D_OBS_TRACE_H

#ifndef US3D_TRACING
#define US3D_TRACING 1
#endif

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace us3d::obs {

/// One completed span as recorded by the owning thread. Args are optional
/// (null name = absent): two named integers (frame sequence, session id)
/// plus two named static strings (SIMD backend, arithmetic precision).
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t t0_ns = 0;  ///< begin, ns since the process trace epoch
  std::uint64_t t1_ns = 0;  ///< end (>= t0_ns on the same thread)
  const char* arg1_name = nullptr;
  std::int64_t arg1 = 0;
  const char* arg2_name = nullptr;
  std::int64_t arg2 = 0;
  const char* sarg_name = nullptr;
  const char* sarg = nullptr;
  const char* sarg2_name = nullptr;
  const char* sarg2 = nullptr;
};

/// Everything one thread contributed to the trace.
struct ThreadTrace {
  std::uint64_t tid = 0;
  std::string name;  ///< from set_thread_name(); "thread-<tid>" default
  std::uint64_t dropped_spans = 0;
  std::vector<SpanRecord> spans;  ///< completion order, oldest first
};

struct TraceSnapshot {
  std::vector<ThreadTrace> threads;

  std::uint64_t total_spans() const;
  std::uint64_t total_dropped() const;
  /// First record with this span name, or nullptr (test/assert helper).
  const SpanRecord* find(const char* name) const;
};

/// Process-wide collector: owns every thread's ring buffer (buffers
/// outlive their threads so a trace can be exported after the stage
/// threads joined), the runtime on/off switch, and the Chrome exporter.
class TraceCollector {
 public:
  static TraceCollector& instance();

  /// Runtime switch. Starts enabled only when the US3D_TRACE environment
  /// variable is "1"/"on" at first use; benches and services toggle it
  /// explicitly. Cheap to read (one relaxed load) — span sites check it
  /// before touching the clock.
  void set_enabled(bool enabled);
  bool enabled() const;

  /// True when US3D_TRACING compiled the span sites in at all.
  static constexpr bool compiled_in() { return US3D_TRACING != 0; }

  /// Ring capacity (spans) for threads that register after this call.
  void set_thread_capacity(std::size_t spans);
  std::size_t thread_capacity() const;

  /// Non-destructive snapshot of every thread's current window.
  TraceSnapshot collect() const;

  /// Chrome trace-event JSON: balanced B/E pairs per thread (ts
  /// monotonically non-decreasing within a thread), thread-name metadata
  /// events, and the dropped-span total under otherData. Loadable in
  /// Perfetto / chrome://tracing.
  void write_chrome_trace(std::ostream& os) const;

  /// Discards all recorded spans and zeroes drop counters. Buffers of
  /// threads that already exited are released entirely, so long-lived
  /// processes that trace, export and reset stay bounded.
  void reset();

  // Recording interface (used by TraceSpan / trace_instant).
  void record(const SpanRecord& record);
  std::uint64_t now_ns() const;

  /// Names this thread in the exported trace (thread-name metadata
  /// event). No-op while tracing is disabled.
  void name_this_thread(const std::string& name);

 private:
  TraceCollector();
};

/// Convenience: TraceCollector::instance().name_this_thread(name).
void set_thread_name(const std::string& name);

/// RAII span: records the enclosing scope as one completed span on exit.
/// Constructed disabled when the collector is off — no clock read.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  TraceSpan(const char* name, const char* arg1_name, std::int64_t arg1);
  TraceSpan(const char* name, const char* arg1_name, std::int64_t arg1,
            const char* arg2_name, std::int64_t arg2);
  TraceSpan(const char* name, const char* arg1_name, std::int64_t arg1,
            const char* arg2_name, std::int64_t arg2, const char* sarg_name,
            const char* sarg);
  TraceSpan(const char* name, const char* arg1_name, std::int64_t arg1,
            const char* arg2_name, std::int64_t arg2, const char* sarg_name,
            const char* sarg, const char* sarg2_name, const char* sarg2);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  SpanRecord record_;
  bool active_ = false;
};

/// Zero-duration span (an event): admission decisions, shed drops.
void trace_instant(const char* name);
void trace_instant(const char* name, const char* arg1_name,
                   std::int64_t arg1);
void trace_instant(const char* name, const char* arg1_name, std::int64_t arg1,
                   const char* arg2_name, std::int64_t arg2);

namespace detail {
/// Swallows span arguments in compiled-out builds without unused-variable
/// warnings; inlines to nothing.
template <typename... Args>
constexpr void trace_noop(const Args&...) {}
}  // namespace detail

}  // namespace us3d::obs

#define US3D_TRACE_CAT2(a, b) a##b
#define US3D_TRACE_CAT(a, b) US3D_TRACE_CAT2(a, b)

#if US3D_TRACING
/// Traces the enclosing scope: US3D_TRACE_SPAN("stage.beamform",
/// "sequence", seq, "session", id, "backend", backend_name).
#define US3D_TRACE_SPAN(...) \
  ::us3d::obs::TraceSpan US3D_TRACE_CAT(us3d_trace_span_, __LINE__)(__VA_ARGS__)
/// Records a zero-duration event.
#define US3D_TRACE_INSTANT(...) ::us3d::obs::trace_instant(__VA_ARGS__)
#else
#define US3D_TRACE_SPAN(...) ::us3d::obs::detail::trace_noop(__VA_ARGS__)
#define US3D_TRACE_INSTANT(...) ::us3d::obs::detail::trace_noop(__VA_ARGS__)
#endif

#endif  // US3D_OBS_TRACE_H
