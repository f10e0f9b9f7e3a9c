#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <ostream>
#include <string_view>

#include "common/annotated_mutex.h"
#include "common/json_writer.h"
#include "obs/seqlock_ring.h"

namespace us3d::obs {

namespace {

/// The trace side's per-thread data: a stable id (registration order) and
/// the exported thread name. Each buffer guards its own name rather than
/// borrowing the registry lock: naming a thread and a collect() of other
/// buffers never contend.
struct ThreadName {
  ThreadName()
      : tid(next_tid.fetch_add(1, std::memory_order_relaxed)),
        name("thread-" + std::to_string(tid)) {}

  static inline std::atomic<std::uint64_t> next_tid{1};
  std::uint64_t tid;
  mutable Mutex mutex;
  std::string name US3D_GUARDED_BY(mutex);
};

using SpanRings = ThreadRings<SpanRecord, ThreadName>;

/// `epoch_ns` is frozen inside the state() initializer before any other
/// thread can observe the object.
struct TraceState {
  SpanRings rings{"US3D_TRACE", 8192};
  std::uint64_t epoch_ns = steady_now_ns();
};

// Leaked on purpose: worker threads may record during static destruction.
TraceState& state() {
  static TraceState* s = new TraceState();
  return *s;
}

}  // namespace

TraceCollector::TraceCollector() = default;

TraceCollector& TraceCollector::instance() {
  static TraceCollector collector;
  (void)state();
  return collector;
}

void TraceCollector::set_enabled(bool enabled) {
  state().rings.set_enabled(enabled);
}

bool TraceCollector::enabled() const { return state().rings.enabled(); }

void TraceCollector::set_thread_capacity(std::size_t spans) {
  state().rings.set_thread_capacity(spans);
}

std::size_t TraceCollector::thread_capacity() const {
  return state().rings.thread_capacity();
}

void TraceCollector::record(const SpanRecord& record) {
  state().rings.record(record);
}

std::uint64_t TraceCollector::now_ns() const {
  return steady_now_ns() - state().epoch_ns;
}

void TraceCollector::name_this_thread(const std::string& name) {
  if (!enabled()) return;
  ThreadName& meta = state().rings.local().meta;
  MutexLock lock(meta.mutex);
  meta.name = name;
}

TraceSnapshot TraceCollector::collect() const {
  TraceSnapshot snap;
  state().rings.for_each([&snap](const SpanRings::Buffer& buffer) {
    ThreadTrace t;
    t.tid = buffer.meta.tid;
    {
      MutexLock lock(buffer.meta.mutex);
      t.name = buffer.meta.name;
    }
    t.dropped_spans = buffer.ring.snapshot(t.spans);
    snap.threads.push_back(std::move(t));
  });
  return snap;
}

void TraceCollector::reset() { state().rings.reset(); }

void set_thread_name(const std::string& name) {
  TraceCollector::instance().name_this_thread(name);
}

// ---------------------------------------------------------------------------
// Snapshot helpers
// ---------------------------------------------------------------------------

std::uint64_t TraceSnapshot::total_spans() const {
  std::uint64_t n = 0;
  for (const ThreadTrace& t : threads) n += t.spans.size();
  return n;
}

std::uint64_t TraceSnapshot::total_dropped() const {
  std::uint64_t n = 0;
  for (const ThreadTrace& t : threads) n += t.dropped_spans;
  return n;
}

const SpanRecord* TraceSnapshot::find(const char* name) const {
  const std::string_view want(name);
  for (const ThreadTrace& t : threads) {
    for (const SpanRecord& r : t.spans) {
      if (r.name != nullptr && std::string_view(r.name) == want) return &r;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

namespace {

void write_span_args(JsonWriter& w, const SpanRecord& r) {
  if (r.arg1_name == nullptr && r.arg2_name == nullptr &&
      r.sarg_name == nullptr && r.sarg2_name == nullptr) {
    return;
  }
  w.key("args").begin_object();
  if (r.arg1_name != nullptr) w.kv(r.arg1_name, r.arg1);
  if (r.arg2_name != nullptr) w.kv(r.arg2_name, r.arg2);
  if (r.sarg_name != nullptr && r.sarg != nullptr) w.kv(r.sarg_name, r.sarg);
  if (r.sarg2_name != nullptr && r.sarg2 != nullptr) {
    w.kv(r.sarg2_name, r.sarg2);
  }
  w.end_object();
}

void write_duration_event(JsonWriter& w, char phase, std::uint64_t tid,
                          double ts_us, const SpanRecord& r) {
  w.begin_object()
      .kv("ph", std::string_view(&phase, 1))
      .kv("pid", 1)
      .kv("tid", static_cast<std::int64_t>(tid))
      .kv("ts", ts_us)
      .kv("name", r.name != nullptr ? r.name : "span")
      .kv("cat", "us3d");
  if (phase == 'B') write_span_args(w, r);
  w.end_object();
}

}  // namespace

void TraceCollector::write_chrome_trace(std::ostream& os) const {
  const TraceSnapshot snap = collect();
  JsonWriter w(os);
  w.begin_object().key("traceEvents").begin_array();
  for (const ThreadTrace& t : snap.threads) {
    w.begin_object()
        .kv("ph", "M")
        .kv("pid", 1)
        .kv("tid", static_cast<std::int64_t>(t.tid))
        .kv("name", "thread_name")
        .key("args")
        .begin_object()
        .kv("name", t.name)
        .end_object()
        .end_object();
  }
  for (const ThreadTrace& t : snap.threads) {
    // RAII spans on one thread are properly nested or disjoint, so the
    // interval set replays as a balanced B/E sequence: visit spans outer-
    // first (t0 asc, t1 desc), closing every open span that ends at or
    // before the next span starts. Emitted ts is monotone per thread.
    std::vector<const SpanRecord*> order;
    order.reserve(t.spans.size());
    for (const SpanRecord& r : t.spans) order.push_back(&r);
    std::stable_sort(order.begin(), order.end(),
                     [](const SpanRecord* a, const SpanRecord* b) {
                       if (a->t0_ns != b->t0_ns) return a->t0_ns < b->t0_ns;
                       return a->t1_ns > b->t1_ns;
                     });
    std::vector<const SpanRecord*> open;
    for (const SpanRecord* r : order) {
      while (!open.empty() && open.back()->t1_ns <= r->t0_ns) {
        write_duration_event(w, 'E', t.tid,
                             static_cast<double>(open.back()->t1_ns) / 1e3,
                             *open.back());
        open.pop_back();
      }
      write_duration_event(w, 'B', t.tid,
                           static_cast<double>(r->t0_ns) / 1e3, *r);
      open.push_back(r);
    }
    while (!open.empty()) {
      write_duration_event(w, 'E', t.tid,
                             static_cast<double>(open.back()->t1_ns) / 1e3,
                           *open.back());
      open.pop_back();
    }
  }
  w.end_array()
      .key("otherData")
      .begin_object()
      .kv("dropped_spans", static_cast<std::int64_t>(snap.total_dropped()))
      .kv("tracing_compiled", compiled_in())
      .end_object()
      .kv("displayTimeUnit", "ms")
      .end_object();
}

// ---------------------------------------------------------------------------
// TraceSpan / trace_instant
// ---------------------------------------------------------------------------

TraceSpan::TraceSpan(const char* name) {
  TraceCollector& c = TraceCollector::instance();
  if (!c.enabled()) return;
  active_ = true;
  record_.name = name;
  record_.t0_ns = c.now_ns();
}

TraceSpan::TraceSpan(const char* name, const char* arg1_name,
                     std::int64_t arg1)
    : TraceSpan(name) {
  record_.arg1_name = arg1_name;
  record_.arg1 = arg1;
}

TraceSpan::TraceSpan(const char* name, const char* arg1_name,
                     std::int64_t arg1, const char* arg2_name,
                     std::int64_t arg2)
    : TraceSpan(name, arg1_name, arg1) {
  record_.arg2_name = arg2_name;
  record_.arg2 = arg2;
}

TraceSpan::TraceSpan(const char* name, const char* arg1_name,
                     std::int64_t arg1, const char* arg2_name,
                     std::int64_t arg2, const char* sarg_name,
                     const char* sarg)
    : TraceSpan(name, arg1_name, arg1, arg2_name, arg2) {
  record_.sarg_name = sarg_name;
  record_.sarg = sarg;
}

TraceSpan::TraceSpan(const char* name, const char* arg1_name,
                     std::int64_t arg1, const char* arg2_name,
                     std::int64_t arg2, const char* sarg_name,
                     const char* sarg, const char* sarg2_name,
                     const char* sarg2)
    : TraceSpan(name, arg1_name, arg1, arg2_name, arg2, sarg_name, sarg) {
  record_.sarg2_name = sarg2_name;
  record_.sarg2 = sarg2;
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  TraceCollector& c = TraceCollector::instance();
  record_.t1_ns = c.now_ns();
  if (record_.t1_ns < record_.t0_ns) record_.t1_ns = record_.t0_ns;
  c.record(record_);
}

void trace_instant(const char* name) {
  TraceCollector& c = TraceCollector::instance();
  if (!c.enabled()) return;
  SpanRecord r;
  r.name = name;
  r.t0_ns = r.t1_ns = c.now_ns();
  c.record(r);
}

void trace_instant(const char* name, const char* arg1_name,
                   std::int64_t arg1) {
  TraceCollector& c = TraceCollector::instance();
  if (!c.enabled()) return;
  SpanRecord r;
  r.name = name;
  r.t0_ns = r.t1_ns = c.now_ns();
  r.arg1_name = arg1_name;
  r.arg1 = arg1;
  c.record(r);
}

void trace_instant(const char* name, const char* arg1_name, std::int64_t arg1,
                   const char* arg2_name, std::int64_t arg2) {
  TraceCollector& c = TraceCollector::instance();
  if (!c.enabled()) return;
  SpanRecord r;
  r.name = name;
  r.t0_ns = r.t1_ns = c.now_ns();
  r.arg1_name = arg1_name;
  r.arg1 = arg1;
  r.arg2_name = arg2_name;
  r.arg2 = arg2;
  c.record(r);
}

}  // namespace us3d::obs
