// Trace contracts the exporter and every consumer rely on: per-thread
// overflow drops the oldest spans and counts them, the Chrome export is
// balanced (every B closed by an E) with per-thread monotonic timestamps,
// a disabled or compiled-out build records nothing and registers no
// buffer, and reset() releases the buffers of joined threads. The ring
// itself (window, drop counts, torn-read stress) is covered for both
// record types in test_seqlock_ring.cpp.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.h"

namespace us3d::obs {
namespace {

/// Every trace test starts from a clean, enabled collector (tests in this
/// binary share the process-wide instance).
void fresh_collector() {
  TraceCollector::instance().set_enabled(true);
  TraceCollector::instance().reset();
}

/// The registered thread named `name`, or nullptr.
const ThreadTrace* find_thread(const TraceSnapshot& snap,
                               const std::string& name) {
  for (const ThreadTrace& thread : snap.threads) {
    if (thread.name == name) return &thread;
  }
  return nullptr;
}

TEST(Trace, DisabledCollectorRecordsNothingAndAllocatesNoBuffers) {
  TraceCollector::instance().reset();
  TraceCollector::instance().set_enabled(false);
  const std::size_t threads_before =
      TraceCollector::instance().collect().threads.size();
  {
    US3D_TRACE_SPAN("never");
    US3D_TRACE_INSTANT("never.either", "x", 1);
  }
  // A thread that names itself and records while tracing is off never
  // registers a buffer.
  std::thread t([] {
    set_thread_name("disabled-thread");
    US3D_TRACE_SPAN("never.on.thread");
    US3D_TRACE_INSTANT("never.on.thread.either");
  });
  t.join();
  const TraceSnapshot snap = TraceCollector::instance().collect();
  EXPECT_EQ(snap.total_spans(), 0u);
  EXPECT_EQ(snap.threads.size(), threads_before);
  EXPECT_EQ(find_thread(snap, "disabled-thread"), nullptr);
  TraceCollector::instance().set_enabled(true);
}

TEST(Trace, ResetReleasesTheBuffersOfJoinedThreads) {
  if (!TraceCollector::compiled_in()) GTEST_SKIP();
  fresh_collector();
  std::thread t([] {
    set_thread_name("short-lived");
    US3D_TRACE_INSTANT("short.lived");
  });
  t.join();
  // Buffers outlive their threads: the joined thread is still exported.
  const TraceSnapshot before = TraceCollector::instance().collect();
  ASSERT_NE(find_thread(before, "short-lived"), nullptr);
  TraceCollector::instance().reset();
  const TraceSnapshot after = TraceCollector::instance().collect();
  EXPECT_EQ(after.threads.size(), before.threads.size() - 1);
  EXPECT_EQ(find_thread(after, "short-lived"), nullptr);
}

TEST(Trace, CompiledOutBuildEmitsAnEmptyTrace) {
  if (TraceCollector::compiled_in()) {
    GTEST_SKIP() << "span sites compiled in (US3D_TRACING=ON)";
  }
  fresh_collector();
  {
    US3D_TRACE_SPAN("gone", "sequence", std::int64_t{1});
    US3D_TRACE_INSTANT("gone.too");
  }
  const TraceSnapshot snap = TraceCollector::instance().collect();
  EXPECT_EQ(snap.total_spans(), 0u);
  std::ostringstream os;
  TraceCollector::instance().write_chrome_trace(os);
  const JsonValue doc = parse_json(os.str());
  EXPECT_TRUE(doc.at("traceEvents").elements().empty());
}

TEST(Trace, MacroRecordsANamedSpanWithArguments) {
  if (!TraceCollector::compiled_in()) GTEST_SKIP();
  fresh_collector();
  {
    US3D_TRACE_SPAN("test.outer", "sequence", std::int64_t{7}, "session",
                    std::int64_t{3}, "backend", "scalar");
    US3D_TRACE_SPAN("test.inner");
  }
  US3D_TRACE_INSTANT("test.event", "sequence", std::int64_t{8});
  const TraceSnapshot snap = TraceCollector::instance().collect();
  EXPECT_EQ(snap.total_spans(), 3u);
  const SpanRecord* outer = snap.find("test.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->arg1, 7);
  EXPECT_EQ(outer->arg2, 3);
  ASSERT_NE(outer->sarg, nullptr);
  EXPECT_STREQ(outer->sarg, "scalar");
  EXPECT_GE(outer->t1_ns, outer->t0_ns);
  const SpanRecord* inner = snap.find("test.inner");
  ASSERT_NE(inner, nullptr);
  // RAII nesting: the inner scope closed before the outer one.
  EXPECT_LE(outer->t0_ns, inner->t0_ns);
  EXPECT_GE(outer->t1_ns, inner->t1_ns);
  const SpanRecord* event = snap.find("test.event");
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(event->t0_ns, event->t1_ns);
}

TEST(Trace, OverflowDropsOldestAndReportsDroppedSpans) {
  if (!TraceCollector::compiled_in()) GTEST_SKIP();
  fresh_collector();
  const std::size_t restore = TraceCollector::instance().thread_capacity();
  TraceCollector::instance().set_thread_capacity(8);
  // A fresh thread picks up the small capacity (the capacity applies to
  // threads that register after the call).
  std::thread t([] {
    set_thread_name("overflower");
    for (std::int64_t i = 0; i < 20; ++i) {
      US3D_TRACE_INSTANT("spam", "i", i);
    }
  });
  t.join();
  TraceCollector::instance().set_thread_capacity(restore);

  const TraceSnapshot snap = TraceCollector::instance().collect();
  const ThreadTrace* overflower = find_thread(snap, "overflower");
  ASSERT_NE(overflower, nullptr);
  EXPECT_EQ(overflower->spans.size(), 8u);
  EXPECT_EQ(overflower->dropped_spans, 12u);
  // The survivors are the newest records.
  EXPECT_EQ(overflower->spans.front().arg1, 12);
  EXPECT_EQ(overflower->spans.back().arg1, 19);
}

TEST(Trace, ChromeExportIsBalancedAndMonotonicPerThread) {
  if (!TraceCollector::compiled_in()) GTEST_SKIP();
  fresh_collector();
  set_thread_name("main-test");
  for (int i = 0; i < 3; ++i) {
    US3D_TRACE_SPAN("outer", "sequence", static_cast<std::int64_t>(i));
    US3D_TRACE_SPAN("inner");
    US3D_TRACE_INSTANT("tick");
  }
  std::thread worker([] {
    set_thread_name("worker-test");
    for (int i = 0; i < 5; ++i) {
      US3D_TRACE_SPAN("task", "i", static_cast<std::int64_t>(i));
    }
  });
  worker.join();

  std::ostringstream os;
  TraceCollector::instance().write_chrome_trace(os);
  const JsonValue doc = parse_json(os.str());
  const std::vector<JsonValue>& events = doc.at("traceEvents").elements();
  ASSERT_FALSE(events.empty());

  // Per-thread sweep: B/E balanced as a stack (never negative, ends at
  // zero) and ts non-decreasing — the Perfetto import contract.
  std::map<std::int64_t, int> open;
  std::map<std::int64_t, double> last_ts;
  bool saw_thread_name_meta = false;
  for (const JsonValue& e : events) {
    const std::string& ph = e.at("ph").as_string("ph");
    const std::int64_t tid = e.at("tid").as_int("tid");
    if (ph == "M") {
      saw_thread_name_meta |=
          e.at("name").as_string("name") == "thread_name";
      continue;
    }
    const double ts = e.at("ts").as_double("ts");
    if (last_ts.count(tid)) {
      EXPECT_GE(ts, last_ts[tid]);
    }
    last_ts[tid] = ts;
    if (ph == "B") {
      ++open[tid];
    } else if (ph == "E") {
      --open[tid];
      ASSERT_GE(open[tid], 0) << "E without a matching B on tid " << tid;
    } else {
      ADD_FAILURE() << "unexpected phase '" << ph << "'";
    }
  }
  EXPECT_TRUE(saw_thread_name_meta);
  for (const auto& [tid, depth] : open) {
    EXPECT_EQ(depth, 0) << "unbalanced events on tid " << tid;
  }
}

TEST(Trace, ResetDiscardsEverything) {
  if (!TraceCollector::compiled_in()) GTEST_SKIP();
  fresh_collector();
  { US3D_TRACE_SPAN("ephemeral"); }
  EXPECT_GE(TraceCollector::instance().collect().total_spans(), 1u);
  TraceCollector::instance().reset();
  EXPECT_EQ(TraceCollector::instance().collect().total_spans(), 0u);
  EXPECT_EQ(TraceCollector::instance().collect().total_dropped(), 0u);
}

}  // namespace
}  // namespace us3d::obs
