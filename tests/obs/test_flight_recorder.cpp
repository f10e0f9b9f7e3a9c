// Flight-recorder contracts: a dump writes a complete bundle (manifest
// last, all four artifacts valid JSON through the strict reader, trace
// balanced), an unconfigured recorder is a safe no-op from failure
// paths, the rate limiter drops (and counts) back-to-back dumps,
// retention keeps only the newest max_bundles bundles, and ordinals keep
// counting across recorders that share a directory.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace us3d::obs {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test (under the ctest working dir).
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("flightrec_test") /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  FlightRecorderOptions options() {
    FlightRecorderOptions opts;
    opts.directory = dir_.string();
    opts.min_interval = std::chrono::milliseconds(0);
    return opts;
  }

  std::vector<std::string> bundles() const {
    std::vector<std::string> out;
    if (!fs::exists(dir_)) return out;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      out.push_back(entry.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  fs::path dir_;
};

JsonValue parse_artifact(const fs::path& bundle, const std::string& name) {
  std::ifstream in(bundle / name);
  std::ostringstream os;
  os << in.rdbuf();
  return parse_json(os.str());  // throws (fails the test) on bad JSON
}

TEST_F(FlightRecorderTest, UnconfiguredRecorderIsANoOp) {
  FlightRecorder recorder;  // no directory
  EXPECT_FALSE(recorder.enabled());
  EXPECT_EQ(recorder.dump("session_failure"), "");
  EXPECT_EQ(recorder.bundles_written(), 0u);
}

TEST_F(FlightRecorderTest, DumpWritesACompleteValidBundle) {
  // Put live data behind the dump so the artifacts are non-trivial.
  TraceCollector::instance().set_enabled(true);
  EventLog::instance().set_enabled(true);
  { US3D_TRACE_SPAN("flightrec_test.span"); }
  US3D_EVENT_ERROR("flightrec_test.failure", 3, 17, "forced by test");

  FlightRecorder recorder(options());
  EXPECT_TRUE(recorder.enabled());
  const std::string bundle = recorder.dump("session_failure", 3);
  ASSERT_NE(bundle, "");
  EXPECT_EQ(recorder.bundles_written(), 1u);

  const JsonValue manifest = parse_artifact(bundle, "manifest.json");
  EXPECT_EQ(manifest.at("reason").as_string(), "session_failure");
  EXPECT_EQ(manifest.at("session").as_int(), 3);
  ASSERT_EQ(manifest.at("artifacts").size(), 4u);
  for (const JsonValue& artifact : manifest.at("artifacts").elements()) {
    EXPECT_TRUE(fs::exists(fs::path(bundle) / artifact.as_string()));
  }

  // trace.json: valid and balanced (B/E pairs per thread).
  const JsonValue trace = parse_artifact(bundle, "trace.json");
  std::map<std::int64_t, std::int64_t> depth;
  for (const JsonValue& ev : trace.at("traceEvents").elements()) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "B") ++depth[ev.at("tid").as_int()];
    if (ph == "E") {
      EXPECT_GE(--depth[ev.at("tid").as_int()], 0);
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;

  // metrics.json / events.json / resources.json: valid with the expected
  // top-level shape.
  const JsonValue metrics = parse_artifact(bundle, "metrics.json");
  EXPECT_NE(metrics.find("counters"), nullptr);
  const JsonValue events = parse_artifact(bundle, "events.json");
  bool saw_failure = false;
  for (const JsonValue& ev : events.at("events").elements()) {
    if (ev.at("name").as_string() == "flightrec_test.failure") {
      saw_failure = true;
      EXPECT_EQ(ev.at("severity").as_string(), "error");
      EXPECT_EQ(ev.at("session").as_int(), 3);
    }
  }
  EXPECT_TRUE(saw_failure);
  const JsonValue resources = parse_artifact(bundle, "resources.json");
  EXPECT_NE(resources.find("rss_bytes"), nullptr);
  EXPECT_NE(resources.find("stages"), nullptr);
}

TEST_F(FlightRecorderTest, ReasonSlugIsSanitizedIntoTheBundleName) {
  FlightRecorder recorder(options());
  const std::string bundle = recorder.dump("weird reason/../x");
  ASSERT_NE(bundle, "");
  const std::string name = fs::path(bundle).filename().string();
  EXPECT_EQ(name, "pm-000001-weird-reason----x");
}

TEST_F(FlightRecorderTest, RateLimiterDropsAndCountsBackToBackDumps) {
  FlightRecorderOptions opts = options();
  opts.min_interval = std::chrono::hours(1);
  FlightRecorder recorder(opts);

  EXPECT_NE(recorder.dump("first"), "");
  // A crash loop hammering dump(): everything inside the interval drops.
  EXPECT_EQ(recorder.dump("second"), "");
  EXPECT_EQ(recorder.dump("third"), "");
  EXPECT_EQ(recorder.bundles_written(), 1u);
  EXPECT_EQ(recorder.rate_limited(), 2u);
  EXPECT_EQ(bundles().size(), 1u);
}

TEST_F(FlightRecorderTest, RetentionKeepsOnlyTheNewestBundles) {
  FlightRecorderOptions opts = options();
  opts.max_bundles = 2;
  FlightRecorder recorder(opts);

  for (int i = 0; i < 4; ++i) ASSERT_NE(recorder.dump("loop"), "");
  EXPECT_EQ(recorder.bundles_written(), 4u);
  const std::vector<std::string> kept = bundles();
  ASSERT_EQ(kept.size(), 2u);
  // Lexical order == dump order: the two newest survive.
  EXPECT_EQ(kept[0], "pm-000003-loop");
  EXPECT_EQ(kept[1], "pm-000004-loop");
}

TEST_F(FlightRecorderTest, OrdinalsAndRetentionSpanRecordersSharingADirectory) {
  // Each recorder stands in for one process run; a staging directory left
  // behind by an interrupted dump is neither a bundle nor counted.
  fs::create_directories(dir_ / ".partial-1");
  FlightRecorderOptions opts = options();
  opts.max_bundles = 2;
  const auto dump_once = [&](const std::string& reason) {
    FlightRecorder recorder(opts);
    return recorder.dump(reason);
  };

  ASSERT_NE(dump_once("session_failure"), "");
  const std::string second = dump_once("session_failure");
  ASSERT_NE(second, "");
  EXPECT_EQ(bundles(),
            (std::vector<std::string>{".partial-1",
                                      "pm-000001-session_failure",
                                      "pm-000002-session_failure"}));
  EXPECT_EQ(parse_artifact(second, "manifest.json").at("bundle").as_string(),
            "pm-000002-session_failure");

  // Retention deletes the lowest ordinal, not the lexically first name.
  ASSERT_NE(dump_once("manual"), "");
  EXPECT_EQ(bundles(), (std::vector<std::string>{".partial-1",
                                                 "pm-000002-session_failure",
                                                 "pm-000003-manual"}));
}

}  // namespace
}  // namespace us3d::obs
