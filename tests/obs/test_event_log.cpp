// Event-log contracts the flight recorder relies on: a merged snapshot is
// timestamp-sorted and finds events by literal name, the JSON export
// round-trips through the strict reader, and a disabled log records
// nothing. The per-thread ring (window, drop counts, torn-read stress) is
// covered for both record types in test_seqlock_ring.cpp.
#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>

#include "common/json_reader.h"

namespace us3d::obs {
namespace {

/// Every test starts from a clean, enabled log (tests in this binary
/// share the process-wide instance).
void fresh_log() {
  EventLog::instance().set_enabled(true);
  EventLog::instance().reset();
}

TEST(EventLog, DisabledLogRecordsNothing) {
  fresh_log();
  EventLog::instance().set_enabled(false);
  US3D_EVENT_INFO("ignored.event", 1, 2, "while disabled");
  EXPECT_EQ(EventLog::instance().collect().events.size(), 0u);
  EventLog::instance().set_enabled(true);
}

TEST(EventLog, CollectMergesSortsAndFindsByName) {
  fresh_log();
  US3D_EVENT_INFO("svc.admit", 7, -1, nullptr, "workers", 3);
  US3D_EVENT_WARN("svc.shed", 7, 42, "drop_oldest", "depth", 2);
  US3D_EVENT_ERROR("svc.failed", 7);
  std::thread other([] { US3D_EVENT_DEBUG("svc.other_thread", 8); });
  other.join();

  const EventSnapshot snap = EventLog::instance().collect();
  ASSERT_EQ(snap.events.size(), 4u);
  EXPECT_EQ(snap.dropped, 0u);
  for (std::size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_LE(snap.events[i - 1].t_ns, snap.events[i].t_ns);
  }
  const EventRecord* shed = snap.find("svc.shed");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->severity, EventSeverity::kWarn);
  EXPECT_EQ(shed->session, 7);
  EXPECT_EQ(shed->sequence, 42);
  EXPECT_STREQ(shed->detail, "drop_oldest");
  EXPECT_STREQ(shed->arg1_name, "depth");
  EXPECT_EQ(shed->arg1, 2);
  EXPECT_EQ(snap.count("svc.shed"), 1u);
  EXPECT_EQ(snap.find("svc.missing"), nullptr);
  ASSERT_EQ(snap.last(1).size(), 1u);
  EXPECT_STREQ(snap.last(1)[0].name, "svc.other_thread");
}

TEST(EventLog, JsonExportRoundTripsThroughTheStrictReader) {
  fresh_log();
  US3D_EVENT_INFO("json.first", 1, 10, "detail text", "k1", -5, "k2", 6);
  US3D_EVENT_WARN("json.second");

  std::ostringstream os;
  EventLog::instance().write_events_json(os);
  const JsonValue v = parse_json(os.str());
  EXPECT_TRUE(v.at("enabled").as_bool());
  EXPECT_EQ(v.at("dropped").as_int(), 0);
  ASSERT_EQ(v.at("events").size(), 2u);
  const JsonValue& first = v.at("events").elements()[0];
  EXPECT_EQ(first.at("name").as_string(), "json.first");
  EXPECT_EQ(first.at("severity").as_string(), "info");
  EXPECT_EQ(first.at("session").as_int(), 1);
  EXPECT_EQ(first.at("sequence").as_int(), 10);
  EXPECT_EQ(first.at("detail").as_string(), "detail text");
  EXPECT_EQ(first.at("k1").as_int(), -5);
  EXPECT_EQ(first.at("k2").as_int(), 6);
  // Optional context is omitted, not emitted as -1.
  const JsonValue& second = v.at("events").elements()[1];
  EXPECT_EQ(second.find("session"), nullptr);
  EXPECT_EQ(second.find("detail"), nullptr);
}

TEST(EventLog, JsonExportTruncatesToTheNewestN) {
  fresh_log();
  for (int i = 0; i < 6; ++i) US3D_EVENT_INFO("trunc.event", i);
  std::ostringstream os;
  EventLog::instance().write_events_json(os, 2);
  const JsonValue v = parse_json(os.str());
  ASSERT_EQ(v.at("events").size(), 2u);
  EXPECT_EQ(v.at("events").elements()[1].at("session").as_int(), 5);
}

TEST(EventLog, ResetForgetsEverything) {
  fresh_log();
  US3D_EVENT_INFO("reset.me");
  EXPECT_EQ(EventLog::instance().collect().events.size(), 1u);
  EventLog::instance().reset();
  const EventSnapshot snap = EventLog::instance().collect();
  EXPECT_EQ(snap.events.size(), 0u);
  EXPECT_EQ(snap.dropped, 0u);
}

TEST(EventLog, SeverityNamesAreStable) {
  EXPECT_STREQ(severity_name(EventSeverity::kDebug), "debug");
  EXPECT_STREQ(severity_name(EventSeverity::kInfo), "info");
  EXPECT_STREQ(severity_name(EventSeverity::kWarn), "warn");
  EXPECT_STREQ(severity_name(EventSeverity::kError), "error");
}

}  // namespace
}  // namespace us3d::obs
