// ServiceStats / SessionStats: the JSON contract dashboards and
// examples/imaging_service.cpp read (keys only grow), per-class latency
// aggregation, and the enum name round-trips.
#include "service/service_stats.h"

#include <gtest/gtest.h>

#include <string>

#include "service/imaging_service.h"

#include "acoustic/echo_synth.h"
#include "acoustic/phantom.h"
#include "common/prng.h"

namespace us3d::service {
namespace {

TEST(ServiceEnums, NamesRoundTrip) {
  for (const PriorityClass p :
       {PriorityClass::kInteractive, PriorityClass::kRoutine,
        PriorityClass::kBulk}) {
    const auto back = parse_priority(priority_name(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  for (const ShedPolicy p :
       {ShedPolicy::kRefuseNewest, ShedPolicy::kDropOldest,
        ShedPolicy::kAdaptiveDepth}) {
    const auto back = parse_policy(policy_name(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(parse_priority("vip").has_value());
  EXPECT_FALSE(parse_policy("drop_everything").has_value());
}

TEST(SessionStats, JsonCarriesTheLedgerKeys) {
  SessionStats s;
  s.id = 7;
  s.scenario = "demo";
  s.submitted = 10;
  s.accepted = 8;
  s.shed_refused = 2;
  s.latency.add(0.001);
  const std::string json = s.to_json();
  for (const char* key :
       {"\"id\"", "\"scenario\"", "\"priority\"", "\"policy\"",
        "\"granted_workers\"", "\"granted_depth\"", "\"effective_depth\"",
        "\"submitted\"", "\"accepted\"", "\"shed_refused\"",
        "\"shed_dropped\"", "\"shed_adaptive\"", "\"refused_terminal\"",
        "\"delivered_frames\"", "\"delivered_insonifications\"",
        "\"failed\"", "\"error\"", "\"latency\"", "\"p50_ms\"", "\"p90_ms\"",
        "\"p99_ms\"", "\"pipeline\"", "\"queue_depth\"", "\"ring_slots\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  EXPECT_NE(json.find("\"scenario\":\"demo\""), std::string::npos);
}

TEST(SessionStats, ReconciliationCatchesLostFrames) {
  SessionStats s;
  s.submitted = 5;
  s.accepted = 3;
  s.shed_refused = 2;
  s.pipeline.insonifications = 3;
  s.delivered_insonifications = 2;
  s.pipeline.dropped_frames = 1;
  EXPECT_TRUE(s.reconciles());
  s.submitted = 6;  // one frame unaccounted for
  EXPECT_FALSE(s.reconciles());
}

TEST(SessionStats, LedgerBoundedHoldsMidFlightAndCatchesDoubleCounting) {
  // A healthy mid-flight snapshot: one frame accepted but still in the
  // pipeline — reconciles() is not yet exact, but the bound holds.
  SessionStats s;
  s.submitted = 5;
  s.accepted = 4;
  s.shed_refused = 1;
  s.pipeline.insonifications = 4;
  s.delivered_insonifications = 3;
  EXPECT_FALSE(s.reconciles());
  EXPECT_TRUE(s.ledger_bounded());
  // Every closed, reconciled ledger is also bounded.
  s.delivered_insonifications = 4;
  EXPECT_TRUE(s.reconciles());
  EXPECT_TRUE(s.ledger_bounded());
  // Double counting (a frame both delivered and shed) breaks the bound.
  s.shed_dropped = 2;
  EXPECT_FALSE(s.ledger_bounded());
  // Delivery exceeding pipeline acceptance breaks it too — that is
  // exactly the torn mid-run scrape the one-lock snapshot prevents.
  SessionStats torn;
  torn.submitted = 4;
  torn.accepted = 4;
  torn.pipeline.insonifications = 0;  // stale pipeline view
  torn.delivered_insonifications = 3;
  EXPECT_FALSE(torn.ledger_bounded());
}

TEST(ServiceStats, LedgerBoundedAggregatesOverSessions) {
  ServiceStats s;
  s.submitted = 10;
  s.delivered_frames = 6;
  s.shed_dropped = 4;
  EXPECT_TRUE(s.ledger_bounded());
  s.shed_dropped = 5;  // 6 + 5 > 10: something was counted twice
  EXPECT_FALSE(s.ledger_bounded());
  s.shed_dropped = 4;
  SessionStats bad;
  bad.delivered_insonifications = 1;  // delivered more than accepted
  s.sessions.push_back(bad);
  EXPECT_FALSE(s.ledger_bounded());
}

TEST(ServiceStats, JsonCarriesTheServiceContractKeys) {
  ServiceStats s;
  s.budget_workers = 4;
  s.latency_by_class[0].add(0.002);
  s.sessions.push_back(SessionStats{});
  const std::string json = s.to_json();
  for (const char* key :
       {"\"budget\"", "\"worker_threads\"", "\"inflight_volumes\"",
        "\"workers_in_use\"", "\"inflight_in_use\"", "\"open_sessions\"",
        "\"sessions_admitted\"", "\"sessions_refused\"",
        "\"sessions_closed\"", "\"submitted\"", "\"delivered_frames\"",
        "\"shed_refused\"", "\"shed_dropped\"", "\"shed_adaptive\"",
        "\"shed_total\"", "\"dropped_frames\"", "\"latency_by_class\"",
        "\"interactive\"", "\"routine\"", "\"bulk\"", "\"sessions\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(ServiceStats, LiveServiceAggregatesPerClassLatencyAndTotals) {
  using runtime::EchoFrame;
  ImagingService service(ServiceBudget{.worker_threads = 2,
                                       .inflight_volumes = 4});
  Scenario scenario;
  scenario.name = "stats-probe";
  scenario.probe_elements = 5;
  scenario.n_lines = 6;
  scenario.n_depth = 12;
  scenario.worker_threads = 1;
  scenario.queue_depth = 2;
  const Admission a = service.open_session(
      scenario, SessionOptions{.priority = PriorityClass::kInteractive});
  ASSERT_TRUE(a.admitted);

  const imaging::SystemConfig cfg = scenario.system();
  const imaging::VolumeGrid grid(cfg.volume);
  const acoustic::Phantom phantom{acoustic::PointScatterer{
      grid.focal_point(2, 3, 5).position, 1.0}};
  for (int i = 0; i < 3; ++i) {
    EchoFrame frame{acoustic::synthesize_echoes(cfg, phantom), Vec3{}, i};
    ASSERT_TRUE(service.submit(a.session, std::move(frame)));
    while (service.session_stats(a.session).accepted < i + 1) {
      service.poll(a.session, [](const beamform::VolumeImage&,
                                 std::int64_t) {});
    }
  }
  const SessionStats closed = service.close_session(a.session);
  EXPECT_EQ(closed.delivered_frames, 3);
  EXPECT_EQ(closed.latency.count(), 3u);
  EXPECT_GT(closed.latency.p50(), 0.0);
  EXPECT_LE(closed.latency.p50(), closed.latency.p99());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.open_sessions, 0);
  EXPECT_EQ(stats.sessions_closed, 1);
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.delivered_frames, 3);
  EXPECT_EQ(stats.shed_total(), 0);
  // Latency landed in the session's priority class bucket, not elsewhere.
  EXPECT_EQ(
      stats.latency_by_class[static_cast<int>(PriorityClass::kInteractive)]
          .count(),
      3u);
  EXPECT_EQ(
      stats.latency_by_class[static_cast<int>(PriorityClass::kBulk)].count(),
      0u);
  ASSERT_EQ(stats.sessions.size(), 1u);
  EXPECT_TRUE(stats.sessions[0].reconciles());
  // The service JSON embeds the session ledgers.
  EXPECT_NE(stats.to_json().find("\"scenario\":\"stats-probe\""),
            std::string::npos);
}

}  // namespace
}  // namespace us3d::service
