// ImagingService invariants: admission control against the shared budget,
// priority-ordered worker rebalancing, the three shed policies (with the
// ledger reconciliation delivered + shed + dropped + refused == submitted),
// and failure isolation between sessions.
#include "service/imaging_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "acoustic/echo_synth.h"
#include "acoustic/phantom.h"
#include "common/contracts.h"
#include "common/prng.h"

namespace us3d::service {
namespace {

using beamform::VolumeImage;
using runtime::EchoFrame;

/// A deliberately tiny scenario so service tests stay fast.
Scenario tiny_scenario(const std::string& name,
                       EngineFamily family = EngineFamily::kTableFree) {
  Scenario s;
  s.name = name;
  s.engine = family;
  s.probe_elements = 5;
  s.n_lines = 6;
  s.n_depth = 14;
  s.worker_threads = 2;
  s.queue_depth = 2;
  return s;
}

/// Frames for a scenario, sequence-numbered 0..n-1, one random phantom
/// per frame so different sequences produce different volumes.
std::vector<EchoFrame> make_frames(const Scenario& scenario, int n,
                                   std::uint64_t seed) {
  const imaging::SystemConfig cfg = scenario.system();
  const imaging::VolumeGrid grid(cfg.volume);
  SplitMix64 rng(seed);
  const std::vector<Vec3> origins = scenario.origins(n);
  std::vector<EchoFrame> frames;
  for (int i = 0; i < n; ++i) {
    acoustic::Phantom phantom;
    for (int k = 0; k < 2; ++k) {
      const int it = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(cfg.volume.n_theta)));
      const int ip = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(cfg.volume.n_phi)));
      const int id = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(cfg.volume.n_depth)));
      phantom.push_back(acoustic::PointScatterer{
          grid.focal_point(it, ip, id).position, rng.next_in(0.5, 1.5)});
    }
    acoustic::SynthesisOptions synth;
    synth.origin = origins[static_cast<std::size_t>(i)];
    frames.push_back(EchoFrame{acoustic::synthesize_echoes(cfg, phantom, synth),
                               origins[static_cast<std::size_t>(i)], i});
  }
  return frames;
}

const runtime::VolumeSink kDevNull = [](const VolumeImage&, std::int64_t) {};

TEST(ImagingService, AdmissionRefusesWhenTheWorkerBudgetIsExhausted) {
  ImagingService service(ServiceBudget{.worker_threads = 2,
                                       .inflight_volumes = 8});
  const Admission a = service.open_session(tiny_scenario("a"));
  const Admission b = service.open_session(tiny_scenario("b"));
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  // Every admitted session is guaranteed a worker; a third would break
  // that guarantee, so admission control refuses it *cleanly*.
  const Admission c = service.open_session(tiny_scenario("c"));
  EXPECT_FALSE(c.admitted);
  EXPECT_EQ(c.session, -1);
  EXPECT_NE(c.reason.find("worker budget"), std::string::npos) << c.reason;
  EXPECT_EQ(service.open_sessions(), 2);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_admitted, 2);
  EXPECT_EQ(stats.sessions_refused, 1);
  // Closing a session frees its guarantee.
  service.close_session(a.session, kDevNull);
  EXPECT_TRUE(service.open_session(tiny_scenario("c")).admitted);
}

TEST(ImagingService, AdmissionRefusesWhenTheInflightBudgetIsExhausted) {
  ImagingService service(ServiceBudget{.worker_threads = 8,
                                       .inflight_volumes = 3});
  Scenario deep = tiny_scenario("deep");
  deep.queue_depth = 3;
  const Admission a = service.open_session(deep);
  ASSERT_TRUE(a.admitted);
  EXPECT_EQ(a.granted_depth, 3);
  const Admission b = service.open_session(tiny_scenario("b"));
  EXPECT_FALSE(b.admitted);
  EXPECT_NE(b.reason.find("in-flight volume budget"), std::string::npos)
      << b.reason;
  // A compounding session needs two ring slots; with only one left it is
  // refused even though a plain session would fit.
  service.close_session(a.session, kDevNull);
  Scenario two = tiny_scenario("two");
  two.queue_depth = 2;
  ASSERT_TRUE(service.open_session(two).admitted);
  Scenario compound = tiny_scenario("compound");
  compound.compound_origins = 2;
  const Admission c = service.open_session(compound);
  EXPECT_FALSE(c.admitted);
}

TEST(ImagingService, AdmissionClampsDepthToTheRemainingBudget) {
  ImagingService service(ServiceBudget{.worker_threads = 4,
                                       .inflight_volumes = 3});
  Scenario greedy = tiny_scenario("greedy");
  greedy.queue_depth = 2;
  ASSERT_TRUE(service.open_session(greedy).admitted);
  Scenario wants_many = tiny_scenario("wants-many");
  wants_many.queue_depth = 5;
  const Admission a = service.open_session(wants_many);
  ASSERT_TRUE(a.admitted);
  EXPECT_EQ(a.granted_depth, 1);  // only one slot was left
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.inflight_in_use, 3);
  EXPECT_LE(stats.inflight_in_use, stats.budget_inflight);
}

TEST(ImagingService, AdmissionRefusesInvalidScenariosWithTheirReason) {
  ImagingService service(ServiceBudget{});
  Scenario bad = tiny_scenario("bad");
  bad.table_bits = 12;
  const Admission a = service.open_session(bad);
  EXPECT_FALSE(a.admitted);
  EXPECT_NE(a.reason.find("table_bits"), std::string::npos) << a.reason;
  EXPECT_EQ(service.stats().sessions_refused, 1);
}

TEST(ImagingService, WorkerBudgetIsRedealtByPriorityAsSessionsComeAndGo) {
  ImagingService service(ServiceBudget{.worker_threads = 4,
                                       .inflight_volumes = 8});
  Scenario wide = tiny_scenario("interactive");
  wide.worker_threads = 4;
  const Admission a = service.open_session(
      wide, SessionOptions{.priority = PriorityClass::kInteractive});
  ASSERT_TRUE(a.admitted);
  EXPECT_EQ(a.granted_workers, 4);  // alone: the whole budget

  Scenario bulk = tiny_scenario("bulk");
  bulk.worker_threads = 4;
  const Admission b = service.open_session(
      bulk, SessionOptions{.priority = PriorityClass::kBulk});
  ASSERT_TRUE(b.admitted);
  // Both guaranteed one; the surplus goes to the interactive session.
  EXPECT_EQ(service.granted_workers(a.session), 3);
  EXPECT_EQ(service.granted_workers(b.session), 1);
  const ServiceStats mid = service.stats();
  EXPECT_EQ(mid.workers_in_use, 4);
  EXPECT_LE(mid.workers_in_use, mid.budget_workers);

  // Close the interactive session: the bulk one inherits the surplus.
  service.close_session(a.session, kDevNull);
  EXPECT_EQ(service.granted_workers(b.session), 4);
}

TEST(ImagingService, UnknownSessionIdsThrow) {
  ImagingService service(ServiceBudget{});
  EXPECT_THROW(service.poll(42, kDevNull), ContractViolation);
  EchoFrame frame = make_frames(tiny_scenario("u"), 1, 1)[0];
  EXPECT_THROW(service.submit(42, std::move(frame)), ContractViolation);
  EXPECT_THROW(service.close_session(42, kDevNull), ContractViolation);
  EXPECT_THROW(service.session_stats(42), ContractViolation);
}

/// Submits a burst without polling, then drains; returns the final ledger.
SessionStats burst_and_close(ImagingService& service, int session,
                             std::vector<EchoFrame> frames,
                             std::vector<std::int64_t>* delivered_seqs,
                             int* accepted_submits) {
  int ok = 0;
  for (EchoFrame& f : frames) {
    if (service.submit(session, std::move(f))) ++ok;
  }
  if (accepted_submits) *accepted_submits = ok;
  return service.close_session(
      session, [&](const VolumeImage&, std::int64_t seq) {
        if (delivered_seqs) delivered_seqs->push_back(seq);
      });
}

TEST(ImagingService, RefuseNewestShedsTheBurstAndReconciles) {
  ImagingService service(ServiceBudget{.worker_threads = 2,
                                       .inflight_volumes = 2});
  Scenario s = tiny_scenario("refuse");
  s.queue_depth = 1;
  const Admission a = service.open_session(
      s, SessionOptions{.policy = ShedPolicy::kRefuseNewest});
  ASSERT_TRUE(a.admitted);
  std::vector<std::int64_t> seqs;
  int accepted = 0;
  const SessionStats stats = burst_and_close(
      service, a.session, make_frames(s, 12, 3), &seqs, &accepted);
  EXPECT_GT(stats.shed_refused, 0) << "a 12-frame burst into depth 1 must shed";
  EXPECT_EQ(stats.shed_dropped, 0);
  EXPECT_EQ(stats.shed_adaptive, 0);
  EXPECT_EQ(stats.submitted, 12);
  // submit() returned true exactly for the accepted (delivered) frames.
  EXPECT_EQ(accepted, static_cast<int>(seqs.size()));
  // Refuse-newest keeps the *oldest* frames: deliveries are a prefix-ish
  // ordered subsequence starting at 0.
  ASSERT_FALSE(seqs.empty());
  EXPECT_EQ(seqs.front(), 0);
  EXPECT_TRUE(stats.reconciles()) << stats.to_json();
  EXPECT_FALSE(stats.failed);
}

TEST(ImagingService, DropOldestKeepsTheFreshestFramesAndReconciles) {
  ImagingService service(ServiceBudget{.worker_threads = 2,
                                       .inflight_volumes = 2});
  Scenario s = tiny_scenario("drop-oldest");
  s.queue_depth = 1;
  const Admission a = service.open_session(
      s, SessionOptions{.policy = ShedPolicy::kDropOldest});
  ASSERT_TRUE(a.admitted);
  std::vector<std::int64_t> seqs;
  int accepted = 0;
  const SessionStats stats = burst_and_close(
      service, a.session, make_frames(s, 12, 5), &seqs, &accepted);
  EXPECT_GT(stats.shed_dropped, 0);
  EXPECT_EQ(stats.shed_refused, 0);
  EXPECT_EQ(stats.submitted, 12);
  EXPECT_EQ(accepted, 12) << "drop-oldest accepts every submission";
  // Freshest-wins: the newest frame always survives the burst.
  ASSERT_FALSE(seqs.empty());
  EXPECT_EQ(seqs.back(), 11);
  EXPECT_TRUE(stats.reconciles()) << stats.to_json();
}

TEST(ImagingService, AdaptiveDepthShrinksShedsAndRegrows) {
  ImagingService service(ServiceBudget{.worker_threads = 2,
                                       .inflight_volumes = 4});
  Scenario s = tiny_scenario("adaptive");
  s.queue_depth = 4;
  const Admission a = service.open_session(
      s, SessionOptions{.policy = ShedPolicy::kAdaptiveDepth});
  ASSERT_TRUE(a.admitted);
  ASSERT_EQ(a.granted_depth, 4);

  // Burst far past the depth without polling: the policy must halve the
  // depth (at least once) and shed.
  auto frames = make_frames(s, 16, 7);
  for (EchoFrame& f : frames) service.submit(a.session, std::move(f));
  const SessionStats mid = service.session_stats(a.session);
  EXPECT_LT(mid.effective_depth, mid.granted_depth)
      << "overload must shrink the adaptive depth";
  EXPECT_GT(mid.shed_adaptive, 0);

  // Drain everything, then trickle gently: the depth regrows (additive)
  // back toward the grant. "Gently" means waiting for each frame to be
  // delivered — poll() is non-blocking, so a bare poll loop would race
  // the beamformer and the trickle would itself be an overload.
  const auto quiesce = [&] {
    while (true) {
      service.poll(a.session, kDevNull);
      const SessionStats st = service.session_stats(a.session);
      if (st.delivered_insonifications >= st.accepted) break;
    }
  };
  quiesce();
  auto trickle = make_frames(s, 6, 9);
  for (int i = 0; i < 6; ++i) {
    EchoFrame f = trickle[static_cast<std::size_t>(i)];
    f.sequence = 100 + i;
    service.submit(a.session, std::move(f));
    quiesce();
  }
  const SessionStats later = service.session_stats(a.session);
  EXPECT_GT(later.effective_depth, 1);

  const SessionStats final_stats = service.close_session(a.session, kDevNull);
  // The pipeline's own stats report the adaptive depth the session ended
  // at (configured-vs-adaptive is visible on dashboards).
  EXPECT_EQ(final_stats.pipeline.queue_depth, final_stats.effective_depth);
  EXPECT_EQ(final_stats.pipeline.ring_slots, 4);
  EXPECT_TRUE(final_stats.reconciles()) << final_stats.to_json();
  EXPECT_GT(final_stats.shed_adaptive, 0);
  EXPECT_EQ(final_stats.shed_refused, 0);
  EXPECT_EQ(final_stats.shed_dropped, 0);
}

TEST(ImagingService, OneSessionsThrowingSinkDoesNotPoisonItsSibling) {
  ImagingService service(ServiceBudget{.worker_threads = 2,
                                       .inflight_volumes = 4});
  const Scenario sa = tiny_scenario("victim");
  const Scenario sb = tiny_scenario("survivor");
  const Admission a = service.open_session(sa);
  const Admission b = service.open_session(sb);
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);

  auto frames_a = make_frames(sa, 3, 11);
  auto frames_b = make_frames(sb, 3, 13);
  for (EchoFrame& f : frames_a) service.submit(a.session, std::move(f));
  for (EchoFrame& f : frames_b) service.submit(b.session, std::move(f));

  // The victim's sink throws on first delivery. The exception is captured
  // into the session, never propagated into the caller or the sibling.
  const runtime::VolumeSink bomb = [](const VolumeImage&, std::int64_t) {
    throw std::runtime_error("display pipe burst");
  };
  EXPECT_NO_THROW({
    while (true) {
      const int n = service.poll(a.session, bomb);
      if (n == 0 && service.session_failed(a.session)) break;
    }
  });
  EXPECT_TRUE(service.session_failed(a.session));
  EXPECT_FALSE(service.session_failed(b.session));

  // Terminal sessions refuse instead of pretending.
  EchoFrame extra = make_frames(sa, 1, 17)[0];
  extra.sequence = 99;
  EXPECT_FALSE(service.submit(a.session, std::move(extra)));

  const SessionStats dead = service.close_session(a.session, bomb);
  EXPECT_TRUE(dead.failed);
  EXPECT_NE(dead.error.find("display pipe burst"), std::string::npos)
      << dead.error;
  EXPECT_EQ(dead.delivered_frames, 0);
  EXPECT_GT(dead.pipeline.dropped_frames + dead.shed_total(), 0);
  EXPECT_EQ(dead.refused_terminal, 1);
  EXPECT_TRUE(dead.reconciles()) << dead.to_json();

  // The sibling delivers everything, bit-for-bit business as usual.
  std::vector<std::int64_t> seqs;
  const SessionStats alive = service.close_session(
      b.session,
      [&](const VolumeImage&, std::int64_t seq) { seqs.push_back(seq); });
  EXPECT_FALSE(alive.failed);
  EXPECT_EQ(alive.delivered_frames, 3);
  EXPECT_EQ(seqs, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_TRUE(alive.reconciles()) << alive.to_json();
}

TEST(ImagingService, CompoundingSessionsAccountGroupsCorrectly) {
  ImagingService service(ServiceBudget{.worker_threads = 2,
                                       .inflight_volumes = 4});
  Scenario s = tiny_scenario("sa-compound", EngineFamily::kTableSteerSA);
  s.sa_origins = 3;
  s.compound_origins = 3;
  s.queue_depth = 2;
  const Admission a = service.open_session(s);
  ASSERT_TRUE(a.admitted);
  auto frames = make_frames(s, 6, 19);
  std::int64_t sent = 0;
  for (EchoFrame& f : frames) {
    ASSERT_TRUE(service.submit(a.session, std::move(f)));
    ++sent;
    // Pace on acceptance so the depth-2 backlog never overflows and the
    // group accounting below is deterministic.
    while (service.session_stats(a.session).accepted < sent) {
      service.poll(a.session, kDevNull);
    }
  }
  const SessionStats stats = service.close_session(a.session, kDevNull);
  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(stats.delivered_frames, 2);  // two K=3 groups
  EXPECT_EQ(stats.delivered_insonifications, 6);
  EXPECT_TRUE(stats.reconciles()) << stats.to_json();
}

TEST(ImagingService, CloseDrainsABackloggedPartialCompoundGroup) {
  // Regression: the close drain used to pump again only after an output,
  // but a K=4 session emits nothing until its group is complete. With the
  // group's last frame still in the backlog and the input queue full, it
  // waited forever. (ctest bounds this suite with a TIMEOUT, so a
  // regression fails instead of hanging.)
  ImagingService service(ServiceBudget{.worker_threads = 2,
                                       .inflight_volumes = 4});
  Scenario s = tiny_scenario("compound-close");
  // Large enough that one frame takes milliseconds to beamform, so a
  // back-to-back burst fills the depth-2 input queue.
  s.probe_elements = 8;
  s.n_lines = 12;
  s.n_depth = 64;
  s.compound_origins = 4;
  s.queue_depth = 2;
  const Admission a = service.open_session(s);
  ASSERT_TRUE(a.admitted);
  auto frames = make_frames(s, 4, 29);
  for (EchoFrame& f : frames) service.submit(a.session, std::move(f));
  // Only this thread pumps the backlog, so what is backlogged now is
  // still backlogged when close_session starts.
  const SessionStats before = service.session_stats(a.session);
  ASSERT_LT(before.accepted + before.shed_total(), before.submitted)
      << "precondition: part of the group must still be backlogged";

  const SessionStats stats = service.close_session(a.session, kDevNull);
  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.shed_total(), before.shed_total())
      << "a healthy session sheds nothing at close";
  EXPECT_EQ(stats.delivered_frames, 1);
  EXPECT_TRUE(stats.reconciles()) << stats.to_json();
}

TEST(ImagingService, MidRunScrapesNeverObserveATornLedger) {
  // The stats-drain race regression test: scrape stats() continuously
  // while a session is submitting, delivering and finally closing. Every
  // snapshot must satisfy the ledger bound (delivered + shed + dropped +
  // refused <= submitted) — before the one-lock pipeline snapshot, a
  // scrape during a delivery burst could see delivered counts ahead of
  // the (stale, lifetime-folded) acceptance counters. snapshot_locked
  // additionally self-checks with US3D_ENSURES(ledger_bounded()).
  ImagingService service(ServiceBudget{.worker_threads = 2,
                                       .inflight_volumes = 4});
  const Scenario s = tiny_scenario("scraped");
  const Admission a = service.open_session(
      s, SessionOptions{.policy = ShedPolicy::kDropOldest});
  ASSERT_TRUE(a.admitted);

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const ServiceStats snap = service.stats();
      EXPECT_TRUE(snap.ledger_bounded());
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Start submitting only once the scraper is running: on a loaded host
  // the whole session can otherwise finish before its first scrape.
  while (scrapes.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  auto frames = make_frames(s, 12, 41);
  for (EchoFrame& f : frames) {
    service.submit(a.session, std::move(f));  // sheds under pressure: fine
    service.poll(a.session, kDevNull);
  }
  const SessionStats closed = service.close_session(a.session, kDevNull);
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_TRUE(closed.reconciles()) << closed.to_json();
  EXPECT_TRUE(closed.ledger_bounded());
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_TRUE(service.stats().ledger_bounded());
}

TEST(ImagingService, DestructorClosesEverythingWithoutHanging) {
  ImagingService service(ServiceBudget{.worker_threads = 2,
                                       .inflight_volumes = 4});
  const Scenario s = tiny_scenario("abandoned");
  const Admission a = service.open_session(s);
  ASSERT_TRUE(a.admitted);
  auto frames = make_frames(s, 2, 23);
  for (EchoFrame& f : frames) service.submit(a.session, std::move(f));
  // No poll, no close: the destructor must drain and shut down.
}

}  // namespace
}  // namespace us3d::service
