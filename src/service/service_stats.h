// Observability for the multi-session imaging service: per-session and
// service-wide aggregation over runtime::PipelineStats, plus the QoS
// vocabulary (priority classes, shedding policies) those numbers are
// keyed by. The JSON emitters feed examples/imaging_service.cpp and
// operator dashboards, so — like PipelineStats — keys only grow, never
// get renamed.
//
// The accounting contract every policy must reconcile to (and the tests
// pin):
//
//   submitted == accepted + shed_refused + shed_dropped + shed_adaptive
//                + refused_terminal
//   accepted  == pipeline.insonifications   (once the session is closed)
//   pipeline.insonifications == delivered_insonifications
//                               + pipeline.dropped_frames
//
// i.e. every frame a client ever handed the service is exactly one of:
// delivered, shed by policy, dropped by a failure, or refused because the
// session was already terminal. Nothing is silently lost.
#ifndef US3D_SERVICE_SERVICE_STATS_H
#define US3D_SERVICE_SERVICE_STATS_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "runtime/pipeline_stats.h"

namespace us3d::service {

/// QoS class of a session. Ordering is meaningful: lower enum value =
/// higher priority when the shared worker budget is re-divided.
enum class PriorityClass {
  kInteractive,  ///< live scanning: gets spare workers first
  kRoutine,      ///< scheduled exams
  kBulk,         ///< reprocessing / research sweeps: takes what is left
};
inline constexpr int kPriorityClasses = 3;

const char* priority_name(PriorityClass priority);
std::optional<PriorityClass> parse_priority(std::string_view name);

/// What happens when a session's bounded backlog is full at submit().
enum class ShedPolicy {
  /// Refuse the incoming frame (the client sees false and keeps going).
  kRefuseNewest,
  /// Drop the oldest backlogged frame to make room — freshest data wins.
  kDropOldest,
  /// Shrink this session's queue depth (backlog bound and in-flight ring
  /// cap) and shed the overflow, so a lagging session holds less of the
  /// shared budget instead of stalling its neighbours; the depth regrows
  /// one step per fully drained backlog. Closes the ROADMAP item.
  kAdaptiveDepth,
};

const char* policy_name(ShedPolicy policy);
std::optional<ShedPolicy> parse_policy(std::string_view name);

/// One session's ledger. Valid mid-flight (snapshot) and after close
/// (final; `pipeline` then includes the whole streaming session).
struct SessionStats {
  int id = -1;
  std::string scenario;
  /// Resolved arithmetic precision of this session's pipeline ("double" /
  /// "quantized" — mirrors pipeline.precision for direct dashboard use).
  std::string precision;
  PriorityClass priority = PriorityClass::kRoutine;
  ShedPolicy policy = ShedPolicy::kRefuseNewest;

  // Budget shares.
  int granted_workers = 0;  ///< current worker cap from the shared budget
  int granted_depth = 0;    ///< admitted queue depth (ring allocation)
  int effective_depth = 0;  ///< current adaptive depth (== granted unless
                            ///< kAdaptiveDepth shrank it)

  // The frame ledger (see the accounting contract above).
  std::int64_t submitted = 0;
  std::int64_t accepted = 0;
  std::int64_t shed_refused = 0;
  std::int64_t shed_dropped = 0;
  std::int64_t shed_adaptive = 0;
  std::int64_t refused_terminal = 0;  ///< after failure/close
  std::int64_t delivered_frames = 0;  ///< volumes the sink received
  std::int64_t delivered_insonifications = 0;

  bool failed = false;
  std::string error;  ///< first failure, empty when healthy

  runtime::PipelineStats pipeline;
  /// Submit-to-delivery latency samples, seconds.
  SampleQuantiles latency;

  std::int64_t shed_total() const {
    return shed_refused + shed_dropped + shed_adaptive;
  }
  /// The reconciliation invariant (see header comment). Only exact once
  /// the session is closed; mid-flight snapshots may have frames still in
  /// the pipeline.
  bool reconciles() const {
    return submitted ==
               accepted + shed_total() + refused_terminal &&
           accepted == pipeline.insonifications &&
           pipeline.insonifications ==
               delivered_insonifications + pipeline.dropped_frames;
  }

  /// The mid-flight form of the invariant, which every snapshot —
  /// including one scraped in the middle of a delivery burst — must
  /// satisfy: nothing is counted twice, so the ledger outcomes can never
  /// exceed what was submitted, and delivery never exceeds what the
  /// pipeline accepted. Closed sessions satisfy the exact reconciles().
  /// The service takes each session's snapshot under one lock (pipeline
  /// counters via AsyncPipeline::stats_snapshot inside it), which is what
  /// makes this hold at every instant rather than merely at quiescence.
  bool ledger_bounded() const {
    return accepted + shed_total() + refused_terminal <= submitted &&
           delivered_insonifications + pipeline.dropped_frames +
                   shed_total() + refused_terminal <=
               submitted &&
           delivered_insonifications + pipeline.dropped_frames <=
               pipeline.insonifications &&
           pipeline.insonifications <= accepted;
  }

  std::string to_json() const;
};

/// Whole-box view: totals across open and closed sessions plus the
/// per-priority-class latency distributions.
struct ServiceStats {
  // Budget occupancy.
  int budget_workers = 0;
  int budget_inflight = 0;
  int workers_in_use = 0;
  int inflight_in_use = 0;
  int open_sessions = 0;

  // Admission ledger.
  std::int64_t sessions_admitted = 0;
  std::int64_t sessions_refused = 0;
  std::int64_t sessions_closed = 0;

  // Frame totals (sum over `sessions`).
  std::int64_t submitted = 0;
  std::int64_t delivered_frames = 0;
  std::int64_t shed_refused = 0;
  std::int64_t shed_dropped = 0;
  std::int64_t shed_adaptive = 0;
  std::int64_t dropped_frames = 0;

  /// Submit-to-delivery latency per priority class, aggregated over every
  /// session of that class (open and closed).
  std::array<SampleQuantiles, kPriorityClasses> latency_by_class;

  /// Every session the service has seen: open ones as live snapshots,
  /// closed ones as their final ledgers.
  std::vector<SessionStats> sessions;

  std::int64_t shed_total() const {
    return shed_refused + shed_dropped + shed_adaptive;
  }

  /// Scrape-safety invariant over the whole box: the totals are bounded
  /// by submission and every per-session ledger is bounded too (see
  /// SessionStats::ledger_bounded). Holds for any stats() call at any
  /// instant, not just after quiescence.
  bool ledger_bounded() const {
    if (delivered_frames + shed_total() + dropped_frames > submitted) {
      return false;
    }
    for (const SessionStats& s : sessions) {
      if (!s.ledger_bounded()) return false;
    }
    return true;
  }

  std::string to_json() const;
};

}  // namespace us3d::service

#endif  // US3D_SERVICE_SERVICE_STATS_H
