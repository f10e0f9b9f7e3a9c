// The multi-session imaging service: many concurrent imaging workloads on
// one box, scheduled against a *shared* global budget instead of a
// per-pipeline free-for-all. This is the system-level payoff of the
// paper's thesis — once delay generation stops costing gigabytes of
// tables and the bandwidth to stream them, the same hardware can serve
// many scenarios at once, and the interesting problems become admission,
// fair sharing and load shedding.
//
//   client ──open_session(Scenario, priority, policy)──► admission control
//      │                                                  (refuse when the
//      │ submit(frame)                                     budget is gone)
//      ▼
//   per-session bounded backlog ──pump──► AsyncPipeline (own FramePipeline,
//      │ (shed policy applies here)        worker cap + ring slots granted
//      ▼                                   from the shared budget)
//   poll()/close_session() ◄── delivered volumes, per-class latency stats
//
// Scheduling model:
//  - Workers: the service owns `ServiceBudget::worker_threads` logical
//    workers. Every open session is guaranteed one; the surplus is dealt
//    in priority order (interactive > routine > bulk, FIFO within a
//    class) up to each session's requested parallelism, and re-dealt on
//    every open/close via FramePipeline::set_worker_cap — no
//    re-partitioning, no respawning, bit pattern unchanged.
//  - In-flight volumes: each session's VolumeRing slots are granted from
//    `ServiceBudget::inflight_volumes` at admission and returned at
//    close.
//  - Admission control: open_session() refuses (with a reason, counted in
//    ServiceStats::sessions_refused) when either budget is exhausted.
//  - Load shedding: submit() never blocks. When a session's backlog is
//    full its ShedPolicy decides — refuse the newest, drop the oldest, or
//    adaptively shrink the session's queue depth (AIMD: halve on
//    overflow, regrow one step per fully drained backlog) so a lagging
//    session sheds early instead of hoarding shared slots. Compounding
//    caveat: with compound_origins K > 1 the pipeline sums K consecutive
//    *accepted* insonifications, so shedding changes group composition —
//    each delivered volume is still the exact serial sum of the K shots
//    it names, but not the volume the unshedded schedule would have
//    produced (and with synthetic aperture the group may repeat an
//    origin). Sessions that need fixed K-groups should either not shed
//    (pace on acceptance) or treat a compound group as one frame
//    upstream.
//  - Failure isolation: every session has its own pipeline and stage
//    threads. A throwing sink or worker fails *that* session (captured in
//    its stats, surfaced via session_failed()/SessionStats::error);
//    siblings never notice.
//
// Threading: all methods are safe to call concurrently. Per-session
// operations (submit/poll/close) serialize on the session, never on the
// service, so one slow client cannot stall another's submit path.
// Sequence numbers within a session must be strictly increasing — they
// key the submit-to-delivery latency ledger. Sinks run on the calling
// thread while the session is locked: a sink must NOT call back into the
// service for its own session (submit/poll/stats from inside the sink
// self-deadlocks on the non-recursive session mutex); touching a
// *different* session from a sink is fine.
#ifndef US3D_SERVICE_IMAGING_SERVICE_H
#define US3D_SERVICE_IMAGING_SERVICE_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotated_mutex.h"
#include "obs/metrics.h"
#include "runtime/async_pipeline.h"
#include "runtime/frame_pipeline.h"
#include "runtime/frame_source.h"
#include "service/scenario.h"
#include "service/service_stats.h"

namespace us3d::service {

/// The shared, service-wide resource pool sessions are admitted against.
struct ServiceBudget {
  int worker_threads = 4;    ///< total sweep parallelism across sessions
  int inflight_volumes = 8;  ///< total VolumeRing slots across sessions
};

/// Per-session QoS knobs chosen by the client at admission.
struct SessionOptions {
  PriorityClass priority = PriorityClass::kRoutine;
  ShedPolicy policy = ShedPolicy::kRefuseNewest;
};

/// Outcome of open_session(). When refused, `reason` says which budget
/// ran out and `session` is -1.
struct Admission {
  bool admitted = false;
  int session = -1;
  std::string reason;
  int granted_workers = 0;  ///< initial worker cap (rebalanced later)
  int granted_depth = 0;    ///< queue depth actually allocated
};

class ImagingService {
 public:
  explicit ImagingService(const ServiceBudget& budget);
  /// Closes every open session, discarding undelivered output.
  ~ImagingService();

  ImagingService(const ImagingService&) = delete;
  ImagingService& operator=(const ImagingService&) = delete;

  /// Admission control: validates the scenario, grants budget shares (a
  /// session always gets >= 1 worker and >= 1 ring slot or is refused),
  /// builds the session's pipeline and rebalances worker caps.
  Admission open_session(const Scenario& scenario,
                         const SessionOptions& options = {})
      US3D_EXCLUDES(service_mutex_);

  /// Non-blocking frame submission. Returns true when the frame entered
  /// the session's backlog/pipeline, false when it was shed
  /// (kRefuseNewest on a full backlog) or the session is terminal.
  /// Sequence numbers must be strictly increasing per session.
  bool submit(int session, runtime::EchoFrame frame)
      US3D_EXCLUDES(service_mutex_);

  /// Non-blocking: delivers every currently finished volume to `sink`, in
  /// order; returns how many were delivered. A sink exception fails the
  /// session (captured, not rethrown) — siblings are unaffected.
  int poll(int session, const runtime::VolumeSink& sink)
      US3D_EXCLUDES(service_mutex_);

  /// Drains the session (remaining outputs go to `sink`, which may be
  /// null), releases its budget shares, rebalances the survivors and
  /// returns the final ledger. Never throws on session failure — the
  /// error is in the returned stats.
  SessionStats close_session(int session,
                             const runtime::VolumeSink& sink = {})
      US3D_EXCLUDES(service_mutex_);

  /// Live snapshot of one open session.
  SessionStats session_stats(int session) const US3D_EXCLUDES(service_mutex_);
  bool session_failed(int session) const US3D_EXCLUDES(service_mutex_);
  /// Current worker cap of an open session (changes as siblings come and
  /// go — the priority test hooks observe rebalancing through this).
  int granted_workers(int session) const US3D_EXCLUDES(service_mutex_);
  int open_sessions() const US3D_EXCLUDES(service_mutex_);

  /// Whole-box snapshot: open sessions live, closed sessions final.
  ServiceStats stats() const US3D_EXCLUDES(service_mutex_);

  const ServiceBudget& budget() const { return budget_; }

 private:
  struct Session;

  std::shared_ptr<Session> find(int session) const
      US3D_EXCLUDES(service_mutex_);
  /// Post-mortem hook: if `s` just transitioned to failed (flagged under
  /// its mutex by capture_error_locked), trigger one flight-recorder dump
  /// — after every lock is released, because dump() does file IO and
  /// walks the telemetry registries. No-op unless a post-mortem directory
  /// is configured.
  void maybe_dump_failure(const std::shared_ptr<Session>& s)
      US3D_EXCLUDES(service_mutex_);
  /// Records one refused open_session (sessions_refused_, the
  /// service.sessions_refused counter, the service.refuse trace instant)
  /// and returns the refusal carrying `reason`. Each caller logs its own
  /// service.refuse event first, with that site's arguments.
  Admission refuse_locked(std::string reason) US3D_REQUIRES(service_mutex_);
  /// Re-deals the worker budget across open sessions (see the scheduling
  /// model above). Caller holds service_mutex_.
  void rebalance_locked() US3D_REQUIRES(service_mutex_);
  /// Folds one session snapshot into the service totals.
  static void fold(ServiceStats& out, const SessionStats& s);

  ServiceBudget budget_;
  mutable Mutex service_mutex_;
  // Open sessions, by id.
  std::map<int, std::shared_ptr<Session>> sessions_
      US3D_GUARDED_BY(service_mutex_);
  std::vector<SessionStats> closed_ US3D_GUARDED_BY(service_mutex_);
  int next_id_ US3D_GUARDED_BY(service_mutex_) = 1;
  int inflight_in_use_ US3D_GUARDED_BY(service_mutex_) = 0;
  std::int64_t sessions_admitted_ US3D_GUARDED_BY(service_mutex_) = 0;
  std::int64_t sessions_refused_ US3D_GUARDED_BY(service_mutex_) = 0;

  // Live telemetry nodes in obs::MetricsRegistry::global(), resolved once
  // at construction (the hot paths only bump atomics). Session-scoped
  // gauges ("service.s<id>.*") are registered by each session's pipeline
  // and unlisted at close.
  std::shared_ptr<obs::Counter> admitted_counter_;
  std::shared_ptr<obs::Counter> refused_counter_;
  std::shared_ptr<obs::Counter> frames_submitted_counter_;
  std::shared_ptr<obs::Counter> closed_counter_;
  std::shared_ptr<obs::Counter> rebalance_counter_;
  std::array<std::shared_ptr<obs::Counter>, 3> shed_counters_;  // by policy
  std::array<std::shared_ptr<obs::FixedHistogram>, kPriorityClasses>
      latency_hist_;
  std::shared_ptr<obs::Gauge> open_sessions_gauge_;
  std::shared_ptr<obs::Gauge> inflight_gauge_;
};

}  // namespace us3d::service

#endif  // US3D_SERVICE_IMAGING_SERVICE_H
