#include "service/imaging_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <utility>

#include "common/annotated_mutex.h"
#include "common/contracts.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/resource_profiler.h"
#include "obs/trace.h"
#include "probe/apodization.h"

namespace us3d::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Metric name prefix for one session's gauges ("service.s<id>."). The
/// trailing dot keeps remove_prefix("service.s1.") from unlisting
/// "service.s10.*".
std::string session_scope(int id) {
  return "service.s" + std::to_string(id);
}

}  // namespace

// One admitted client workload: its own pipeline and async stage graph
// (failure isolation), a bounded backlog the shed policy acts on, and the
// frame ledger. All mutable state is guarded by `mutex`; the fields above
// it are admission-time constants, frozen before the session is published
// in the service map. The service only nests its own lock around a
// session's in open_session (on the still-unpublished session, to
// initialize guarded fields); everywhere else — including the read-only
// snapshots in stats() — the service lock is released before a session
// mutex is taken, so one slow client can never stall the service.
struct ImagingService::Session {
  int id = -1;
  Scenario scenario;
  SessionOptions options;
  std::unique_ptr<runtime::FramePipeline> pipeline;
  std::unique_ptr<runtime::AsyncPipeline> async;
  int ring_slots = 0;          ///< in-flight budget this session holds
  int requested_workers = 1;   ///< cap ceiling (pipeline partition count)
  std::atomic<int> worker_cap{1};  ///< current grant; written by rebalance

  mutable Mutex mutex;
  struct Pending {
    runtime::EchoFrame frame;
    Clock::time_point submitted_at;
  };
  std::deque<Pending> backlog US3D_GUARDED_BY(mutex);
  /// Submit instant of every frame the async pipeline has accepted but
  /// not yet delivered, keyed by (strictly increasing) sequence.
  std::map<std::int64_t, Clock::time_point> in_flight US3D_GUARDED_BY(mutex);
  int granted_depth US3D_GUARDED_BY(mutex) = 0;
  int effective_depth US3D_GUARDED_BY(mutex) = 0;
  bool closing US3D_GUARDED_BY(mutex) = false;
  bool finished US3D_GUARDED_BY(mutex) = false;

  std::int64_t submitted US3D_GUARDED_BY(mutex) = 0;
  std::int64_t accepted US3D_GUARDED_BY(mutex) = 0;
  std::int64_t shed_refused US3D_GUARDED_BY(mutex) = 0;
  std::int64_t shed_dropped US3D_GUARDED_BY(mutex) = 0;
  std::int64_t shed_adaptive US3D_GUARDED_BY(mutex) = 0;
  std::int64_t refused_terminal US3D_GUARDED_BY(mutex) = 0;
  std::int64_t delivered_frames US3D_GUARDED_BY(mutex) = 0;
  std::int64_t delivered_insonifications US3D_GUARDED_BY(mutex) = 0;
  bool failed US3D_GUARDED_BY(mutex) = false;
  /// Set by capture_error_locked on the failing transition; consumed by
  /// ImagingService::maybe_dump_failure once every lock is released.
  bool postmortem_pending US3D_GUARDED_BY(mutex) = false;
  std::string error US3D_GUARDED_BY(mutex);
  SampleQuantiles latency US3D_GUARDED_BY(mutex);
  /// Set once at close.
  runtime::PipelineStats final_pipeline US3D_GUARDED_BY(mutex);
  /// Service-wide per-class latency histogram (shared with siblings of
  /// the same priority); observed alongside `latency` on every delivery.
  std::shared_ptr<obs::FixedHistogram> latency_hist US3D_GUARDED_BY(mutex);

  /// Moves backlog frames into the async pipeline while it accepts them,
  /// and (adaptive policy) regrows a shrunken depth one step per fully
  /// drained backlog — the additive half of AIMD.
  void pump_locked() US3D_REQUIRES(mutex) {
    while (!backlog.empty()) {
      Pending& p = backlog.front();
      const std::int64_t seq = p.frame.sequence;
      const Clock::time_point t = p.submitted_at;
      if (!async->try_submit(p.frame)) break;  // frame left intact
      in_flight.emplace(seq, t);
      ++accepted;
      backlog.pop_front();
    }
    if (options.policy == ShedPolicy::kAdaptiveDepth && backlog.empty() &&
        effective_depth < granted_depth) {
      ++effective_depth;
      async->set_queue_depth(effective_depth);
    }
  }

  /// Wraps the user sink with delivery accounting. Invoked with `mutex`
  /// held (poll/finish run the sink on the calling thread). The user sink
  /// runs first: if it throws, the async pipeline fails the session and
  /// nothing here counts the volume as delivered.
  runtime::VolumeSink delivery_sink(const runtime::VolumeSink& user)
      US3D_REQUIRES(mutex) {
    return [this, &user](const beamform::VolumeImage& volume,
                         std::int64_t sequence) {
      // The sink only ever runs on the poll/close caller's thread, which
      // holds the session mutex for the whole drain; assert that to the
      // thread-safety analysis (a lambda body is analyzed standalone and
      // cannot see its caller's lock).
      mutex.assert_held();
      if (user) user(volume, sequence);
      const Clock::time_point now = Clock::now();
      ++delivered_frames;
      // A delivered volume folds every accepted insonification up to its
      // sequence (with compounding, K of them); shed frames were already
      // erased when shed, so what remains <= sequence was delivered.
      for (auto it = in_flight.begin();
           it != in_flight.end() && it->first <= sequence;) {
        const double seconds =
            std::chrono::duration<double>(now - it->second).count();
        latency.add(seconds);
        if (latency_hist) latency_hist->observe(seconds);
        ++delivered_insonifications;
        it = in_flight.erase(it);
      }
    };
  }

  void capture_error_locked() US3D_REQUIRES(mutex) {
    if (failed || !async->failed()) return;
    failed = true;
    postmortem_pending = true;
    try {
      async->rethrow_if_failed();
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown session error";
    }
    // The error string is dynamic and the event log only keeps static
    // strings; the full text lives in SessionStats::error and in the
    // post-mortem bundle's metrics/manifest context.
    US3D_EVENT_ERROR("session.failed", id, -1, "async pipeline failed");
  }

  SessionStats snapshot_locked() const US3D_REQUIRES(mutex) {
    SessionStats out;
    out.id = id;
    out.scenario = scenario.name;
    out.priority = options.priority;
    out.policy = options.policy;
    out.granted_workers = worker_cap.load(std::memory_order_relaxed);
    out.granted_depth = granted_depth;
    out.effective_depth = effective_depth;
    out.submitted = submitted;
    out.accepted = accepted;
    out.shed_refused = shed_refused;
    out.shed_dropped = shed_dropped;
    out.shed_adaptive = shed_adaptive;
    out.refused_terminal = refused_terminal;
    out.delivered_frames = delivered_frames;
    out.delivered_insonifications = delivered_insonifications;
    out.failed = failed;
    out.error = error;
    out.latency = latency;
    // One consistent pipeline view taken under the async state lock
    // *while we hold the session mutex* (every ledger mutation — submit,
    // pump, deliver — happens under that same session mutex, so nothing
    // moves between reading the ledger above and the pipeline counters
    // here). Mid-run the snapshot reports live acceptance; after close
    // the final session stats are exact.
    out.pipeline = finished ? final_pipeline : async->stats_snapshot();
    out.precision = out.pipeline.precision;
    US3D_ENSURES(out.ledger_bounded());
    return out;
  }
};

ImagingService::ImagingService(const ServiceBudget& budget) : budget_(budget) {
  US3D_EXPECTS(budget.worker_threads >= 1);
  US3D_EXPECTS(budget.inflight_volumes >= 1);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  admitted_counter_ = reg.counter("service.sessions_admitted");
  refused_counter_ = reg.counter("service.sessions_refused");
  frames_submitted_counter_ = reg.counter("service.frames_submitted");
  closed_counter_ = reg.counter("service.sessions_closed");
  rebalance_counter_ = reg.counter("service.rebalances");
  for (const ShedPolicy policy :
       {ShedPolicy::kRefuseNewest, ShedPolicy::kDropOldest,
        ShedPolicy::kAdaptiveDepth}) {
    shed_counters_[static_cast<std::size_t>(policy)] = reg.counter(
        std::string("service.shed.") + policy_name(policy));
  }
  for (int p = 0; p < kPriorityClasses; ++p) {
    latency_hist_[static_cast<std::size_t>(p)] = reg.histogram(
        std::string("service.latency_s.") +
        priority_name(static_cast<PriorityClass>(p)));
  }
  open_sessions_gauge_ = reg.gauge("service.open_sessions");
  inflight_gauge_ = reg.gauge("service.inflight_in_use");
  // Telemetry bring-up rides on service construction: US3D_PROFILE starts
  // the per-stage resource sampler into the same registry.
  obs::ResourceProfiler::start_from_env();
}

ImagingService::~ImagingService() {
  std::vector<int> open;
  {
    MutexLock lock(service_mutex_);
    for (const auto& [id, session] : sessions_) open.push_back(id);
  }
  for (const int id : open) close_session(id, {});
}

Admission ImagingService::refuse_locked(std::string reason) {
  ++sessions_refused_;
  refused_counter_->increment();
  US3D_TRACE_INSTANT("service.refuse");
  Admission refused;
  refused.reason = std::move(reason);
  return refused;
}

Admission ImagingService::open_session(const Scenario& scenario,
                                       const SessionOptions& options) {
  try {
    scenario.validate();
  } catch (const std::exception& e) {
    US3D_EVENT_WARN("service.refuse", -1, -1, "scenario validation failed");
    MutexLock lock(service_mutex_);
    return refuse_locked(e.what());
  }

  MutexLock lock(service_mutex_);
  if (static_cast<int>(sessions_.size()) >= budget_.worker_threads) {
    US3D_EVENT_WARN("service.refuse", -1, -1, "worker budget exhausted",
                    "open_sessions", static_cast<std::int64_t>(
                                         sessions_.size()));
    return refuse_locked("worker budget exhausted");
  }
  const int min_slots = scenario.compound_origins > 1 ? 2 : 1;
  const int remaining = budget_.inflight_volumes - inflight_in_use_;
  if (remaining < min_slots) {
    US3D_EVENT_WARN("service.refuse", -1, -1,
                    "in-flight volume budget exhausted", "remaining",
                    remaining, "needed", min_slots);
    return refuse_locked("in-flight volume budget exhausted");
  }
  const int depth = std::min(scenario.queue_depth, remaining);

  auto session = std::make_shared<Session>();
  session->id = next_id_;
  session->scenario = scenario;
  session->options = options;
  {
    // The session is not published yet, so its mutex is uncontended; the
    // lock keeps the guarded-field initialization visible to the
    // thread-safety analysis (service -> session nesting is safe here for
    // the same reason: nobody else can hold this session's mutex).
    MutexLock session_lock(session->mutex);
    session->granted_depth = depth;
    session->effective_depth = depth;
  }
  try {
    const imaging::SystemConfig system = scenario.system();
    const probe::ApodizationMap apod(probe::MatrixProbe(system.probe),
                                     probe::WindowKind::kRect);
    runtime::PipelineConfig pc = scenario.pipeline_config();
    // Partition for the most parallelism this session could ever be
    // granted; rebalancing then moves the cap, never the partitioning.
    pc.worker_threads = std::min(scenario.worker_threads,
                                 budget_.worker_threads);
    const auto prototype = scenario.make_engine();
    session->pipeline = std::make_unique<runtime::FramePipeline>(
        system, apod, *prototype, pc);
    session->requested_workers = session->pipeline->worker_threads();
    session->async = std::make_unique<runtime::AsyncPipeline>(
        *session->pipeline,
        runtime::AsyncOptions{.depth = depth,
                              .compound_origins = scenario.compound_origins,
                              .session = session->id,
                              .metrics_scope = session_scope(session->id)});
  } catch (const std::exception& e) {
    // Construction failed (e.g. a forced SIMD backend this host cannot
    // run): the session never existed, the budget is untouched.
    US3D_EVENT_WARN("service.refuse", -1, -1,
                    "pipeline construction failed");
    return refuse_locked(e.what());
  }
  {
    MutexLock session_lock(session->mutex);
    session->latency_hist =
        latency_hist_[static_cast<std::size_t>(options.priority)];
  }
  session->ring_slots = session->async->ring_slots();
  US3D_ENSURES(session->ring_slots <= remaining);

  ++next_id_;
  ++sessions_admitted_;
  inflight_in_use_ += session->ring_slots;
  sessions_.emplace(session->id, session);
  rebalance_locked();
  admitted_counter_->increment();
  open_sessions_gauge_->set(static_cast<std::int64_t>(sessions_.size()));
  inflight_gauge_->set(inflight_in_use_);

  Admission result;
  result.admitted = true;
  result.session = session->id;
  result.granted_workers =
      session->worker_cap.load(std::memory_order_relaxed);
  result.granted_depth = depth;
  US3D_TRACE_INSTANT("service.admit", "session", session->id, "workers",
                     result.granted_workers);
  US3D_EVENT_INFO("service.admit", session->id, -1, nullptr, "workers",
                  result.granted_workers, "depth", depth);
  return result;
}

void ImagingService::rebalance_locked() {
  // Priority-ordered deal (FIFO within a class: the map iterates in id
  // order and the sort is stable): every session is guaranteed one
  // worker — admission control never admits more sessions than workers —
  // and the surplus tops sessions up to their requested parallelism,
  // interactive first.
  std::vector<Session*> order;
  order.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) order.push_back(session.get());
  std::stable_sort(order.begin(), order.end(),
                   [](const Session* a, const Session* b) {
                     return a->options.priority < b->options.priority;
                   });
  int remaining = budget_.worker_threads - static_cast<int>(order.size());
  US3D_ENSURES(remaining >= 0);
  for (Session* session : order) {
    const int extra =
        std::min(remaining, std::max(0, session->requested_workers - 1));
    const int cap = 1 + extra;
    remaining -= extra;
    session->worker_cap.store(cap, std::memory_order_relaxed);
    session->pipeline->set_worker_cap(cap);
  }
  rebalance_counter_->increment();
  US3D_TRACE_INSTANT("service.rebalance", "sessions",
                     static_cast<std::int64_t>(order.size()));
  US3D_EVENT_DEBUG("service.rebalance", -1, -1, nullptr, "sessions",
                   static_cast<std::int64_t>(order.size()), "budget",
                   budget_.worker_threads);
}

std::shared_ptr<ImagingService::Session> ImagingService::find(
    int session) const {
  MutexLock lock(service_mutex_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    throw ContractViolation("imaging service: unknown session " +
                            std::to_string(session));
  }
  return it->second;
}

bool ImagingService::submit(int session, runtime::EchoFrame frame) {
  const std::shared_ptr<Session> s = find(session);
  frames_submitted_counter_->increment();
  // Single exit from the locked region: the failure post-mortem (if this
  // submit observed the failing transition) must run with no lock held.
  bool entered = false;
  {
    MutexLock lock(s->mutex);
    ++s->submitted;
    if (s->closing || s->async->failed()) {
      s->capture_error_locked();
      ++s->refused_terminal;
      US3D_EVENT_WARN("service.refuse_terminal", session, frame.sequence,
                      s->closing ? "session closing" : "session failed");
    } else {
      s->pump_locked();
      bool refused_newest = false;
      if (static_cast<int>(s->backlog.size()) >= s->effective_depth) {
        const std::shared_ptr<obs::Counter>& shed =
            shed_counters_[static_cast<std::size_t>(s->options.policy)];
        const char* policy = policy_name(s->options.policy);
        switch (s->options.policy) {
          case ShedPolicy::kRefuseNewest:
            ++s->shed_refused;
            shed->increment();
            US3D_TRACE_INSTANT("service.shed", "session", session,
                               "sequence", frame.sequence);
            US3D_EVENT_WARN("service.shed", session, frame.sequence, policy,
                            "backlog",
                            static_cast<std::int64_t>(s->backlog.size()));
            refused_newest = true;
            break;
          case ShedPolicy::kDropOldest:
            US3D_TRACE_INSTANT("service.shed", "session", session,
                               "sequence", s->backlog.front().frame.sequence);
            US3D_EVENT_WARN("service.shed", session,
                            s->backlog.front().frame.sequence, policy,
                            "backlog",
                            static_cast<std::int64_t>(s->backlog.size()));
            s->backlog.pop_front();
            ++s->shed_dropped;
            shed->increment();
            break;
          case ShedPolicy::kAdaptiveDepth:
            // Multiplicative decrease: halve this session's depth (floor
            // 1) so the laggard holds fewer shared slots, then shed the
            // now-overflowing oldest frames. pump_locked() regrows it.
            s->effective_depth = std::max(1, s->effective_depth / 2);
            s->async->set_queue_depth(s->effective_depth);
            while (static_cast<int>(s->backlog.size()) >=
                   s->effective_depth) {
              US3D_TRACE_INSTANT("service.shed", "session", session,
                                 "sequence",
                                 s->backlog.front().frame.sequence);
              US3D_EVENT_WARN("service.shed", session,
                              s->backlog.front().frame.sequence, policy,
                              "depth", s->effective_depth);
              s->backlog.pop_front();
              ++s->shed_adaptive;
              shed->increment();
            }
            break;
        }
      }
      if (!refused_newest) {
        s->backlog.push_back(
            Session::Pending{std::move(frame), Clock::now()});
        s->pump_locked();
        entered = true;
      }
    }
  }
  maybe_dump_failure(s);
  return entered;
}

int ImagingService::poll(int session, const runtime::VolumeSink& sink) {
  const std::shared_ptr<Session> s = find(session);
  int delivered = 0;
  {
    MutexLock lock(s->mutex);
    if (s->closing) return 0;
    s->pump_locked();
    const runtime::VolumeSink deliver = s->delivery_sink(sink);
    while (s->async->poll(deliver)) {
      ++delivered;
      s->pump_locked();  // a freed ring slot may admit backlog immediately
    }
    s->capture_error_locked();
  }
  maybe_dump_failure(s);
  return delivered;
}

SessionStats ImagingService::close_session(int session,
                                           const runtime::VolumeSink& sink) {
  std::shared_ptr<Session> s;
  {
    MutexLock lock(service_mutex_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      throw ContractViolation("imaging service: unknown session " +
                              std::to_string(session));
    }
    s = it->second;
  }
  SessionStats final_stats;
  {
    MutexLock lock(s->mutex);
    if (!s->finished) {
      s->closing = true;
      const runtime::VolumeSink deliver = s->delivery_sink(sink);
      // Drain the backlog *through* the pipeline: pump whenever input room
      // frees, delivering outputs as they become ready — a healthy session
      // sheds nothing at close. Waiting for an output alone would hang a
      // compounding session whose open group still has frames backlogged.
      while (!s->backlog.empty() && !s->async->failed()) {
        s->pump_locked();
        if (s->backlog.empty()) break;
        if (!s->async->wait_for_room(deliver)) break;
      }
      s->async->close();
      s->final_pipeline = s->async->finish(deliver);
      s->capture_error_locked();
      // Whatever is still backlogged never reached the pipeline (it
      // failed or refused): shed it, visibly.
      for (; !s->backlog.empty(); s->backlog.pop_front()) ++s->shed_dropped;
      // Accepted-but-undelivered frames are the pipeline's dropped_frames;
      // they get no latency sample.
      s->in_flight.clear();
      s->finished = true;
    }
    final_stats = s->snapshot_locked();
  }
  maybe_dump_failure(s);
  US3D_EVENT_INFO("service.close", session, -1, nullptr, "delivered",
                  final_stats.delivered_frames);
  {
    MutexLock lock(service_mutex_);
    const auto it = sessions_.find(session);
    if (it != sessions_.end() && it->second == s) {
      sessions_.erase(it);
      inflight_in_use_ -= s->ring_slots;
      closed_.push_back(final_stats);
      rebalance_locked();
      closed_counter_->increment();
      open_sessions_gauge_->set(static_cast<std::int64_t>(sessions_.size()));
      inflight_gauge_->set(inflight_in_use_);
      // Unlist this session's scoped gauges; the counters above are
      // service-lifetime and stay.
      obs::MetricsRegistry::global().remove_prefix(session_scope(session) +
                                                   ".");
    }
  }
  return final_stats;
}

void ImagingService::maybe_dump_failure(const std::shared_ptr<Session>& s) {
  bool dump = false;
  int id = -1;
  {
    MutexLock lock(s->mutex);
    if (s->postmortem_pending) {
      s->postmortem_pending = false;
      dump = true;
      id = s->id;
    }
  }
  if (dump) {
    obs::FlightRecorder::global().dump("session_failure", id);
  }
}

SessionStats ImagingService::session_stats(int session) const {
  const std::shared_ptr<Session> s = find(session);
  MutexLock lock(s->mutex);
  return s->snapshot_locked();
}

bool ImagingService::session_failed(int session) const {
  const std::shared_ptr<Session> s = find(session);
  MutexLock lock(s->mutex);
  return s->failed || s->async->failed();
}

int ImagingService::granted_workers(int session) const {
  return find(session)->worker_cap.load(std::memory_order_relaxed);
}

int ImagingService::open_sessions() const {
  MutexLock lock(service_mutex_);
  return static_cast<int>(sessions_.size());
}

void ImagingService::fold(ServiceStats& out, const SessionStats& s) {
  out.submitted += s.submitted;
  out.delivered_frames += s.delivered_frames;
  out.shed_refused += s.shed_refused;
  out.shed_dropped += s.shed_dropped;
  out.shed_adaptive += s.shed_adaptive;
  out.dropped_frames += s.pipeline.dropped_frames;
  out.latency_by_class[static_cast<std::size_t>(s.priority)].merge(s.latency);
  out.sessions.push_back(s);
}

ServiceStats ImagingService::stats() const {
  // Snapshot the roster under the service lock, then RELEASE it before
  // touching any session mutex: a session mid-close holds its own mutex
  // for the whole drain, and blocking on it while holding service_mutex_
  // would stall every other session's submit path — exactly the coupling
  // the per-session locking exists to prevent. No double counting either
  // way: close_session erases from sessions_ and appends to closed_ in
  // one service-lock critical section, and we copy both together.
  ServiceStats out;
  std::vector<std::shared_ptr<Session>> open;
  {
    MutexLock lock(service_mutex_);
    out.budget_workers = budget_.worker_threads;
    out.budget_inflight = budget_.inflight_volumes;
    out.inflight_in_use = inflight_in_use_;
    out.open_sessions = static_cast<int>(sessions_.size());
    out.sessions_admitted = sessions_admitted_;
    out.sessions_refused = sessions_refused_;
    out.sessions_closed = static_cast<std::int64_t>(closed_.size());
    for (const SessionStats& closed : closed_) fold(out, closed);
    open.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) open.push_back(session);
  }
  for (const std::shared_ptr<Session>& session : open) {
    MutexLock session_lock(session->mutex);
    const SessionStats snapshot = session->snapshot_locked();
    out.workers_in_use += snapshot.granted_workers;
    fold(out, snapshot);
  }
  return out;
}

}  // namespace us3d::service
