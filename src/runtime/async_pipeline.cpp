#include "runtime/async_pipeline.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/contracts.h"
#include "common/latency.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/resource_profiler.h"
#include "obs/trace.h"
#include "simd/dispatch.h"

namespace us3d::runtime {

namespace {

int ring_slots_for(const AsyncOptions& options) {
  int slots = std::max(1, options.depth);
  // The compound accumulator occupies one slot for its whole K-group; a
  // second slot keeps the next insonification beamforming meanwhile.
  if (options.compound_origins > 1) slots = std::max(slots, 2);
  return slots;
}

}  // namespace

AsyncPipeline::AsyncPipeline(FramePipeline& pipeline,
                             const AsyncOptions& options)
    : pipeline_(pipeline),
      options_(options),
      ring_(pipeline.volume(), ring_slots_for(options)),
      input_(static_cast<std::size_t>(std::max(1, options.depth))),
      beamformed_(static_cast<std::size_t>(ring_slots_for(options))),
      start_(Clock::now()) {
  US3D_EXPECTS(options.depth >= 1);
  US3D_EXPECTS(options.compound_origins >= 1);
  {
    // Uncontended (the stage threads don't exist yet); keeps the guarded
    // stats_ writes uniform for the thread-safety analysis.
    MutexLock lock(state_mutex_);
    stats_.worker_threads = pipeline.worker_threads();
    stats_.simd_backend = simd::backend_name(pipeline.simd_backend());
    stats_.precision = simd::precision_name(pipeline.precision());
    stats_.queue_depth = std::max(1, options.depth);
    stats_.ring_slots = ring_.slots();
  }
  backend_name_ = simd::backend_name(pipeline.simd_backend());
  precision_name_ = simd::precision_name(pipeline.precision());
  if (!options_.metrics_scope.empty()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    input_.set_depth_gauge(
        reg.gauge(options_.metrics_scope + ".input_queue_depth"));
    ring_.set_occupancy_gauge(
        reg.gauge(options_.metrics_scope + ".ring_in_flight"));
  }
  beamform_thread_ = std::thread([this] {
    obs::set_thread_name(options_.metrics_scope.empty()
                             ? "beamform"
                             : options_.metrics_scope + ".beamform");
    obs::ResourceProfiler::global().register_current_thread("beamform");
    beamform_loop();
  });
  compound_thread_ = std::thread([this] {
    obs::set_thread_name(options_.metrics_scope.empty()
                             ? "compound"
                             : options_.metrics_scope + ".compound");
    obs::ResourceProfiler::global().register_current_thread("compound");
    compound_loop();
  });
}

AsyncPipeline::~AsyncPipeline() {
  input_.close();
  ring_.close();  // unblock a beamform stage waiting on a slot
  if (beamform_thread_.joinable()) beamform_thread_.join();
  if (compound_thread_.joinable()) compound_thread_.join();
}

// Acceptance is counted *before* the push and rolled back on refusal.
// Counting after the push (as this used to) left a window where a frame
// was already in the pipeline — possibly beamformed, compounded and
// delivered — while submitted_ still excluded it, so a concurrent
// stats_snapshot() could observe frames > insonifications: exactly the
// torn ledger the snapshot contract rules out. The state lock cannot
// simply be held across the push, because push() blocks on backpressure
// and that would stall every scrape (and the delivery accounting) for the
// whole stall. Optimistically over-counting is safe: the ledger bound is
// delivered <= insonifications, and an accepted-but-still-queued frame
// only widens that gap until it is rolled back or delivered.
bool AsyncPipeline::submit(EchoFrame frame) {
  if (failed()) return false;
  const std::int64_t sequence = frame.sequence;
  {
    MutexLock lock(state_mutex_);
    ++submitted_;
  }
  bool pushed;
  // Timing the push only matters when someone is listening: the event is
  // a queue-stall diagnostic, so the clock reads hide behind the same
  // runtime gate as the emit itself.
  const bool log_stalls = obs::EventLog::instance().enabled();
  const auto push_t0 = log_stalls ? Clock::now() : Clock::time_point();
  {
    // The span covers the queue wait: with the input queue full this is
    // the backpressure stall the acquisition front-end experiences.
    US3D_TRACE_SPAN("stage.ingest", "sequence", sequence, "session",
                    options_.session);
    pushed = input_.push(std::move(frame));
  }
  if (log_stalls) {
    const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - push_t0);
    if (waited >= std::chrono::milliseconds(1)) {
      US3D_EVENT_WARN("pipeline.ingest_stall", options_.session, sequence,
                      nullptr, "wait_us", waited.count());
    }
  }
  if (!pushed) {
    MutexLock lock(state_mutex_);
    --submitted_;
    return false;
  }
  return true;
}

bool AsyncPipeline::try_submit(EchoFrame& frame) {
  if (failed()) return false;
  const std::int64_t sequence = frame.sequence;
  {
    MutexLock lock(state_mutex_);
    ++submitted_;
  }
  if (!input_.try_push(frame)) {
    {
      MutexLock lock(state_mutex_);
      --submitted_;
    }
    US3D_EVENT_DEBUG("pipeline.queue_full", options_.session, sequence);
    return false;
  }
  US3D_TRACE_INSTANT("stage.ingest", "sequence", sequence, "session",
                     options_.session);
  return true;
}

void AsyncPipeline::close() { input_.close(); }

void AsyncPipeline::set_queue_depth(int depth) {
  US3D_EXPECTS(depth >= 1);
  input_.set_capacity(static_cast<std::size_t>(depth));
  int ring_cap = depth;
  // The compound accumulator pins one slot for its whole K-group; keep a
  // second so the next insonification can still beamform (same clamp as
  // construction).
  if (options_.compound_origins > 1) ring_cap = std::max(ring_cap, 2);
  ring_.set_active_slots(std::min(ring_cap, ring_.slots()));
  MutexLock lock(state_mutex_);
  stats_.queue_depth = depth;
}

int AsyncPipeline::queue_depth() const {
  MutexLock lock(state_mutex_);
  return stats_.queue_depth;
}

PipelineStats AsyncPipeline::stats_snapshot() const {
  MutexLock lock(state_mutex_);
  PipelineStats out = stats_;
  if (!finished_) {
    // Live view: acceptance is the running submit count, and nothing is
    // "dropped" yet — accepted-but-undelivered work is in flight, and
    // finish() settles the difference. This is what keeps a mid-run
    // scrape's ledger bounded instead of mixing a stale insonification
    // count with a fresh delivery count.
    out.insonifications = submitted_;
    out.dropped_frames = 0;
    out.wall_s = seconds_since(start_);
  }
  return out;
}

bool AsyncPipeline::take_output(Output& out) {
  if (output_.empty()) return false;
  out = output_.front();
  output_.pop_front();
  return true;
}

bool AsyncPipeline::poll(const VolumeSink& sink) {
  Output out;
  {
    MutexLock lock(state_mutex_);
    if (!take_output(out)) return false;
  }
  return deliver(sink, out);
}

bool AsyncPipeline::wait_one(const VolumeSink& sink) {
  Output out;
  {
    MutexLock lock(state_mutex_);
    while (output_.empty() && !stages_done_ &&
           !failed_.load(std::memory_order_acquire)) {
      state_cv_.wait(state_mutex_);
    }
    if (!take_output(out)) return false;  // drained and done (or failed)
  }
  return deliver(sink, out);
}

bool AsyncPipeline::wait_for_room(const VolumeSink& sink) {
  Output out;
  {
    MutexLock lock(state_mutex_);
    // Room appears when the beamform stage pops a frame. Every popped
    // frame is then either marked processed or fails the pipeline; both
    // take state_mutex_ after the pop and then notify state_cv_, so a pop
    // after the full() check below still wakes this wait.
    while (output_.empty() && !stages_done_ &&
           !failed_.load(std::memory_order_acquire) && input_.full()) {
      state_cv_.wait(state_mutex_);
    }
    if (!take_output(out)) {
      return !stages_done_ && !failed_.load(std::memory_order_acquire);
    }
  }
  return deliver(sink, out);
}

PipelineStats AsyncPipeline::finish(const VolumeSink& sink) {
  {
    MutexLock lock(state_mutex_);
    if (finished_) return stats_;
  }
  close();
  while (wait_one(sink)) {
  }
  if (beamform_thread_.joinable()) beamform_thread_.join();
  if (compound_thread_.joinable()) compound_thread_.join();
  MutexLock lock(state_mutex_);
  if (!finished_) {
    finished_ = true;
    stats_.insonifications = submitted_;
    stats_.dropped_frames = submitted_ - delivered_insonifications_;
    stats_.wall_s = seconds_since(start_);
    US3D_ENSURES(stats_.lifetime_coherent());
  }
  return stats_;
}

PipelineStats AsyncPipeline::run(FrameSource& source, const VolumeSink& sink) {
  // This thread is the ingest stage; a consumer thread drains outputs so
  // the sink runs concurrently with later frames' beamform.
  std::thread consumer([&] {
    while (wait_one(sink)) {
    }
  });
  std::int64_t submitted = 0;
  // A throwing source must still wind the stages down and join the
  // consumer before the exception leaves run() — otherwise the joinable
  // consumer thread's destructor would terminate the process.
  std::exception_ptr source_error;
  try {
    while (true) {
      const auto t_ingest = Clock::now();
      std::optional<EchoFrame> frame;
      {
        // Source fetch only; submit() records its own "stage.ingest" span
        // covering any backpressure stall.
        US3D_TRACE_SPAN("ingest.source", "sequence", submitted);
        frame = source.next_frame();
      }
      if (!frame) break;
      {
        MutexLock lock(state_mutex_);
        stats_.ingest.record(seconds_since(t_ingest));
      }
      if (!submit(std::move(*frame))) break;  // pipeline failed
      ++submitted;
    }
  } catch (...) {
    source_error = std::current_exception();
  }
  close();
  consumer.join();
  // finish() settles delivery and drop accounting before any rethrow, so
  // a failed run still leaves truthful stats behind.
  const PipelineStats stats = finish(sink);
  if (source_error) std::rethrow_exception(source_error);
  rethrow_if_failed();
  return stats;
}

void AsyncPipeline::rethrow_if_failed() {
  std::exception_ptr error;
  {
    MutexLock lock(state_mutex_);
    error = worker_error_ ? worker_error_ : sink_error_;
  }
  if (error) std::rethrow_exception(error);
}

void AsyncPipeline::beamform_loop() {
  while (true) {
    std::optional<EchoFrame> frame = input_.pop();
    if (!frame) break;       // input closed and drained
    if (failed()) continue;  // drain-and-drop; counted via dropped_frames
    const int slot = ring_.acquire();
    if (slot < 0) continue;  // ring closed mid-shutdown: drop
    StageStats blocks;
    double elapsed = 0.0;
    try {
      // The span covers exactly the interval stats_.beamform times; the
      // bookkeeping and the hand-off to the compound stage below are
      // waits between stages, not beamforming.
      US3D_TRACE_SPAN("stage.beamform", "sequence", frame->sequence,
                      "session", options_.session, "backend", backend_name_,
                      "precision", precision_name_);
      const auto t0 = Clock::now();
      blocks = pipeline_.beamform_into(frame->echoes, frame->origin,
                                       ring_[slot]);
      elapsed = seconds_since(t0);
    } catch (...) {
      fail(std::current_exception(), /*from_sink=*/false);
      ring_.release(slot);
      continue;
    }
    {
      MutexLock lock(state_mutex_);
      stats_.beamform.record(elapsed);
      stats_.block.merge(blocks);
    }
    Beamformed item{slot, frame->sequence};
    if (!beamformed_.push(std::move(item))) ring_.release(slot);
  }
  beamformed_.close();
}

void AsyncPipeline::compound_loop() {
  const int k = std::max(1, options_.compound_origins);
  int acc_slot = -1;
  std::int64_t acc_count = 0;
  std::int64_t acc_seq = 0;
  // wait_for_room() sleeps until the beamform stage pops a frame. Taking
  // the state lock before the notify orders this wake-up after a waiter
  // that saw the input queue full, so the pop cannot slip between its
  // check and its wait.
  const auto mark_processed = [&] {
    {
      MutexLock lock(state_mutex_);
    }
    state_cv_.notify_all();
  };
  while (true) {
    std::optional<Beamformed> b = beamformed_.pop();
    if (!b) break;
    if (failed()) {
      ring_.release(b->slot);
      mark_processed();
      continue;
    }
    if (k <= 1) {
      {
        // Nothing to sum, so nothing is timed: the span is empty and marks
        // the frame's pass through the stage, ahead of the hand-off.
        US3D_TRACE_SPAN("stage.compound", "sequence", b->sequence, "session",
                        options_.session);
      }
      emit(Output{b->slot, b->sequence, 1});
      mark_processed();
      continue;
    }
    double elapsed = 0.0;
    {
      // The span covers exactly the interval stats_.compound times.
      US3D_TRACE_SPAN("stage.compound", "sequence", b->sequence, "session",
                      options_.session);
      const auto t0 = Clock::now();
      if (acc_slot < 0) {
        // First shot of the group: its volume *is* the accumulator
        // (summing it into a zeroed volume would produce the same
        // floats), so the group costs K-1 adds, and shot k+1 beamforms
        // while shot k sums.
        acc_slot = b->slot;
        acc_count = 1;
      } else {
        ring_[acc_slot].add(ring_[b->slot]);
        ring_.release(b->slot);
        ++acc_count;
      }
      acc_seq = b->sequence;
      elapsed = seconds_since(t0);
    }
    {
      MutexLock lock(state_mutex_);
      stats_.compound.record(elapsed);
    }
    if (acc_count >= k) {
      emit(Output{acc_slot, acc_seq, acc_count});
      acc_slot = -1;
      acc_count = 0;
    }
    mark_processed();
  }
  if (acc_slot >= 0) {
    if (failed()) {
      ring_.release(acc_slot);
    } else {
      // Stream ended mid-group: deliver the partial compound with its
      // actual shot count rather than dropping coherent work.
      emit(Output{acc_slot, acc_seq, acc_count});
    }
  }
  {
    MutexLock lock(state_mutex_);
    stages_done_ = true;
  }
  state_cv_.notify_all();
}

void AsyncPipeline::emit(Output out) {
  bool dropped = false;
  {
    MutexLock lock(state_mutex_);
    if (failed_.load(std::memory_order_acquire)) {
      dropped = true;
    } else {
      output_.push_back(out);
    }
  }
  if (dropped) {
    ring_.release(out.slot);
  } else {
    state_cv_.notify_all();
  }
}

bool AsyncPipeline::deliver(const VolumeSink& sink, const Output& out) {
  const std::int64_t voxels = ring_[out.slot].voxel_count();
  double elapsed = 0.0;
  try {
    // The span covers exactly the interval stats_.consume times.
    US3D_TRACE_SPAN("stage.sink", "sequence", out.sequence, "session",
                    options_.session);
    const auto t0 = Clock::now();
    if (sink) sink(ring_[out.slot], out.sequence);
    elapsed = seconds_since(t0);
  } catch (...) {
    ring_.release(out.slot);
    fail(std::current_exception(), /*from_sink=*/true);
    return false;
  }
  ring_.release(out.slot);
  MutexLock lock(state_mutex_);
  stats_.consume.record(elapsed);
  ++stats_.frames;
  stats_.voxels += voxels;
  delivered_insonifications_ += out.summed;
  return true;
}

void AsyncPipeline::fail(std::exception_ptr error, bool from_sink) {
  std::deque<Output> orphans;
  bool first_failure = false;
  {
    MutexLock lock(state_mutex_);
    if (from_sink) {
      if (!sink_error_) sink_error_ = error;
    } else if (!worker_error_) {
      worker_error_ = error;
    }
    first_failure = !failed_.load(std::memory_order_relaxed);
    failed_.store(true, std::memory_order_release);
    orphans.swap(output_);
  }
  if (first_failure) {
    US3D_EVENT_ERROR("pipeline.failed", options_.session, -1,
                     from_sink ? "sink" : "worker");
  }
  for (const Output& o : orphans) ring_.release(o.slot);
  state_cv_.notify_all();
  input_.close();  // refuse further submissions, unblock producers
  ring_.close();   // unblock a beamform stage waiting on a slot
}

}  // namespace us3d::runtime
