// The streaming runtime: a bounded-queue stage graph that overlaps
// ingest, beamform, compounding and sink consumption, with real
// backpressure for an acquisition front-end. It is the only code that
// drives a stream and the only owner of PipelineStats; the FramePipeline
// underneath just sweeps frames.
//
//   run()/submit()/  ─► input queue ─► beamform stage ─► VolumeRing slot
//   try_submit()        (bounded:       (pool sweep via     │
//                        backpressure)   FramePipeline)     ▼
//   run()/poll()/    ◄─ output queue ◄─ compound stage (sums K origins)
//   wait_one()/finish()  (in order)
//
// - The caller is the ingest stage: submit() blocks while the bounded
//   input queue is full (that *is* the backpressure an acquisition
//   front-end needs), try_submit() refuses instead so a real-time producer
//   can shed or buffer.
// - The beamform stage runs on its own thread, sweeping each frame across
//   the FramePipeline's worker pool into a VolumeRing slot (N in-flight
//   volumes, not two hardcoded buffers).
// - The compound stage (its own thread) coherently sums K successive
//   insonifications into one output volume — origin k+1 beamforms while
//   origin k accumulates. With K = 1 it forwards volumes untouched. The
//   compounded volume is bit-identical to beamforming each insonification
//   serially and summing in shot order (property-tested for all engines).
// - Outputs leave in acquisition order. Consumption is either caller-driven
//   (poll / wait_one / wait_for_room — one consuming thread at a time) or
//   run(), which pulls a FrameSource dry on the calling thread while a
//   consumer thread feeds the sink.
//
// Failure semantics: a sink exception or a beamform/worker exception stops
// the pipeline — submit() starts returning false, in-flight work is
// drained and dropped (never silently lost: PipelineStats::dropped_frames
// counts it), and finish() reports the stored exception via
// rethrow_if_failed(). Frame accounting is delivery-based throughout:
// PipelineStats::frames only counts volumes the sink actually received.
// Stats cover one session (one AsyncPipeline); nothing accumulates across
// sessions on the same FramePipeline.
#ifndef US3D_RUNTIME_ASYNC_PIPELINE_H
#define US3D_RUNTIME_ASYNC_PIPELINE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <thread>

#include "common/annotated_mutex.h"
#include "runtime/bounded_queue.h"
#include "runtime/frame_pipeline.h"
#include "runtime/frame_source.h"
#include "runtime/pipeline_stats.h"
#include "runtime/volume_ring.h"

namespace us3d::runtime {

/// Called once per finished output volume, in acquisition order. The
/// volume reference is only valid for the duration of the call (its ring
/// slot is recycled).
using VolumeSink = std::function<void(const beamform::VolumeImage& volume,
                                      std::int64_t sequence)>;

struct AsyncOptions {
  /// In-flight output volumes: the VolumeRing size and the bound on the
  /// input queue. 1 = fully serial hand-off, 2 = classic double
  /// buffering, larger absorbs burstier sinks. Clamped to >= 2 when
  /// compounding (the accumulator occupies one slot across its group).
  int depth = 2;
  /// Compounding factor K: sum K successive insonifications into each
  /// output volume. 1 disables compounding. A final partial group (stream
  /// ended mid-group) is still delivered, with its actual count.
  int compound_origins = 1;
  /// Session id stamped on every stage span this pipeline records (the
  /// "session" span arg in the exported trace). -1 = standalone pipeline.
  std::int64_t session = -1;
  /// When non-empty, the pipeline registers live occupancy gauges under
  /// this prefix in obs::MetricsRegistry::global() —
  /// "<scope>.input_queue_depth" and "<scope>.ring_in_flight", sampled
  /// under the queue/ring locks on every enqueue/dequeue — and names its
  /// stage threads "<scope>.beamform"/"<scope>.compound" in the trace.
  /// Empty (the default) registers nothing: standalone pipelines leave no
  /// residue in the global registry.
  std::string metrics_scope{};
};

class AsyncPipeline {
 public:
  /// Spawns the beamform and compound stage threads immediately. The
  /// pipeline borrows `pipeline`'s worker pool and engine clones; at most
  /// one AsyncPipeline may be active per FramePipeline at a time — the
  /// pool is not reentrant. Sessions may follow one another on the same
  /// FramePipeline, also after a failed one.
  explicit AsyncPipeline(FramePipeline& pipeline,
                         const AsyncOptions& options = {});

  /// Joins the stage threads. If finish() was never called, in-flight
  /// work is discarded (call finish() to drain and collect stats).
  ~AsyncPipeline();

  AsyncPipeline(const AsyncPipeline&) = delete;
  AsyncPipeline& operator=(const AsyncPipeline&) = delete;

  /// Blocking submit: parks the caller while the input queue is full
  /// (backpressure). Returns false once the pipeline has failed or been
  /// closed — the frame was not accepted.
  bool submit(EchoFrame frame) US3D_EXCLUDES(state_mutex_);

  /// Non-blocking submit: false when the queue is full right now (the
  /// frame is left intact for the caller to retry or shed) or the
  /// pipeline is closed/failed.
  bool try_submit(EchoFrame& frame) US3D_EXCLUDES(state_mutex_);

  /// Non-blocking: delivers at most one finished volume to `sink`.
  /// Returns true if one was delivered. One consuming thread at a time.
  bool poll(const VolumeSink& sink) US3D_EXCLUDES(state_mutex_);

  /// Blocking: waits for the next finished volume and delivers it.
  /// Returns false when no more outputs will ever arrive (stream closed
  /// and drained, or pipeline failed).
  bool wait_one(const VolumeSink& sink) US3D_EXCLUDES(state_mutex_);

  /// Blocking: waits until the input queue has room for try_submit() or
  /// a finished volume is ready, delivering that volume to `sink`. Unlike
  /// wait_one() it also returns while a compound group is still open, so
  /// a producer holding the group's remaining frames can hand them in.
  /// Returns false when neither will happen any more (the stream is
  /// closed and drained, or the pipeline failed).
  bool wait_for_room(const VolumeSink& sink) US3D_EXCLUDES(state_mutex_);

  /// No more submissions; in-flight frames still complete and can be
  /// drained with wait_one()/finish(). Idempotent.
  void close();

  /// close() + deliver every remaining output to `sink` + join the stage
  /// threads, then return the final stats (wall_s covers construction to
  /// finish). Does NOT throw on pipeline failure so the caller always gets
  /// truthful stats — call rethrow_if_failed() after. Idempotent.
  PipelineStats finish(const VolumeSink& sink) US3D_EXCLUDES(state_mutex_);

  /// Streams frames from `source` until it runs dry, handing finished
  /// volumes to `sink` in order from a consumer thread, so the sink
  /// overlaps later frames' beamform. Then finish()es the session and
  /// returns its stats. An exception thrown by the source, the sink or a
  /// worker propagates after the stages have quiesced; frames ingested
  /// before a source failure are still delivered, and a source exception
  /// wins over a pipeline one. A session runs at most once.
  PipelineStats run(FrameSource& source, const VolumeSink& sink)
      US3D_EXCLUDES(state_mutex_);

  /// Rethrows the first stored failure, worker errors before sink errors.
  /// No-op if the pipeline is healthy.
  void rethrow_if_failed() US3D_EXCLUDES(state_mutex_);

  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// One consistent mid-run stats view, taken under the pipeline's state
  /// lock. While the stream is live, `insonifications` reflects accepted
  /// submissions so far (and dropped_frames stays 0 — in-flight work is
  /// not yet dropped), so a scraper's ledger is always bounded:
  /// delivered <= insonifications at every instant. After finish() this
  /// is exactly the final stats.
  PipelineStats stats_snapshot() const US3D_EXCLUDES(state_mutex_);

  int ring_slots() const { return ring_.slots(); }

  /// Adaptive queue-depth hook (the ROADMAP load-shedding item): bounds
  /// in-flight frames to `depth` from now on — the input queue's capacity
  /// and a soft cap on concurrently acquired ring slots (clamped to >= 2
  /// while compounding, and to the allocated ring size). Shrinking never
  /// drops queued work; it only refuses new submissions earlier, which is
  /// what lets a service shed a lagging session's load without stalling
  /// its neighbours. Thread-safe; reported via PipelineStats::queue_depth.
  void set_queue_depth(int depth) US3D_EXCLUDES(state_mutex_);
  int queue_depth() const US3D_EXCLUDES(state_mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Beamformed {
    int slot = -1;
    std::int64_t sequence = 0;
  };
  struct Output {
    int slot = -1;
    std::int64_t sequence = 0;   ///< last insonification summed in
    std::int64_t summed = 0;     ///< insonifications in this volume
  };

  void beamform_loop() US3D_EXCLUDES(state_mutex_);
  void compound_loop() US3D_EXCLUDES(state_mutex_);
  /// Queues a finished volume for consumption (or drops it after failure).
  void emit(Output out) US3D_EXCLUDES(state_mutex_);
  /// Runs the sink on one output and does delivery accounting. Returns
  /// false if the sink threw (the pipeline is failed afterwards).
  bool deliver(const VolumeSink& sink, const Output& out)
      US3D_EXCLUDES(state_mutex_);
  void fail(std::exception_ptr error, bool from_sink)
      US3D_EXCLUDES(state_mutex_);
  /// Pops the next queued output under the state lock; false if none.
  bool take_output(Output& out) US3D_REQUIRES(state_mutex_);

  FramePipeline& pipeline_;
  AsyncOptions options_;
  VolumeRing ring_;
  BoundedQueue<EchoFrame> input_;
  BoundedQueue<Beamformed> beamformed_;
  /// Static backend / precision names for span args (point at
  /// dispatch.h's literals).
  const char* backend_name_ = "";
  const char* precision_name_ = "";

  std::atomic<bool> failed_{false};

  mutable Mutex state_mutex_;
  CondVar state_cv_;
  // Bounded by ring slots.
  std::deque<Output> output_ US3D_GUARDED_BY(state_mutex_);
  // Compound stage has exited.
  bool stages_done_ US3D_GUARDED_BY(state_mutex_) = false;
  bool finished_ US3D_GUARDED_BY(state_mutex_) = false;
  std::exception_ptr worker_error_ US3D_GUARDED_BY(state_mutex_);
  std::exception_ptr sink_error_ US3D_GUARDED_BY(state_mutex_);
  // Insonifications accepted.
  std::int64_t submitted_ US3D_GUARDED_BY(state_mutex_) = 0;
  std::int64_t delivered_insonifications_ US3D_GUARDED_BY(state_mutex_) = 0;
  PipelineStats stats_ US3D_GUARDED_BY(state_mutex_);

  Clock::time_point start_;
  std::thread beamform_thread_;
  std::thread compound_thread_;
};

}  // namespace us3d::runtime

#endif  // US3D_RUNTIME_ASYNC_PIPELINE_H
