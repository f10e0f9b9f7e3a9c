// Common interface of all delay generators. A delay engine produces, for
// one focal point, the echo-buffer sample index for every probe element —
// exactly what the receive beamformer consumes (Eq. 1: the delay tp is used
// as an index into the echo stream e).
//
// Engines may be stateful and order-sensitive: TABLEFREE tracks the current
// PWL segment per element and therefore expects focal points in a smooth
// scan order (Algorithm 1). Callers must call begin_frame() before a sweep
// and then feed focal points in a single ScanCursor order.
//
// Statefulness contract (enforced here, not per engine): compute() before
// begin_frame() is a precondition violation. begin_frame() fixes the
// transmit origin and resets all per-frame state, so a frame sweep is a
// begin_frame() followed by compute() calls only. clone() produces an
// independently usable engine with identical configuration and tables but
// *no* begun frame — the runtime clones one prototype per worker thread and
// each worker begins its own frame, which is what makes parallel
// reconstruction bit-identical to serial (delay values depend only on the
// focal point and origin, never on the visit order).
//
// Block contract (the batched hot path): compute_block() fills a DelayPlane
// — [element][point] rows — for a FocalBlock, i.e. a contiguous run of
// focal points in the active scan order that never crosses an outer-axis
// boundary (see imaging::BlockCursor). Feeding a frame's blocks in order is
// *equivalent by construction* to feeding its points one by one: delay
// values depend only on (origin, focal point), so per-voxel and block
// sweeps are bit-identical, and compute() and compute_block() may even be
// interleaved within one frame. What the block form buys is amortization:
// one virtual dispatch per run instead of per voxel, per-element state
// advanced once across the whole run (TABLEFREE's PWL trackers walk their
// segment monotonically along a smooth run — exactly Algorithm 1's
// intention; since a segment is a function of its argument alone, the
// fixed-point receive rows run lane-parallel through the simd::PwlRowFn
// kernels and charge each tracker once per run), and per-block
// invariants hoisted out of inner loops
// (TABLESTEER gathers its separable correction rows once per block and,
// when the block's depth is uniform — which kNappeByNappe blocks always
// are — reads its reference-table entry once per element and sweeps each
// element row through the simd::SteerRowFn kernels). The
// caller passes a reusable DelayPlane scratch; reshape() grows it once and
// steady-state sweeps allocate nothing. compute_block_reference() is the
// non-virtual per-point oracle the property tests pin every native block
// implementation against. For the fixed-point engines (TABLEFREE,
// TABLESTEER) the per-point do_compute() is also the readable spec: it
// runs the hardware datapath on the fx::Value model, while the block
// paths run the same datapath on raw integer words with every shift and
// clamp limit derived at construction, pinned bit-for-bit to the spec.
#ifndef US3D_DELAY_ENGINE_H
#define US3D_DELAY_ENGINE_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/contracts.h"
#include "common/vec3.h"
#include "delay/delay_plane.h"
#include "imaging/focal_block.h"
#include "imaging/focal_point.h"

namespace us3d::delay {

class DelayEngine {
 public:
  virtual ~DelayEngine() = default;

  /// Human-readable identifier ("EXACT", "TABLEFREE", "TABLESTEER-18b", ...).
  virtual std::string name() const = 0;

  /// Number of receive elements this engine produces delays for; `out` in
  /// compute() must have exactly this many entries (probe flat order).
  virtual int element_count() const = 0;

  /// Deep copy with identical configuration and precomputed tables. The
  /// clone shares nothing mutable with the original and starts with no
  /// begun frame, so engine and clone can sweep concurrently on different
  /// threads once each has called begin_frame().
  virtual std::unique_ptr<DelayEngine> clone() const = 0;

  /// Resets per-frame state and fixes the transmit origin O for the frame.
  void begin_frame(const Vec3& origin) {
    do_begin_frame(origin);
    frame_begun_ = true;
  }

  /// Computes the two-way delay, rounded to an echo-buffer sample index,
  /// for every element at focal point `fp`. begin_frame() must have been
  /// called first (a cloned engine does not inherit the prototype's frame).
  void compute(const imaging::FocalPoint& fp, std::span<std::int32_t> out) {
    US3D_EXPECTS(frame_begun_);  // compute() before begin_frame()
    do_compute(fp, out);
  }

  /// Batched form: fills `plane` (reshaped to element_count() x
  /// block.size()) for a smooth-order run. Bit-identical to calling
  /// compute() on each point in block order; see the block contract above.
  void compute_block(const imaging::FocalBlock& block, DelayPlane& plane) {
    US3D_EXPECTS(frame_begun_);
    plane.reshape(element_count(), block.size());
    if (!block.empty()) do_compute_block(block, plane);
  }

  /// The per-point oracle: the exact loop-over-compute() path the block
  /// implementations must reproduce bit-for-bit. Non-virtual on purpose —
  /// property tests run it on a clone and compare against compute_block().
  /// Allocates a per-call gather row; never use it on a hot path.
  void compute_block_reference(const imaging::FocalBlock& block,
                               DelayPlane& plane);

  /// Whether begin_frame() has been called on *this* instance.
  bool frame_begun() const { return frame_begun_; }

 protected:
  DelayEngine() = default;
  // Copies never inherit a begun frame — neither the source's (copy) nor
  // the target's previous one (assignment): the result must get its own
  // begin_frame() before compute().
  DelayEngine(const DelayEngine&) : frame_begun_(false) {}
  DelayEngine& operator=(const DelayEngine&) {
    frame_begun_ = false;
    return *this;
  }

  virtual void do_begin_frame(const Vec3& origin) = 0;
  virtual void do_compute(const imaging::FocalPoint& fp,
                          std::span<std::int32_t> out) = 0;
  /// Default: the per-point reference loop. Every shipped engine overrides
  /// this with a native batched implementation; the fallback keeps custom
  /// engines correct and is what compute_block_reference() runs.
  virtual void do_compute_block(const imaging::FocalBlock& block,
                                DelayPlane& plane);

 private:
  bool frame_begun_ = false;
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_ENGINE_H
