// TABLEFREE delay generation (Sec. IV): no table at all. Each element has
// a small unit evaluating the receive-path sqrt with the PWL approximation
// and incremental segment tracking; the transmit path is shared by all
// elements (computed once per focal point). One multiplier + one adder +
// small c1/c0 LUTs per unit (Fig. 2a).
#ifndef US3D_DELAY_TABLEFREE_H
#define US3D_DELAY_TABLEFREE_H

#include <memory>
#include <vector>

#include "delay/engine.h"
#include "delay/pwl_sqrt.h"
#include "delay/pwl_tracker.h"
#include "imaging/system_config.h"
#include "probe/transducer.h"

namespace us3d::delay {

struct TableFreeConfig {
  /// PWL error bound in echo samples (paper: 0.25 -> 70 segments).
  double delta = 0.25;
  /// Fixed-point formats of the hardware datapath.
  FixedPwlSqrt::Config fixed{};
  /// Largest transmit-origin displacement behind the probe the unit must
  /// support (synthetic-aperture virtual sources). Widens the sqrt domain
  /// accordingly; 0 covers the paper's centred-origin operation.
  double max_origin_backoff_m = 0.0;
  /// When false, the engine evaluates the PWL in double precision,
  /// isolating the algorithmic (approximation) error from fixed-point
  /// effects — the distinction Sec. VI-A draws.
  bool use_fixed_point = true;
};

class TableFreeEngine final : public DelayEngine {
 public:
  TableFreeEngine(const imaging::SystemConfig& config,
                  const TableFreeConfig& tf_config = {});
  /// Copying rebinds the per-element trackers to the copy's own PWL table
  /// (they hold a pointer to the engine-owned segmentation).
  TableFreeEngine(const TableFreeEngine& other);
  TableFreeEngine& operator=(const TableFreeEngine&) = delete;

  std::string name() const override { return "TABLEFREE"; }
  int element_count() const override;
  std::unique_ptr<DelayEngine> clone() const override;

  const PwlSqrt& pwl() const { return pwl_; }
  const FixedPwlSqrt& fixed_pwl() const { return fixed_pwl_; }
  const TableFreeConfig& config() const { return tf_config_; }

  /// Aggregated tracker statistics across all element units (for the
  /// scan-order ablation and the hw stall model).
  struct TrackerStats {
    std::int64_t evaluations = 0;
    std::int64_t total_steps = 0;
    int max_steps_single_evaluation = 0;
    double mean_steps_per_evaluation() const {
      return evaluations ? static_cast<double>(total_steps) /
                               static_cast<double>(evaluations)
                         : 0.0;
    }
  };
  TrackerStats tracker_stats() const;
  void reset_tracker_stats();

 protected:
  void do_begin_frame(const Vec3& origin) override;
  /// The per-point spec: each leg through FixedPwlSqrt's fx::Value
  /// datapath (evaluate_in_segment), summed as reals and rounded half-up.
  /// compute_block_reference() runs this, and the block path is pinned to
  /// it bit-for-bit.
  void do_compute(const imaging::FocalPoint& fp,
                  std::span<std::int32_t> out) override;
  /// Native block path — Algorithm 1's amortization made explicit: the
  /// shared transmit tracker walks the run once, then each element's
  /// receive row is computed across the *whole* run before the next
  /// element is touched. In fixed point both legs stay raw result_format
  /// words (FixedPwlSqrt::evaluate_raw) and each delay is their integer
  /// sum shifted right with half-up rounding; the receive rows go through
  /// the explicit-SIMD row kernel (simd::PwlRowFn), which lanes over one
  /// element's focal points. The kernel's backend is resolved per block
  /// from US3D_SIMD or the best available; the engine has no backend
  /// option, so BeamformOptions::simd / PipelineConfig::simd pin only the
  /// DAS rows, not these. A row's segments are a function of its q
  /// values alone, so the kernel returns the run's final segment and step
  /// statistics and the element's tracker is charged in bulk
  /// (PwlTracker::charge_run): delays and tracker_stats() are identical
  /// to the per-point path. The double-precision path keeps the
  /// per-element tracker walk.
  void do_compute_block(const imaging::FocalBlock& block,
                        DelayPlane& plane) override;

 private:
  /// Clamped squared distance in sample^2 units between two points given
  /// in sample-scaled coordinates: the PWL argument q.
  double clamped_q(const Vec3& a, const Vec3& b) const;

  /// One PWL receive/transmit path evaluation at squared distance q:
  /// advances `tracker` to q's segment, then evaluates there on the
  /// fx::Value datapath (or in double when use_fixed_point is off).
  double evaluate_path(PwlTracker& tracker, double q) const;

  /// Block point p (sample units) from the SoA block scratch.
  Vec3 block_point(std::size_t p) const;

  /// The shared transmit tracker walks the block once: tx_legs[p] =
  /// leg(q_tx, segment) for every block point.
  template <typename T, typename Leg>
  void transmit_legs(std::vector<T>& tx_legs, Leg leg);

  /// Frame-start preload of every tracker's segment register at the first
  /// focal point `s0` (sample units) — the one-off seek both compute entry
  /// points run when pending_seek_ is set, kept in one place so compute()
  /// and compute_block() stay interleavable within a frame.
  void seed_trackers(const Vec3& s0);

  imaging::SystemConfig config_;
  probe::MatrixProbe probe_;
  TableFreeConfig tf_config_;
  PwlSqrt pwl_;
  FixedPwlSqrt fixed_pwl_;
  std::vector<Vec3> element_pos_samples_;  // element positions, sample units
  std::vector<PwlTracker> rx_trackers_;    // one per element
  PwlTracker tx_tracker_;
  Vec3 origin_samples_{};
  bool pending_seek_ = true;
  // Per-block scratch, reused: scaled positions (SoA, as the row kernel
  // reads them) and transmit legs (double, or result_format words).
  std::vector<double> block_x_;
  std::vector<double> block_y_;
  std::vector<double> block_z_;
  std::vector<double> block_tx_;
  std::vector<std::int64_t> block_tx_raw_;
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_TABLEFREE_H
