#include "delay/tablefree.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "simd/dispatch.h"

namespace us3d::delay {

namespace {

/// Domain of the shared PWL sqrt table: squared distances (in sample^2)
/// up to the longest receive path, with a small safety margin. The lower
/// end is 1: a steered shallow focal point can pass arbitrarily close to
/// an element, so the table must cover the whole range (distances below
/// one sample cannot occur at any realistic focal depth, and the tiny-x
/// segments cost only one or two extra table entries).
PwlSqrt build_pwl(const imaging::SystemConfig& cfg,
                  const TableFreeConfig& tf) {
  const probe::MatrixProbe probe(cfg.probe);
  const double k = cfg.sampling_frequency_hz / cfg.speed_of_sound;
  // The longest path is either receive (deepest point to a corner element)
  // or transmit from a backed-off virtual source.
  const double reach =
      std::max(probe.max_element_radius(), tf.max_origin_backoff_m);
  const double max_dist = (cfg.volume.max_depth_m + reach) * k;
  const double x_max = 1.05 * max_dist * max_dist;
  return PwlSqrt::build(1.0, x_max, tf.delta);
}

}  // namespace

TableFreeEngine::TableFreeEngine(const imaging::SystemConfig& config,
                                 const TableFreeConfig& tf_config)
    : config_(config),
      probe_(config.probe),
      tf_config_(tf_config),
      pwl_(build_pwl(config, tf_config)),
      fixed_pwl_(pwl_, tf_config.fixed),
      tx_tracker_(pwl_) {
  // The fixed-point block path adds the two legs as result_format words;
  // below 2^51 each, the per-point path's double sum of the same words is
  // exact, so both round identically.
  US3D_EXPECTS(!tf_config.use_fixed_point ||
               tf_config.fixed.result_format.total_bits() <= 51);
  const double k = config_.sampling_frequency_hz / config_.speed_of_sound;
  element_pos_samples_.reserve(
      static_cast<std::size_t>(probe_.element_count()));
  rx_trackers_.reserve(static_cast<std::size_t>(probe_.element_count()));
  for (int e = 0; e < probe_.element_count(); ++e) {
    element_pos_samples_.push_back(probe_.element_position(e) * k);
    rx_trackers_.emplace_back(pwl_);
  }
}

TableFreeEngine::TableFreeEngine(const TableFreeEngine& other)
    : DelayEngine(other),
      config_(other.config_),
      probe_(other.probe_),
      tf_config_(other.tf_config_),
      pwl_(other.pwl_),
      fixed_pwl_(other.fixed_pwl_),
      element_pos_samples_(other.element_pos_samples_),
      rx_trackers_(other.rx_trackers_),
      tx_tracker_(other.tx_tracker_),
      origin_samples_(other.origin_samples_),
      pending_seek_(other.pending_seek_) {
  for (PwlTracker& t : rx_trackers_) t.rebind(pwl_);
  tx_tracker_.rebind(pwl_);
}

int TableFreeEngine::element_count() const { return probe_.element_count(); }

std::unique_ptr<DelayEngine> TableFreeEngine::clone() const {
  return std::make_unique<TableFreeEngine>(*this);
}

void TableFreeEngine::do_begin_frame(const Vec3& origin) {
  const double k = config_.sampling_frequency_hz / config_.speed_of_sound;
  origin_samples_ = origin * k;
  pending_seek_ = true;
}

double TableFreeEngine::clamped_q(const Vec3& a, const Vec3& b) const {
  return std::clamp((a - b).norm_squared(), pwl_.x_min(), pwl_.x_max());
}

void TableFreeEngine::seed_trackers(const Vec3& s0) {
  // At frame start the control logic preloads each unit's segment
  // register (a one-off seek, not charged as stall cycles).
  tx_tracker_.seek(clamped_q(s0, origin_samples_));
  for (std::size_t e = 0; e < rx_trackers_.size(); ++e) {
    rx_trackers_[e].seek(clamped_q(s0, element_pos_samples_[e]));
  }
  pending_seek_ = false;
}

double TableFreeEngine::evaluate_path(PwlTracker& tracker, double q) const {
  tracker.advance(q);
  if (tf_config_.use_fixed_point) {
    return fixed_pwl_
        .evaluate_in_segment(static_cast<std::int64_t>(q), tracker.segment())
        .to_real();
  }
  return pwl_.evaluate_in_segment(q, tracker.segment());
}

void TableFreeEngine::do_compute(const imaging::FocalPoint& fp,
                                 std::span<std::int32_t> out) {
  US3D_EXPECTS(out.size() == static_cast<std::size_t>(element_count()));
  const double k = config_.sampling_frequency_hz / config_.speed_of_sound;
  const Vec3 s = fp.position * k;  // focal point in sample units

  const double q_tx = clamped_q(s, origin_samples_);
  if (pending_seek_) seed_trackers(s);

  // Transmit path: one evaluation per focal point, shared by all elements.
  const double t_tx = evaluate_path(tx_tracker_, q_tx);

  for (std::size_t e = 0; e < rx_trackers_.size(); ++e) {
    const double q_rx = clamped_q(s, element_pos_samples_[e]);
    const double t_rx = evaluate_path(rx_trackers_[e], q_rx);
    out[e] = static_cast<std::int32_t>(
        fx::round_real_to_int(t_tx + t_rx, fx::Rounding::kHalfUp));
  }
}

Vec3 TableFreeEngine::block_point(std::size_t p) const {
  return Vec3{block_x_[p], block_y_[p], block_z_[p]};
}

template <typename T, typename Leg>
void TableFreeEngine::transmit_legs(std::vector<T>& tx_legs, Leg leg) {
  tx_legs.resize(block_x_.size());
  for (std::size_t p = 0; p < tx_legs.size(); ++p) {
    const double q_tx = clamped_q(block_point(p), origin_samples_);
    tx_tracker_.advance(q_tx);
    tx_legs[p] = leg(q_tx, tx_tracker_.segment());
  }
}

void TableFreeEngine::do_compute_block(const imaging::FocalBlock& block,
                                       DelayPlane& plane) {
  const double k = config_.sampling_frequency_hz / config_.speed_of_sound;
  const int n = block.size();
  block_x_.resize(static_cast<std::size_t>(n));
  block_y_.resize(static_cast<std::size_t>(n));
  block_z_.resize(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    const Vec3 s = block[p].position * k;
    const auto i = static_cast<std::size_t>(p);
    block_x_[i] = s.x;
    block_y_[i] = s.y;
    block_z_[i] = s.z;
  }

  if (pending_seek_) seed_trackers(block_point(0));

  if (!tf_config_.use_fixed_point) {
    transmit_legs(block_tx_, [this](double q, std::size_t segment) {
      return pwl_.evaluate_in_segment(q, segment);
    });
    // Each element's tracker advances once across the whole run before
    // the next element is touched; it sees the same q sequence as the
    // per-point sweep, so segments and step counts are identical.
    for (std::size_t e = 0; e < rx_trackers_.size(); ++e) {
      PwlTracker& tracker = rx_trackers_[e];
      const std::span<std::int32_t> row = plane.row(static_cast<int>(e));
      for (std::size_t p = 0; p < block_x_.size(); ++p) {
        const double q_rx = clamped_q(block_point(p), element_pos_samples_[e]);
        tracker.advance(q_rx);
        row[p] = static_cast<std::int32_t>(fx::round_real_to_int(
            block_tx_[p] + pwl_.evaluate_in_segment(q_rx, tracker.segment()),
            fx::Rounding::kHalfUp));
      }
    }
    return;
  }

  // Fixed point on raw words: both legs stay result_format words, and the
  // per-point path's half-up rounding of their exact to_real() sum is the
  // half-up right shift of the integer sum. The receive rows run through
  // the dispatched row kernel; each returns its run's tracker statistics.
  // The kernel is resolved per block, like the DAS rows', so US3D_SIMD
  // (or the best available backend) picks it.
  const simd::PwlRowFn row_fn =
      simd::pwl_row_fn(simd::resolve_backend(simd::DasBackend::kAuto));
  transmit_legs(block_tx_raw_, [this](double q, std::size_t segment) {
    return fixed_pwl_.evaluate_raw(static_cast<std::int64_t>(q), segment);
  });
  const simd::PwlRowTable table = fixed_pwl_.row_table(pwl_);
  simd::PwlRowArgs args{.x = block_x_.data(),
                        .y = block_y_.data(),
                        .z = block_z_.data(),
                        .points = n,
                        .tx = block_tx_raw_.data()};
  for (std::size_t e = 0; e < rx_trackers_.size(); ++e) {
    PwlTracker& tracker = rx_trackers_[e];
    const Vec3& d = element_pos_samples_[e];
    args.ex = d.x;
    args.ey = d.y;
    args.ez = d.z;
    args.segment = tracker.segment();
    const simd::PwlRowResult run =
        row_fn(table, args, plane.row(static_cast<int>(e)).data());
    tracker.charge_run(n, run.segment, run.steps, run.max_step);
  }
}

TableFreeEngine::TrackerStats TableFreeEngine::tracker_stats() const {
  TrackerStats s;
  auto absorb = [&s](const PwlTracker& t) {
    s.evaluations += t.evaluations();
    s.total_steps += t.total_steps();
    s.max_steps_single_evaluation = std::max(
        s.max_steps_single_evaluation, t.max_steps_single_evaluation());
  };
  for (const PwlTracker& t : rx_trackers_) absorb(t);
  absorb(tx_tracker_);
  return s;
}

void TableFreeEngine::reset_tracker_stats() {
  for (PwlTracker& t : rx_trackers_) t.reset_statistics();
  tx_tracker_.reset_statistics();
}

}  // namespace us3d::delay
