#include "delay/pwl_sqrt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.h"

namespace us3d::delay {

namespace {

/// The row kernels' int32 lane range (see FixedPwlSqrt::row_table).
constexpr std::int64_t kLane32 = std::int64_t{1} << 31;

/// Maximum deviation between sqrt and its chord on [a, b]. For the concave
/// sqrt, the worst point x* satisfies f'(x*) = chord slope, i.e.
/// x* = 1 / (4 s^2), and the deviation is f(x*) - chord(x*).
double chord_deviation(double a, double b) {
  if (b <= a) return 0.0;
  const double s = (std::sqrt(b) - std::sqrt(a)) / (b - a);
  const double x_star = 1.0 / (4.0 * s * s);
  const double chord_at_star = std::sqrt(a) + s * (x_star - a);
  return std::sqrt(x_star) - chord_at_star;
}

}  // namespace

PwlSqrt::PwlSqrt(std::vector<PwlSegment> segments, double x_min, double x_max,
                 double delta)
    : segments_(std::move(segments)), x_min_(x_min), x_max_(x_max),
      delta_(delta) {
  starts_.reserve(segments_.size());
  for (const PwlSegment& seg : segments_) starts_.push_back(seg.x_start);
}

PwlSqrt PwlSqrt::build(double x_min, double x_max, double delta) {
  US3D_EXPECTS(x_min > 0.0);
  US3D_EXPECTS(x_max > x_min);
  US3D_EXPECTS(delta > 0.0);

  std::vector<PwlSegment> segments;
  double a = x_min;
  while (a < x_max) {
    // Find the largest b in (a, x_max] whose minimax error (half the chord
    // deviation) stays within delta. Exponential probe, then bisection.
    double lo = a;
    double hi = x_max;
    if (chord_deviation(a, x_max) / 2.0 > delta) {
      double probe = a + 1.0;
      while (probe < x_max && chord_deviation(a, probe) / 2.0 <= delta) {
        lo = probe;
        probe = a + (probe - a) * 2.0;
      }
      hi = std::min(probe, x_max);
      for (int i = 0; i < 80 && hi - lo > 1e-9 * hi; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (chord_deviation(a, mid) / 2.0 <= delta) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
    } else {
      lo = x_max;
    }
    const double b = lo;
    US3D_ENSURES(b > a);
    const double s = (std::sqrt(b) - std::sqrt(a)) / (b - a);
    const double half_dev = chord_deviation(a, b) / 2.0;
    // Minimax fit: chord raised by half the deviation.
    segments.push_back(PwlSegment{a, s, std::sqrt(a) + half_dev});
    a = b;
  }
  US3D_ENSURES(!segments.empty());
  return PwlSqrt(std::move(segments), x_min, x_max, delta);
}

std::size_t PwlSqrt::find_segment(double x) const {
  US3D_EXPECTS(x >= x_min_ && x <= x_max_);
  return simd::pwl_find_segment(starts_.data(), starts_.size(), x);
}

double PwlSqrt::evaluate_in_segment(double x, std::size_t segment) const {
  US3D_EXPECTS(segment < segments_.size());
  const PwlSegment& seg = segments_[segment];
  return seg.value + seg.slope * (x - seg.x_start);
}

double PwlSqrt::evaluate(double x) const {
  return evaluate_in_segment(x, find_segment(x));
}

double PwlSqrt::measured_max_error(std::size_t samples_per_segment) const {
  US3D_EXPECTS(samples_per_segment >= 2);
  double worst = 0.0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const double a = segments_[i].x_start;
    const double b =
        i + 1 < segments_.size() ? segments_[i + 1].x_start : x_max_;
    for (std::size_t k = 0; k <= samples_per_segment; ++k) {
      const double x = a + (b - a) * static_cast<double>(k) /
                               static_cast<double>(samples_per_segment);
      worst = std::max(worst,
                       std::abs(evaluate_in_segment(x, i) - std::sqrt(x)));
    }
  }
  return worst;
}

FixedPwlSqrt::FixedPwlSqrt(const PwlSqrt& reference, const Config& config)
    : config_(config) {
  const int rf = config.result_format.fraction_bits;
  const int vf = config.value_format.fraction_bits;
  const int value_align = std::max(0, rf - vf);
  // The raw datapath's grid changes and clamp limits depend only on the
  // formats, so their range checks run here once (min_raw/max_raw check
  // the word widths) instead of inside every evaluation.
  product_shift_ = config.slope_format.fraction_bits - rf;
  sum_shift_ = std::max(0, vf - rf);
  US3D_EXPECTS(product_shift_ > -63 && product_shift_ < 63);
  US3D_EXPECTS(sum_shift_ < 63 && value_align < 63);
  product_lo_ = product_format().min_raw();
  product_hi_ = product_format().max_raw();
  result_lo_ = config.result_format.min_raw();
  result_hi_ = config.result_format.max_raw();

  const auto& segs = reference.segments();
  slopes_.reserve(segs.size());
  values_.reserve(segs.size());
  for (const PwlSegment& seg : segs) {
    const fx::Value slope =
        fx::Value::from_real(seg.slope, config.slope_format);
    const fx::Value value =
        fx::Value::from_real(seg.value, config.value_format);
    slopes_.push_back(slope);
    values_.push_back(value);
    // Hardware anchors each segment at an integer boundary (the squared
    // distances it sees are integers).
    x_start_.push_back(static_cast<std::int64_t>(std::floor(seg.x_start)));
    slope_raw_.push_back(slope.raw());
    value_raw_.push_back(value.raw() << value_align);
  }

  // The word half of the row kernels' operand bounds
  // (simd::PwlRowTable::vector_bounded): with non-negative anchors below
  // 2^31 and q < 2^31 (the domain half, row_table()), int64(q) and dx fit
  // int32 lanes; c1 in [0, 2^31) makes c1*dx a 32x32->64 multiply; with
  // c0 >= 0 and a right-shifting product every word is non-negative, so
  // logical shifts round half-up.
  static_assert(kDxMax >= kLane32 - 1, "dx in [0, 2^31) needs no check");
  constexpr std::int64_t kWordMax = std::numeric_limits<std::int64_t>::max();
  auto all_in = [](const std::vector<std::int64_t>& words, std::int64_t lo,
                   std::int64_t hi) {
    return std::all_of(words.begin(), words.end(), [&](std::int64_t w) {
      return w >= lo && w <= hi;
    });
  };
  words_bounded_ = product_shift_ >= 0 && all_in(x_start_, 0, kLane32 - 1) &&
                   all_in(slope_raw_, 0, kLane32 - 1) &&
                   all_in(value_raw_, 0, kWordMax);
}

simd::PwlRowTable FixedPwlSqrt::row_table(const PwlSqrt& reference) const {
  US3D_EXPECTS(reference.segment_count() == x_start_.size());
  simd::PwlRowTable t = raw_table();
  t.boundary = reference.starts().data();
  t.x_min = reference.x_min();
  t.x_max = reference.x_max();
  t.vector_bounded =
      words_bounded_ && reference.x_max() < static_cast<double>(kLane32);
  return t;
}

double FixedPwlSqrt::lut_bits() const {
  // x_start boundaries are stored at the input width (26 bits covers the
  // squared-distance range of the paper system).
  constexpr int kBoundaryBits = 26;
  return static_cast<double>(segment_count()) *
         (config_.slope_format.total_bits() + config_.value_format.total_bits() +
          kBoundaryBits);
}

fx::Value FixedPwlSqrt::evaluate_in_segment(std::int64_t x,
                                            std::size_t segment) const {
  US3D_EXPECTS(segment < slopes_.size());
  US3D_EXPECTS(x >= 0);
  const std::int64_t dx = x - x_start_[segment];
  // One multiplier: c1 * dx, then one adder: + c0 (Fig. 2a). dx fits the
  // multiplier input: segments are widest at the top of the domain
  // (~2^21 sample^2 for the paper system).
  const fx::Value prod =
      fx::mul(slopes_[segment], fx::Value::from_raw(dx, kDxFormat),
              product_format());
  return fx::add(prod, values_[segment], config_.result_format);
}

}  // namespace us3d::delay
