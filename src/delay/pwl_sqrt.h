// Piecewise-linear approximation of sqrt(x), Figure 2 of the paper.
//
// TABLEFREE evaluates the receive distance sqrt(dx^2+dy^2+dz^2) (in units
// of echo samples) with a segmented linear approximation whose maximum
// error is bounded by a chosen delta (0.25 samples in the paper, needing
// 70 segments). Each segment stores a slope c1 and an anchor value c0 so
// hardware evaluates c1*(x - x_start) + c0 with one multiplier and one
// adder; the minimax offset is folded into c0.
#ifndef US3D_DELAY_PWL_SQRT_H
#define US3D_DELAY_PWL_SQRT_H

#include <cstddef>
#include <vector>

#include "common/contracts.h"
#include "common/fixed_point.h"
#include "simd/dispatch.h"
#include "simd/pwl_row.h"

namespace us3d::delay {

struct PwlSegment {
  double x_start = 0.0;  ///< segment domain is [x_start, next.x_start)
  double slope = 0.0;    ///< c1: chord slope over the segment
  double value = 0.0;    ///< c0: minimax-adjusted value at x_start
};

/// Double-precision segmented sqrt with per-segment minimax fit.
class PwlSqrt {
 public:
  /// Builds a segmentation of [x_min, x_max] such that the approximation
  /// error of each segment is at most `delta` (same units as sqrt(x)).
  /// Greedy construction: each segment is extended as far as the bound
  /// allows, which is within one segment of optimal for a concave function.
  static PwlSqrt build(double x_min, double x_max, double delta);

  std::size_t segment_count() const { return segments_.size(); }
  const std::vector<PwlSegment>& segments() const { return segments_; }
  /// The segment starts as one contiguous array (segments()[i].x_start):
  /// what the tracker's comparators and the receive-row kernels scan.
  const std::vector<double>& starts() const { return starts_; }
  double x_min() const { return x_min_; }
  double x_max() const { return x_max_; }
  double delta() const { return delta_; }

  /// Index of the segment containing x (binary search).
  std::size_t find_segment(double x) const;

  /// Approximate sqrt(x) using the given segment (no search).
  double evaluate_in_segment(double x, std::size_t segment) const;

  /// Approximate sqrt(x) with a fresh segment search.
  double evaluate(double x) const;

  /// Largest |approx - sqrt| found by dense sampling (for verification).
  double measured_max_error(std::size_t samples_per_segment = 64) const;

 private:
  PwlSqrt(std::vector<PwlSegment> segments, double x_min, double x_max,
          double delta);
  std::vector<PwlSegment> segments_;
  std::vector<double> starts_;
  double x_min_ = 0.0;
  double x_max_ = 0.0;
  double delta_ = 0.0;
};

/// Fixed-point quantization of a PwlSqrt: c1/c0 are stored in LUT formats
/// and evaluation happens on raw integer words, modelling the hardware
/// datapath (one multiplier, one adder, Fig. 2a).
class FixedPwlSqrt {
 public:
  struct Config {
    fx::Format slope_format{1, 22, false};   ///< c1 LUT entries
    fx::Format value_format{13, 8, false};   ///< c0 LUT entries
    fx::Format result_format{13, 6, false};  ///< per-path delay, samples
  };

  FixedPwlSqrt(const PwlSqrt& reference, const Config& config);

  const Config& config() const { return config_; }
  std::size_t segment_count() const { return slopes_.size(); }

  /// Total LUT storage in bits (c1 table + c0 table + x_start table).
  double lut_bits() const;

  /// Evaluates with integer arithmetic. `x` must be a non-negative integer
  /// (squared distances in sample^2 units are integers in hardware).
  /// `segment` comes from a PwlTracker or find_segment on the reference.
  /// This is the readable fx::Value spec of the datapath.
  fx::Value evaluate_in_segment(std::int64_t x, std::size_t segment) const;

  /// The same datapath on raw words, with every shift and clamp limit
  /// derived at construction: returns exactly
  /// evaluate_in_segment(x, segment).raw(), in result_format.
  std::int64_t evaluate_raw(std::int64_t x, std::size_t segment) const {
    return simd::pwl_evaluate_raw(raw_table(), x, segment);
  }

  /// The raw datapath as the TABLEFREE receive-row kernels read it: this
  /// object's segment words and construction-time shifts, limits and
  /// operand bounds, plus the segment starts and q domain of `reference`
  /// (the table this one quantizes). A view, valid while both live
  /// (simd/dispatch.h).
  simd::PwlRowTable row_table(const PwlSqrt& reference) const;

 private:
  /// Multiplier input: dx = x - x_start as a signed integer word.
  static constexpr fx::Format kDxFormat{40, 0, true};
  static constexpr std::int64_t kDxMax =
      (std::int64_t{1} << kDxFormat.integer_bits) - 1;

  /// Multiplier output format: c1 * dx rounded onto the result grid.
  fx::Format product_format() const {
    return fx::Format{20, config_.result_format.fraction_bits, true};
  }

  /// row_table() without the segment starts and domain: all that
  /// evaluate_raw reads.
  simd::PwlRowTable raw_table() const {
    return simd::PwlRowTable{.x_start = x_start_.data(),
                             .slope = slope_raw_.data(),
                             .value = value_raw_.data(),
                             .count = x_start_.size(),
                             .dx_max = kDxMax,
                             .product_shift = product_shift_,
                             .sum_shift = sum_shift_,
                             .result_frac_bits =
                                 config_.result_format.fraction_bits,
                             .product_lo = product_lo_,
                             .product_hi = product_hi_,
                             .result_lo = result_lo_,
                             .result_hi = result_hi_};
  }

  Config config_;
  std::vector<fx::Value> slopes_;
  std::vector<fx::Value> values_;
  // Per-segment words of the raw datapath, SoA for the row kernels.
  std::vector<std::int64_t> x_start_;  // integer segment anchors
  std::vector<std::int64_t> slope_raw_;  // c1 raw words (slope_format)
  std::vector<std::int64_t> value_raw_;  // c0 raw words on the adder grid
  int product_shift_ = 0;  // c1*dx grid -> product grid (< 0: left shift)
  int sum_shift_ = 0;      // adder grid -> result grid
  std::int64_t product_lo_ = 0;
  std::int64_t product_hi_ = 0;
  std::int64_t result_lo_ = 0;
  std::int64_t result_hi_ = 0;
  // The word half of simd::PwlRowTable::vector_bounded (row_table() adds
  // the domain's).
  bool words_bounded_ = false;
};

}  // namespace us3d::delay

#endif  // US3D_DELAY_PWL_SQRT_H
