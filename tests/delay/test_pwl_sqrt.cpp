#include "delay/pwl_sqrt.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "common/prng.h"

namespace us3d::delay {
namespace {

TEST(PwlSqrt, EveryEvaluationWithinDelta) {
  const PwlSqrt pwl = PwlSqrt::build(16.0, 1.0e6, 0.25);
  SplitMix64 rng(1);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.next_in(16.0, 1.0e6);
    EXPECT_LE(std::abs(pwl.evaluate(x) - std::sqrt(x)), 0.25 + 1e-9)
        << "x = " << x;
  }
}

TEST(PwlSqrt, MeasuredMaxErrorMatchesDelta) {
  const PwlSqrt pwl = PwlSqrt::build(16.0, 2.0e7, 0.25);
  const double err = pwl.measured_max_error(128);
  EXPECT_LE(err, 0.25 + 1e-9);
  // The greedy construction pushes each segment to the bound, so the
  // measured maximum should be essentially delta, not far below it.
  EXPECT_GT(err, 0.24);
}

TEST(PwlSqrt, PaperSystemNeedsAbout70Segments) {
  // Sec. IV-B: "to keep the approximation error below ... +/-0.25 delay
  // samples ... we found 70 segments to be needed". The exact count
  // depends on the domain endpoints; ours lands in the 60-80 band.
  const double max_dist = 4500.0;  // samples (paper geometry, with margin)
  const PwlSqrt pwl = PwlSqrt::build(14.0, max_dist * max_dist, 0.25);
  EXPECT_GE(pwl.segment_count(), 60u);
  EXPECT_LE(pwl.segment_count(), 80u);
}

TEST(PwlSqrt, SegmentCountScalesAsInverseSqrtDelta) {
  // Equal-error PWL of a fixed curve needs ~1/sqrt(delta) segments.
  const std::size_t n1 = PwlSqrt::build(16.0, 1.0e7, 0.5).segment_count();
  const std::size_t n4 = PwlSqrt::build(16.0, 1.0e7, 0.125).segment_count();
  const double ratio = static_cast<double>(n4) / static_cast<double>(n1);
  EXPECT_NEAR(ratio, 2.0, 0.3);
}

TEST(PwlSqrt, SegmentsCoverDomainInOrder) {
  const PwlSqrt pwl = PwlSqrt::build(10.0, 1.0e5, 0.25);
  const auto& segs = pwl.segments();
  EXPECT_DOUBLE_EQ(segs.front().x_start, 10.0);
  for (std::size_t i = 1; i < segs.size(); ++i) {
    EXPECT_GT(segs[i].x_start, segs[i - 1].x_start);
  }
  EXPECT_LE(segs.back().x_start, 1.0e5);
}

TEST(PwlSqrt, FindSegmentBracketsInput) {
  const PwlSqrt pwl = PwlSqrt::build(10.0, 1.0e5, 0.25);
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_in(10.0, 1.0e5);
    const std::size_t s = pwl.find_segment(x);
    EXPECT_LE(pwl.segments()[s].x_start, x);
    if (s + 1 < pwl.segment_count()) {
      EXPECT_LT(x, pwl.segments()[s + 1].x_start);
    }
  }
}

TEST(PwlSqrt, FindSegmentAtExactBoundaries) {
  const PwlSqrt pwl = PwlSqrt::build(10.0, 1.0e5, 0.25);
  EXPECT_EQ(pwl.find_segment(10.0), 0u);
  EXPECT_EQ(pwl.find_segment(1.0e5), pwl.segment_count() - 1);
  const double b = pwl.segments()[1].x_start;
  EXPECT_EQ(pwl.find_segment(b), 1u);
}

TEST(PwlSqrt, SlopesDecreaseLikeDerivative) {
  const PwlSqrt pwl = PwlSqrt::build(10.0, 1.0e5, 0.25);
  const auto& segs = pwl.segments();
  for (std::size_t i = 1; i < segs.size(); ++i) {
    EXPECT_LT(segs[i].slope, segs[i - 1].slope);
  }
}

TEST(PwlSqrt, RejectsInvalidDomains) {
  EXPECT_THROW(PwlSqrt::build(0.0, 10.0, 0.25), ContractViolation);
  EXPECT_THROW(PwlSqrt::build(10.0, 10.0, 0.25), ContractViolation);
  EXPECT_THROW(PwlSqrt::build(1.0, 10.0, 0.0), ContractViolation);
}

TEST(PwlSqrt, EvaluateRejectsOutOfDomain) {
  const PwlSqrt pwl = PwlSqrt::build(10.0, 100.0, 0.25);
  EXPECT_THROW(pwl.find_segment(9.0), ContractViolation);
  EXPECT_THROW(pwl.find_segment(101.0), ContractViolation);
}

// Parameterized property sweep over deltas: bound holds and greedy count is
// near the theoretical optimum n ~ (qmax^1/4 - qmin^1/4) / sqrt(2 delta).
class PwlDeltaSweep : public ::testing::TestWithParam<double> {};

TEST_P(PwlDeltaSweep, ErrorBoundHolds) {
  const double delta = GetParam();
  const PwlSqrt pwl = PwlSqrt::build(16.0, 4.0e6, delta);
  EXPECT_LE(pwl.measured_max_error(64), delta * (1.0 + 1e-9));
}

TEST_P(PwlDeltaSweep, SegmentCountNearTheoreticalOptimum) {
  const double delta = GetParam();
  const double x_min = 16.0, x_max = 4.0e6;
  const PwlSqrt pwl = PwlSqrt::build(x_min, x_max, delta);
  // Equal-error minimax segmentation of sqrt: segment width at x is
  // 8 sqrt(delta) x^(3/4), so n = (x_max^1/4 - x_min^1/4) / (2 sqrt(delta)).
  const double optimum = (std::pow(x_max, 0.25) - std::pow(x_min, 0.25)) /
                         (2.0 * std::sqrt(delta));
  EXPECT_GE(static_cast<double>(pwl.segment_count()), optimum * 0.9);
  EXPECT_LE(static_cast<double>(pwl.segment_count()), optimum * 1.2 + 2.0);
}

INSTANTIATE_TEST_SUITE_P(Deltas, PwlDeltaSweep,
                         ::testing::Values(1.0, 0.5, 0.25, 0.125, 0.0625));

TEST(FixedPwlSqrt, MatchesDoubleReferenceClosely) {
  const PwlSqrt pwl = PwlSqrt::build(16.0, 2.0e7, 0.25);
  const FixedPwlSqrt fixed(pwl, FixedPwlSqrt::Config{});
  SplitMix64 rng(5);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.next_in(16.0, 2.0e7);
    const auto xi = static_cast<std::int64_t>(x);
    const std::size_t seg = pwl.find_segment(static_cast<double>(xi));
    const double fixed_val = fixed.evaluate_in_segment(xi, seg).to_real();
    const double ref_val =
        pwl.evaluate_in_segment(static_cast<double>(xi), seg);
    // Quantization of c1/c0 and the result adds at most ~0.1 samples on
    // top of the PWL error for the default formats.
    EXPECT_NEAR(fixed_val, ref_val, 0.15) << "x = " << xi;
  }
}

TEST(FixedPwlSqrt, TotalErrorVsTrueSqrtStaysSmall) {
  const PwlSqrt pwl = PwlSqrt::build(16.0, 2.0e7, 0.25);
  const FixedPwlSqrt fixed(pwl, FixedPwlSqrt::Config{});
  SplitMix64 rng(6);
  double worst = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const auto xi = static_cast<std::int64_t>(rng.next_in(16.0, 2.0e7));
    const std::size_t seg = pwl.find_segment(static_cast<double>(xi));
    const double v = fixed.evaluate_in_segment(xi, seg).to_real();
    worst = std::max(worst, std::abs(v - std::sqrt(static_cast<double>(xi))));
  }
  // delta + fixed-point effects: comfortably below half a sample.
  EXPECT_LT(worst, 0.45);
}

/// evaluate_raw against the fx::Value spec on every segment: its integer
/// start, start+1, its last integer before the next segment, and seeded
/// interior points. Returns how many results hit result_format's maximum.
int expect_raw_matches_value_model(const PwlSqrt& pwl,
                                   const FixedPwlSqrt& fixed,
                                   std::uint64_t seed) {
  const auto& segs = pwl.segments();
  const std::int64_t max_raw = fixed.config().result_format.max_raw();
  SplitMix64 rng(seed);
  int saturated = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const auto first = static_cast<std::int64_t>(std::floor(segs[i].x_start));
    const auto last =
        i + 1 < segs.size()
            ? static_cast<std::int64_t>(std::ceil(segs[i + 1].x_start)) - 1
            : static_cast<std::int64_t>(pwl.x_max());
    std::vector<std::int64_t> xs{first, first + 1, last};
    for (int k = 0; k < 16; ++k) {
      xs.push_back(first + static_cast<std::int64_t>(rng.next_below(
                               static_cast<std::uint64_t>(last - first + 1))));
    }
    for (const std::int64_t x : xs) {
      const std::int64_t spec = fixed.evaluate_in_segment(x, i).raw();
      EXPECT_EQ(fixed.evaluate_raw(x, i), spec)
          << "segment " << i << " x = " << x;
      if (spec == max_raw) ++saturated;
    }
  }
  return saturated;
}

TEST(FixedPwlSqrt, RawDatapathMatchesValueModelWithDefaultFormats) {
  const PwlSqrt pwl = PwlSqrt::build(1.0, 2.0e7, 0.25);
  const FixedPwlSqrt fixed(pwl, FixedPwlSqrt::Config{});
  EXPECT_EQ(expect_raw_matches_value_model(pwl, fixed, 11), 0);
}

TEST(FixedPwlSqrt, RawDatapathMatchesValueModelWhenResultSaturates) {
  // uQ6.6 tops out below 64 samples, far under sqrt(2e7) ~ 4472: the top
  // segments saturate in the adder.
  const PwlSqrt pwl = PwlSqrt::build(1.0, 2.0e7, 0.25);
  FixedPwlSqrt::Config config;
  config.result_format = fx::Format{6, 6, false};
  const FixedPwlSqrt fixed(pwl, config);
  EXPECT_GT(expect_raw_matches_value_model(pwl, fixed, 12), 0);
}

TEST(FixedPwlSqrt, RawDatapathMatchesValueModelWithCoarseLuts) {
  // c1 and c0 coarser than the result grid: the product is shifted left
  // and c0 is aligned up, the other direction of every grid change.
  const PwlSqrt pwl = PwlSqrt::build(1.0, 2.0e7, 0.25);
  FixedPwlSqrt::Config config;
  config.slope_format = fx::Format{1, 4, false};
  config.value_format = fx::Format{13, 3, false};
  const FixedPwlSqrt fixed(pwl, config);
  expect_raw_matches_value_model(pwl, fixed, 13);
}

TEST(FixedPwlSqrt, RawDatapathKeepsItsInputChecks) {
  const PwlSqrt pwl = PwlSqrt::build(1.0, 2.0e7, 0.25);
  const FixedPwlSqrt fixed(pwl, FixedPwlSqrt::Config{});
  EXPECT_THROW(fixed.evaluate_raw(-1, 0), ContractViolation);
  EXPECT_THROW(fixed.evaluate_raw(16, fixed.segment_count()),
               ContractViolation);
  // dx beyond the 41-bit signed multiplier input.
  EXPECT_THROW(fixed.evaluate_raw(std::int64_t{1} << 41, 0),
               ContractViolation);
}

TEST(FixedPwlSqrt, LutBitsScaleWithSegments) {
  const PwlSqrt small = PwlSqrt::build(16.0, 1.0e5, 0.25);
  const PwlSqrt large = PwlSqrt::build(16.0, 2.0e7, 0.25);
  const FixedPwlSqrt fs(small, FixedPwlSqrt::Config{});
  const FixedPwlSqrt fl(large, FixedPwlSqrt::Config{});
  EXPECT_GT(fl.lut_bits(), fs.lut_bits());
  EXPECT_DOUBLE_EQ(
      fs.lut_bits(),
      static_cast<double>(fs.segment_count()) *
          (FixedPwlSqrt::Config{}.slope_format.total_bits() +
           FixedPwlSqrt::Config{}.value_format.total_bits() + 26));
}

}  // namespace
}  // namespace us3d::delay
