#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.h"
#include "common/prng.h"

namespace us3d {
namespace {

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MatchesDirectComputationOnRandomData) {
  SplitMix64 rng(42);
  RunningStats s;
  double sum = 0.0, sum_sq = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_in(-5.0, 11.0);
    s.add(v);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), sum_sq / n - mean * mean, 1e-9);
}

TEST(AbsErrorStats, TracksAbsoluteError) {
  AbsErrorStats e(1.0);
  e.add(-2.0);
  e.add(0.5);
  e.add(1.0);  // exactly at threshold: not exceeding
  EXPECT_EQ(e.count(), 3u);
  EXPECT_DOUBLE_EQ(e.max_abs(), 2.0);
  EXPECT_NEAR(e.mean_abs(), 3.5 / 3.0, 1e-12);
  EXPECT_EQ(e.count_exceeding(), 1u);
  EXPECT_NEAR(e.fraction_exceeding(), 1.0 / 3.0, 1e-12);
}

TEST(AbsErrorStats, RmsOfConstantIsConstant) {
  AbsErrorStats e;
  for (int i = 0; i < 10; ++i) e.add(i % 2 == 0 ? 3.0 : -3.0);
  EXPECT_DOUBLE_EQ(e.rms(), 3.0);
}

TEST(SampleQuantiles, EmptyIsZero) {
  const SampleQuantiles q;
  EXPECT_EQ(q.count(), 0u);
  EXPECT_EQ(q.quantile(0.5), 0.0);
  EXPECT_EQ(q.p99(), 0.0);
}

TEST(SampleQuantiles, KnownPercentilesWithInterpolation) {
  SampleQuantiles q;
  // Insert shuffled so the lazy sort actually has work to do.
  for (const double v : {5.0, 1.0, 4.0, 2.0, 3.0}) q.add(v);
  EXPECT_EQ(q.count(), 5u);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(q.p50(), 3.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.125), 1.5);  // between samples: interpolated
}

TEST(SampleQuantiles, SingleSampleIsEveryQuantile) {
  SampleQuantiles q;
  q.add(7.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(q.p50(), 7.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 7.0);
}

TEST(SampleQuantiles, MergeMatchesFlatInsertionAndReadsStayCoherent) {
  SplitMix64 rng(7);
  SampleQuantiles flat, a, b;
  for (int i = 0; i < 200; ++i) {
    const double v = rng.next_in(0.0, 100.0);
    flat.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  EXPECT_DOUBLE_EQ(a.p90(), a.p90());  // read before merge is fine
  a.merge(b);
  EXPECT_EQ(a.count(), flat.count());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), flat.quantile(q)) << q;
  }
  // Adding after a read re-sorts lazily.
  a.add(-1.0);
  EXPECT_DOUBLE_EQ(a.quantile(0.0), -1.0);
}

TEST(SampleQuantiles, RejectsOutOfRangeQuantile) {
  SampleQuantiles q;
  q.add(1.0);
  EXPECT_THROW(q.quantile(-0.1), ContractViolation);
  EXPECT_THROW(q.quantile(1.1), ContractViolation);
}

}  // namespace
}  // namespace us3d
