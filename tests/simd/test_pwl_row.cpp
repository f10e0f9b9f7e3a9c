// The PWL receive-row contract (simd::PwlRowFn): every backend the host
// can run must reproduce the scalar reference bit-for-bit — the delay row
// and the returned segment / step sum / max step — and the scalar
// reference must reproduce the per-point PwlTracker walk it replaces.
// Rows are seeded so their segment windows span 0..7 segments plus wide
// spans that must take the fallback, with lengths 1..17 and 256 so every
// tail is hit; NaN positions must raise ContractViolation on every
// backend, and tables outside the vector operand bounds must still match.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/prng.h"
#include "delay/pwl_sqrt.h"
#include "delay/pwl_tracker.h"
#include "simd/dispatch.h"
#include "simd/pwl_row.h"

namespace us3d::simd {
namespace {

/// Paper-scale domain: squared receive paths up to ~(4600 samples)^2.
constexpr double kXMax = 2.2e7;

/// A PWL table and its fixed-point quantization: the row kernels read the
/// segment starts and domain of the one, the words of the other.
struct Table {
  delay::PwlSqrt pwl;
  delay::FixedPwlSqrt fixed;

  explicit Table(delay::PwlSqrt reference,
                 const delay::FixedPwlSqrt::Config& config = {})
      : pwl(std::move(reference)), fixed(pwl, config) {}
  PwlRowTable row() const { return fixed.row_table(pwl); }
};

std::size_t find_segment(const PwlRowTable& t, double q) {
  return pwl_find_segment(t.boundary, t.count, q);
}

struct Row {
  std::vector<double> x, y, z;
  std::vector<std::int64_t> tx;
  double ex = 0.0, ey = 0.0, ez = 0.0;
  std::size_t segment = 0;

  PwlRowArgs args() const {
    return PwlRowArgs{.x = x.data(),
                      .y = y.data(),
                      .z = z.data(),
                      .points = static_cast<int>(x.size()),
                      .ex = ex,
                      .ey = ey,
                      .ez = ez,
                      .tx = tx.data(),
                      .segment = segment};
  }
};

/// A row of `points` focal points around a random element whose q values
/// fall in segments [lo, lo + span] (up to rounding at the boundaries),
/// with the first and last points pinned to the window's ends.
Row make_row_at(SplitMix64& rng, const Table& table, std::size_t lo,
                std::size_t span, int points) {
  const PwlRowTable t = table.row();
  const std::size_t next = lo + span + 1;
  const double q_lo = t.boundary[lo];
  const double q_hi = next < t.count ? t.boundary[next] : t.x_max;
  Row row;
  row.ex = rng.next_in(-300.0, 300.0);
  row.ey = rng.next_in(-300.0, 300.0);
  row.ez = rng.next_in(-5.0, 5.0);
  row.segment = rng.next_below(t.count);
  for (int p = 0; p < points; ++p) {
    double q = rng.next_in(q_lo, q_hi);
    if (p == 0) q = q_lo + 0.25 * (q_hi - q_lo) / (span + 1.0);
    if (p == points - 1 && p > 0) {
      q = q_hi - 0.25 * (q_hi - q_lo) / (span + 1.0);
    }
    // A random direction at distance sqrt(q) from the element.
    const double theta = rng.next_in(0.0, 3.14159);
    const double phi = rng.next_in(0.0, 6.28318);
    const double r = std::sqrt(q);
    row.x.push_back(row.ex + r * std::sin(theta) * std::cos(phi));
    row.y.push_back(row.ey + r * std::sin(theta) * std::sin(phi));
    row.z.push_back(row.ez + r * std::cos(theta));
    const auto x = static_cast<std::int64_t>(rng.next_in(1.0, t.x_max));
    row.tx.push_back(table.fixed.evaluate_raw(x, find_segment(t, x)));
  }
  return row;
}

/// make_row_at with the window placed at random.
Row make_row(SplitMix64& rng, const Table& table, std::size_t span,
             int points) {
  const std::size_t lo = rng.next_below(table.row().count - span);
  return make_row_at(rng, table, lo, span, points);
}

/// How many segments past the first the q values of the row's points
/// [begin, end) span.
std::size_t measured_span(const PwlRowTable& t, const Row& row,
                          std::size_t begin, std::size_t end) {
  double q_min = t.x_max, q_max = t.x_min;
  for (std::size_t p = begin; p < end; ++p) {
    const double dx = row.x[p] - row.ex;
    const double dy = row.y[p] - row.ey;
    const double dz = row.z[p] - row.ez;
    const double q =
        std::clamp((dx * dx + dy * dy) + dz * dz, t.x_min, t.x_max);
    q_min = std::min(q_min, q);
    q_max = std::max(q_max, q);
  }
  return find_segment(t, q_max) - find_segment(t, q_min);
}

/// Points a backend's vector body handles on a row it accepts, and the
/// widest window span it accepts (0 lanes: no vector body).
struct VectorShape {
  int lanes = 0;
  std::size_t max_span = 0;
};
VectorShape vector_shape(DasBackend b) {
  if (b == DasBackend::kAVX2) return {4, 3};
  if (b == DasBackend::kAVX512) return {8, 7};
  return {};
}

void expect_same(const PwlRowResult& got, const std::vector<std::int32_t>& row,
                 const PwlRowResult& want,
                 const std::vector<std::int32_t>& want_row,
                 const std::string& label) {
  EXPECT_EQ(got.segment, want.segment) << label;
  EXPECT_EQ(got.steps, want.steps) << label;
  EXPECT_EQ(got.max_step, want.max_step) << label;
  ASSERT_EQ(row.size(), want_row.size());
  for (std::size_t p = 0; p < row.size(); ++p) {
    ASSERT_EQ(row[p], want_row[p]) << label << " point " << p;
  }
}

/// Runs every available backend on `row` against the scalar reference,
/// and checks which points each vector body took.
void check_backends(const Table& table, const Row& row,
                    const std::string& label) {
  const PwlRowTable t = table.row();
  const PwlRowArgs a = row.args();
  std::vector<std::int32_t> want_row(row.x.size());
  const PwlRowResult want = pwl_row_scalar(t, a, want_row.data());
  EXPECT_EQ(want.vector_points, 0);
  for (const DasBackend b : available_backends()) {
    const std::string where = label + " backend " + backend_name(b);
    std::vector<std::int32_t> got_row(row.x.size(), -1);
    const PwlRowResult got = pwl_row_fn(b)(t, a, got_row.data());
    expect_same(got, got_row, want, want_row, where);
    // The vector body takes every whole-lane chunk whose segments fit
    // its window; the scalar reference takes the rest.
    const VectorShape shape = vector_shape(b);
    int vector_points = 0;
    for (int c = 0; t.vector_bounded && c + shape.lanes <= a.points &&
                    shape.lanes > 0;
         c += shape.lanes) {
      const auto begin = static_cast<std::size_t>(c);
      if (measured_span(t, row, begin, begin + shape.lanes) <=
          shape.max_span) {
        vector_points += shape.lanes;
      }
    }
    EXPECT_EQ(got.vector_points, vector_points) << where;
  }
}

delay::PwlSqrt paper_pwl() { return delay::PwlSqrt::build(1.0, kXMax, 0.25); }

TEST(PwlRow, ScalarReferenceMatchesTheTrackerWalk) {
  // The reference is what the per-point path computes: PwlTracker::advance
  // then FixedPwlSqrt::evaluate_raw, summed with the transmit word.
  const Table table(paper_pwl());
  const PwlRowTable t = table.row();
  SplitMix64 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(40));
    const Row row = make_row(rng, table, rng.next_below(12), n);
    delay::PwlTracker tracker(table.pwl);
    tracker.seek(t.boundary[row.segment]);
    ASSERT_EQ(tracker.segment(), row.segment);
    std::vector<std::int32_t> got(row.x.size());
    const PwlRowResult r = pwl_row_scalar(t, row.args(), got.data());
    for (std::size_t p = 0; p < row.x.size(); ++p) {
      const double dx = row.x[p] - row.ex;
      const double dy = row.y[p] - row.ey;
      const double dz = row.z[p] - row.ez;
      const double q = std::clamp((dx * dx + dy * dy) + dz * dz,
                                  table.pwl.x_min(), table.pwl.x_max());
      tracker.advance(q);
      const std::int64_t rx = table.fixed.evaluate_raw(
          static_cast<std::int64_t>(q), tracker.segment());
      const std::int64_t delay =
          fx::shift_right_half_up(row.tx[p] + rx, t.result_frac_bits);
      ASSERT_EQ(got[p], static_cast<std::int32_t>(delay))
          << "trial " << trial << " point " << p;
    }
    EXPECT_EQ(r.segment, tracker.segment());
    EXPECT_EQ(r.steps, tracker.total_steps());
    EXPECT_EQ(r.max_step, tracker.max_steps_single_evaluation());
  }
}

TEST(PwlRow, EveryBackendMatchesScalarAcrossSpansAndTails) {
  const Table table(paper_pwl());
  ASSERT_TRUE(table.row().vector_bounded);
  SplitMix64 rng(2026);
  std::vector<int> lengths;
  for (int n = 1; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(256);
  std::set<std::size_t> spans_seen;
  for (std::size_t span = 0; span <= 9; ++span) {
    for (const int n : lengths) {
      for (int rep = 0; rep < 3; ++rep) {
        const Row row = make_row(rng, table, span, n);
        if (n >= 8) spans_seen.insert(measured_span(table.row(), row, 0, 8));
        check_backends(table, row,
                       "span " + std::to_string(span) + " n " +
                           std::to_string(n) + " rep " + std::to_string(rep));
      }
    }
  }
  // Every window span a register holds, and wider ones that fall back.
  for (std::size_t span = 0; span <= 9; ++span) {
    EXPECT_TRUE(spans_seen.count(span)) << "span " << span << " not covered";
  }
}

TEST(PwlRow, WideRowsVectorizeChunkByChunk) {
  // A row sweeping most of the domain: far more segments than any window.
  // Chunks at the top of the domain (wide segments) still fit a window;
  // the narrow segments at its bottom make some chunks too wide for one.
  const Table table(paper_pwl());
  SplitMix64 rng(5);
  Row row = make_row(rng, table, 0, 256);
  for (std::size_t p = 0; p < row.x.size(); ++p) {
    row.x[p] = row.ex + std::sqrt(kXMax) * static_cast<double>(p) / 256.0;
    row.y[p] = row.ey;
    row.z[p] = row.ez;
  }
  ASSERT_GT(measured_span(table.row(), row, 0, 256), 8u);
  check_backends(table, row, "wide");
}

TEST(PwlRow, ScanlineRowsVectorizeMostChunks) {
  // Scanline order: a block holds several whole scanlines, each a depth
  // sweep from the probe to the bottom of the volume, so every row jumps
  // back across the table at each scanline start. Focal points 16
  // samples apart in depth (4x the paper's lambda/2) keep most chunks
  // within a window.
  const Table table(paper_pwl());
  SplitMix64 rng(9);
  Row row = make_row(rng, table, 0, 0);
  row.segment = 0;
  const int lines = 5;
  const int depths = 250;
  for (int line = 0; line < lines; ++line) {
    const double dir_x = rng.next_in(-0.3, 0.3);
    const double dir_y = rng.next_in(-0.3, 0.3);
    for (int d = 0; d < depths; ++d) {
      const double r = 200.0 + 16.0 * d;
      row.x.push_back(r * dir_x);
      row.y.push_back(r * dir_y);
      row.z.push_back(r);
      row.tx.push_back(row.tx.empty() ? 0 : row.tx.back() + 17);
    }
  }
  ASSERT_GT(measured_span(table.row(), row, 0, row.x.size()), 40u);
  check_backends(table, row, "scanline");
  // A vector body takes more than half of such a row.
  for (const DasBackend b : available_backends()) {
    if (vector_shape(b).lanes == 0) continue;
    std::vector<std::int32_t> out(row.x.size());
    const PwlRowResult r = pwl_row_fn(b)(table.row(), row.args(), out.data());
    EXPECT_GT(2 * r.vector_points, static_cast<int>(row.x.size()))
        << backend_name(b);
  }
}

TEST(PwlRow, TablesOutsideTheVectorBoundsMatchOnTheScalarPath) {
  // A coarse slope LUT below the result grid makes the product a left
  // shift, which the vector operand bounds exclude.
  const delay::FixedPwlSqrt::Config coarse{.slope_format = {1, 4, false},
                                           .value_format = {13, 8, false},
                                           .result_format = {13, 6, false}};
  const Table table(paper_pwl(), coarse);
  ASSERT_FALSE(table.row().vector_bounded);
  SplitMix64 rng(11);
  for (const int n : {7, 64, 256}) {
    check_backends(table, make_row(rng, table, 2, n),
                   "coarse n " + std::to_string(n));
  }
  // So does a domain whose squared distances no longer fit an int32 lane.
  const Table wide(delay::PwlSqrt::build(1.0, 3.0e9, 0.25),
                   {.value_format = {17, 8, false},
                    .result_format = {17, 6, false}});
  ASSERT_FALSE(wide.row().vector_bounded);
  check_backends(wide, make_row(rng, wide, 1, 64), "wide domain");
  // And one whose segment anchors all fit an int32 lane but whose last
  // segment reaches past 2^31: the domain half of the bounds.
  const double lane = std::ldexp(1.0, 31);
  const Table top(delay::PwlSqrt::build(1.0, lane + 1.0e6, 0.25),
                  {.value_format = {17, 8, false},
                   .result_format = {17, 6, false}});
  const PwlRowTable t = top.row();
  ASSERT_LT(t.boundary[t.count - 1], lane);
  ASSERT_FALSE(t.vector_bounded);
  check_backends(top, make_row_at(rng, top, t.count - 1, 0, 64),
                 "past 2^31");
}

TEST(PwlRow, ASegmentStartsAtItsBoundary) {
  // q on a boundary belongs to the segment that starts there (the
  // tracker's ">=" comparator): the binary search, the walk from either
  // end, and PwlTracker agree, and one ulp below is the previous segment.
  const delay::PwlSqrt pwl = paper_pwl();
  const std::vector<double>& starts = pwl.starts();
  const std::size_t n = starts.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double q = starts[i];
    EXPECT_EQ(pwl_find_segment(starts.data(), n, q), i);
    EXPECT_EQ(pwl_walk_segment(starts.data(), n, 0, q), i);
    EXPECT_EQ(pwl_walk_segment(starts.data(), n, n - 1, q), i);
    delay::PwlTracker tracker(pwl);
    tracker.advance(q);
    EXPECT_EQ(tracker.segment(), i);
    if (i > 0) {
      const double below = std::nextafter(q, 0.0);
      EXPECT_EQ(pwl_find_segment(starts.data(), n, below), i - 1);
      EXPECT_EQ(pwl_walk_segment(starts.data(), n, n - 1, below), i - 1);
    }
  }
}

TEST(PwlRow, NaNRaisesOnEveryBackend) {
  const Table table(paper_pwl());
  const PwlRowTable t = table.row();
  SplitMix64 rng(3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const int n : {5, 64, 256}) {
    for (const DasBackend b : available_backends()) {
      SCOPED_TRACE(std::string(backend_name(b)) + " n " + std::to_string(n));
      Row row = make_row(rng, table, 1, n);
      std::vector<std::int32_t> out(row.x.size());
      // A NaN element position poisons every point.
      Row bad_element = row;
      bad_element.ex = nan;
      EXPECT_THROW(pwl_row_fn(b)(t, bad_element.args(), out.data()),
                   ContractViolation);
      // One NaN focal point inside the vector part, and one in the tail.
      for (const int at : {n / 2, n - 1}) {
        Row bad_point = row;
        bad_point.y[static_cast<std::size_t>(at)] = nan;
        EXPECT_THROW(pwl_row_fn(b)(t, bad_point.args(), out.data()),
                     ContractViolation)
            << "NaN at " << at;
      }
    }
  }
}

}  // namespace
}  // namespace us3d::simd
