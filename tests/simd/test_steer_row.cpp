// The steer-row contract (simd::SteerRowFn): every backend the host can
// run must reproduce the scalar reference (steer_index, which
// delay::SteerDatapath::index calls) bit-for-bit, on seeded words and on
// every format extreme, for the paper's 18/14/13-bit design points and
// for configs whose first adder shifts left or whose words come near the
// int32 lane edge. Row lengths 1..33, 144 and 1024 hit every lane tail.
// Configs outside the int32 lane bounds — adders that round, sums that
// reach 2^31, shifts no lane can take — must leave every point to the
// scalar reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/fixed_point.h"
#include "common/prng.h"
#include "delay/tablesteer.h"
#include "simd/dispatch.h"
#include "simd/steer_row.h"

namespace us3d::simd {
namespace {

using delay::SteerDatapath;
using delay::TableSteerConfig;

struct NamedConfig {
  std::string label;
  TableSteerConfig config;
};

/// The shipped design points plus configs that exercise the rest of the
/// vector bounds: a first adder that shifts left (sum grid finer than
/// both operands) into a narrow, saturating sum, and words whose sums
/// come within a factor 1.5 of 2^31.
std::vector<NamedConfig> bounded_configs() {
  TableSteerConfig left_shift;
  left_shift.entry_format = fx::Format{6, 2, false};
  left_shift.coeff_format = fx::Format{5, 3, true};
  left_shift.sum_format = fx::Format{5, 4, true};
  TableSteerConfig wide_words;
  wide_words.entry_format = fx::Format{25, 5, false};
  wide_words.coeff_format = fx::Format{24, 5, true};
  wide_words.sum_format = fx::Format{25, 5, true};
  return {{"18b", TableSteerConfig::bits18()},
          {"14b", TableSteerConfig::bits14()},
          {"13b", TableSteerConfig::bits13()},
          {"left-shifting adder", left_shift},
          {"wide words", wide_words}};
}

/// Words of format `f`: a quarter are the format's extremes and the
/// words around zero, the rest uniform over the whole range.
std::int32_t word(SplitMix64& rng, const fx::Format& f) {
  const std::int64_t lo = f.min_raw();
  const std::int64_t hi = f.max_raw();
  if (rng.next_below(4) == 0) {
    const std::int64_t extremes[] = {lo, lo + 1, hi, hi - 1, 0, 1, -1};
    const std::int64_t w = extremes[rng.next_below(7)];
    return static_cast<std::int32_t>(w < lo ? lo : (w > hi ? hi : w));
  }
  const auto span = static_cast<std::uint64_t>(hi - lo);
  return static_cast<std::int32_t>(
      lo + static_cast<std::int64_t>(rng.next_below(span + 1)));
}

/// Lanes a backend's vector body takes per iteration (0: scalar only).
int lanes(DasBackend b) {
  if (b == DasBackend::kAVX2) return 8;
  if (b == DasBackend::kAVX512) return 16;
  return 0;
}

std::vector<int> row_lengths() {
  std::vector<int> lengths;
  for (int n = 1; n <= 33; ++n) lengths.push_back(n);
  lengths.push_back(144);
  lengths.push_back(1024);
  return lengths;
}

/// Runs every available backend on one row against the scalar reference
/// and checks how many points each vector body took.
void check_backends(const SteerRowParams& params, std::int32_t ref,
                    const std::vector<std::int32_t>& cx,
                    const std::vector<std::int32_t>& cy,
                    const std::string& label) {
  const int n = static_cast<int>(cx.size());
  std::vector<std::int32_t> want(cx.size());
  EXPECT_EQ(steer_row_scalar(params, ref, cx.data(), cy.data(), want.data(), n),
            0);
  for (int p = 0; p < n; ++p) {
    const auto i = static_cast<std::size_t>(p);
    ASSERT_EQ(want[i], steer_index(params, ref, cx[i], cy[i])) << label;
  }
  for (const DasBackend b : available_backends()) {
    const std::string where = label + " backend " + backend_name(b);
    std::vector<std::int32_t> got(cx.size(), -7);
    const int vector_points =
        steer_row_fn(b)(params, ref, cx.data(), cy.data(), got.data(), n);
    const int width = params.vector_bounded ? lanes(b) : 0;
    EXPECT_EQ(vector_points, width > 0 ? n / width * width : 0) << where;
    for (std::size_t p = 0; p < got.size(); ++p) {
      ASSERT_EQ(got[p], want[p])
          << where << " point " << p << ": ref " << ref << " cx " << cx[p]
          << " cy " << cy[p];
    }
  }
}

TEST(SteerRow, DesignPointsAndTestConfigsFitInt32Lanes) {
  for (const NamedConfig& c : bounded_configs()) {
    EXPECT_TRUE(SteerDatapath(c.config).row_params().vector_bounded)
        << c.label;
  }
}

TEST(SteerRow, EveryBackendMatchesScalarOnSeededWordsAndTails) {
  SplitMix64 rng(0x57ee7a0ull);
  for (const NamedConfig& c : bounded_configs()) {
    const TableSteerConfig& ts = c.config;
    const SteerDatapath datapath(ts);
    for (const int n : row_lengths()) {
      for (int rep = 0; rep < 4; ++rep) {
        std::vector<std::int32_t> cx(static_cast<std::size_t>(n));
        std::vector<std::int32_t> cy(cx.size());
        for (std::size_t p = 0; p < cx.size(); ++p) {
          cx[p] = word(rng, ts.coeff_format);
          cy[p] = word(rng, ts.coeff_format);
        }
        check_backends(datapath.row_params(), word(rng, ts.entry_format), cx,
                       cy,
                       c.label + " n " + std::to_string(n) + " rep " +
                           std::to_string(rep));
      }
    }
  }
}

TEST(SteerRow, EveryBackendMatchesScalarOnAMillionWordsPerConfig) {
  SplitMix64 rng(0x5eed5ull);
  for (const NamedConfig& c : bounded_configs()) {
    const TableSteerConfig& ts = c.config;
    const SteerDatapath datapath(ts);
    std::vector<std::int32_t> cx(1024);
    std::vector<std::int32_t> cy(cx.size());
    for (int rep = 0; rep < 1024; ++rep) {
      for (std::size_t p = 0; p < cx.size(); ++p) {
        cx[p] = word(rng, ts.coeff_format);
        cy[p] = word(rng, ts.coeff_format);
      }
      check_backends(datapath.row_params(), word(rng, ts.entry_format), cx, cy,
                     c.label + " bulk rep " + std::to_string(rep));
    }
  }
}

TEST(SteerRow, EveryBackendMatchesScalarOnEveryExtremeCombination) {
  // Every (ref, cx, cy) over each format's extremes and the words around
  // zero: the saturating corners of both adders, and the most negative
  // sums the final rounding and the clamp at 0 see.
  for (const NamedConfig& c : bounded_configs()) {
    const TableSteerConfig& ts = c.config;
    const SteerDatapath datapath(ts);
    const auto corners = [](const fx::Format& f) {
      std::vector<std::int32_t> w;
      for (const std::int64_t v :
           {f.min_raw(), f.min_raw() + 1, std::int64_t{-1}, std::int64_t{0},
            std::int64_t{1}, f.max_raw() - 1, f.max_raw()}) {
        if (v >= f.min_raw() && v <= f.max_raw()) {
          w.push_back(static_cast<std::int32_t>(v));
        }
      }
      return w;
    };
    const std::vector<std::int32_t> coeff = corners(ts.coeff_format);
    std::vector<std::int32_t> cx, cy;
    for (const std::int32_t x : coeff) {
      for (const std::int32_t y : coeff) {
        cx.push_back(x);
        cy.push_back(y);
      }
    }
    for (const std::int32_t ref : corners(ts.entry_format)) {
      check_backends(datapath.row_params(), ref, cx, cy,
                     c.label + " ref " + std::to_string(ref));
    }
  }
}

TEST(SteerRow, ConfigsOutsideTheInt32BoundsRunScalar) {
  // Adders that round (a sum grid coarser than the operands, so negative
  // sums round away from zero), a first adder whose aligned sum reaches
  // 2^31, and a sum grid 32 bits finer than the operands (a left shift
  // no int32 lane can take): each must run the scalar reference on every
  // backend, and still match it.
  TableSteerConfig rounding;
  rounding.entry_format = fx::Format{13, 5, false};
  rounding.coeff_format = fx::Format{13, 6, true};
  rounding.sum_format = fx::Format{14, 4, true};
  TableSteerConfig wide_sum;
  wide_sum.entry_format = fx::Format{26, 5, false};
  wide_sum.coeff_format = fx::Format{13, 4, true};
  wide_sum.sum_format = fx::Format{25, 5, true};
  TableSteerConfig fine_grid;
  fine_grid.entry_format = fx::Format{4, 2, false};
  fine_grid.coeff_format = fx::Format{4, 2, true};
  fine_grid.sum_format = fx::Format{4, 34, true};
  SplitMix64 rng(31);
  for (const TableSteerConfig& ts : {rounding, wide_sum, fine_grid}) {
    const SteerDatapath datapath(ts);
    ASSERT_FALSE(datapath.row_params().vector_bounded);
    for (const int n : {7, 64, 144}) {
      std::vector<std::int32_t> cx(static_cast<std::size_t>(n));
      std::vector<std::int32_t> cy(cx.size());
      for (std::size_t p = 0; p < cx.size(); ++p) {
        cx[p] = word(rng, ts.coeff_format);
        cy[p] = word(rng, ts.coeff_format);
      }
      check_backends(datapath.row_params(),
                     static_cast<std::int32_t>(ts.entry_format.max_raw()), cx,
                     cy, "unbounded n " + std::to_string(n));
    }
  }
}

}  // namespace
}  // namespace us3d::simd
