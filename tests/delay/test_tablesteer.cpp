#include "delay/tablesteer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "delay/table_sizing.h"
#include "common/contracts.h"
#include "common/prng.h"
#include "delay/exact.h"
#include "delay/steering.h"
#include "imaging/scan_order.h"
#include "probe/transducer.h"

namespace us3d::delay {
namespace {

imaging::SystemConfig small_cfg() { return imaging::scaled_system(8, 12, 60); }

TEST(TableSteerConfig, NamedDesignPoints) {
  EXPECT_EQ(TableSteerConfig::bits18().entry_format, fx::kRefDelay18);
  EXPECT_EQ(TableSteerConfig::bits18().coeff_format, fx::kCorrection18);
  EXPECT_EQ(TableSteerConfig::bits14().entry_format, fx::kRefDelay14);
  EXPECT_EQ(TableSteerConfig::bits13().entry_format.total_bits(), 13);
  EXPECT_EQ(TableSteerConfig::bits18().name_suffix(), "-18b");
  EXPECT_EQ(TableSteerConfig::bits14().name_suffix(), "-14b");
}

TEST(TableSteerEngine, NameIncludesWidth) {
  TableSteerEngine engine(small_cfg());
  EXPECT_EQ(engine.name(), "TABLESTEER-18b");
  TableSteerEngine engine14(small_cfg(), TableSteerConfig::bits14());
  EXPECT_EQ(engine14.name(), "TABLESTEER-14b");
}

TEST(TableSteerEngine, MatchesDoubleSteeringFormulaWithinFixedPoint) {
  // The engine's integer output must be the fixed-point image of the
  // double-precision Eq. 7 evaluation: |difference| <= 1 sample (the
  // paper's bound on fixed-point effects: "in all cases ... +/-1 sample").
  const auto cfg = small_cfg();
  TableSteerEngine engine(cfg);
  engine.begin_frame(Vec3{});
  const probe::MatrixProbe probe(cfg.probe);
  const imaging::VolumeGrid grid(cfg.volume);
  std::vector<std::int32_t> out(64);
  imaging::for_each_focal_point(
      grid, imaging::ScanOrder::kNappeByNappe,
      [&](const imaging::FocalPoint& fp) {
        engine.compute(fp, out);
        for (int e = 0; e < 64; ++e) {
          const double formula = steered_delay_samples(
              cfg, fp, probe.element_position(e));
          const auto ideal =
              fx::round_real_to_int(formula, fx::Rounding::kHalfUp);
          EXPECT_LE(std::abs(out[static_cast<std::size_t>(e)] - ideal), 1)
              << "point (" << fp.i_theta << "," << fp.i_phi << ","
              << fp.i_depth << ") element " << e;
        }
      });
}

TEST(TableSteerEngine, ExactOnUnsteeredCentreLineAtDepth) {
  // Where theta ~ 0, phi ~ 0 and the point is deep, TABLESTEER equals the
  // exact delay to within fixed-point rounding.
  auto cfg = imaging::scaled_system(8, 13, 60);  // odd line count: true 0
  TableSteerEngine engine(cfg);
  ExactDelayEngine exact(cfg);
  engine.begin_frame(Vec3{});
  exact.begin_frame(Vec3{});
  const imaging::VolumeGrid grid(cfg.volume);
  const int centre = 6;  // theta = phi = 0 for 13 lines
  std::vector<std::int32_t> a(64), b(64);
  const auto fp = grid.focal_point(centre, centre, 59);
  engine.compute(fp, a);
  exact.compute(fp, b);
  for (std::size_t e = 0; e < 64; ++e) {
    EXPECT_LE(std::abs(a[e] - b[e]), 1);
  }
}

TEST(TableSteerEngine, FourteenBitIsCoarserThanEighteen) {
  const auto cfg = small_cfg();
  TableSteerEngine e18(cfg, TableSteerConfig::bits18());
  TableSteerEngine e14(cfg, TableSteerConfig::bits14());
  ExactDelayEngine exact(cfg);
  e18.begin_frame(Vec3{});
  e14.begin_frame(Vec3{});
  exact.begin_frame(Vec3{});
  const imaging::VolumeGrid grid(cfg.volume);
  std::vector<std::int32_t> a(64), b(64), c(64);
  double err18 = 0.0, err14 = 0.0;
  std::int64_t n = 0;
  imaging::for_each_focal_point(
      grid, imaging::ScanOrder::kNappeByNappe,
      [&](const imaging::FocalPoint& fp) {
        e18.compute(fp, a);
        e14.compute(fp, b);
        exact.compute(fp, c);
        for (std::size_t e = 0; e < 64; ++e) {
          err18 += std::abs(a[e] - c[e]);
          err14 += std::abs(b[e] - c[e]);
          ++n;
        }
      });
  // Table II: avg inaccuracy 1.44 (18b) vs 1.55 (14b): 14b is worse.
  EXPECT_LE(err18, err14);
}

TEST(TableSteerEngine, DelaysAreNonNegative) {
  const auto cfg = small_cfg();
  TableSteerEngine engine(cfg);
  engine.begin_frame(Vec3{});
  const imaging::VolumeGrid grid(cfg.volume);
  std::vector<std::int32_t> out(64);
  imaging::for_each_focal_point(
      grid, imaging::ScanOrder::kNappeByNappe,
      [&](const imaging::FocalPoint& fp) {
        engine.compute(fp, out);
        for (const auto v : out) EXPECT_GE(v, 0);
      });
}

TEST(TableSteerEngine, RejectsDisplacedOrigin) {
  TableSteerEngine engine(small_cfg());
  EXPECT_THROW(engine.begin_frame(Vec3{1.0e-3, 0.0, 0.0}),
               ContractViolation);
  EXPECT_NO_THROW(engine.begin_frame(Vec3{}));
}

TEST(TableSteerEngine, RejectsWrongSpan) {
  TableSteerEngine engine(small_cfg());
  engine.begin_frame(Vec3{});
  const imaging::VolumeGrid grid(small_cfg().volume);
  std::vector<std::int32_t> wrong(10);
  EXPECT_THROW(engine.compute(grid.focal_point(0, 0, 0), wrong),
               ContractViolation);
}

TEST(TableSteerEngine, CloneSharesTheImmutableReferenceTable) {
  // The reference table is the paper's headline memory cost; N worker
  // clones must read one shared copy, never duplicate it.
  TableSteerEngine engine(small_cfg());
  const auto clone = engine.clone();
  auto* steer_clone = dynamic_cast<TableSteerEngine*>(clone.get());
  ASSERT_NE(steer_clone, nullptr);
  EXPECT_EQ(&steer_clone->reference_table(), &engine.reference_table());

  // Sharing must not change values: same delays from engine and clone.
  engine.begin_frame(Vec3{});
  steer_clone->begin_frame(Vec3{});
  const probe::MatrixProbe probe(small_cfg().probe);
  const imaging::VolumeGrid grid(small_cfg().volume);
  std::vector<std::int32_t> a(
      static_cast<std::size_t>(probe.element_count()));
  std::vector<std::int32_t> b(a.size());
  const imaging::FocalPoint fp = grid.focal_point(1, 2, 3);
  engine.compute(fp, a);
  steer_clone->compute(fp, b);
  EXPECT_EQ(a, b);
}

TEST(TableSteerEngine, SharesSizingWithComponents) {
  const auto cfg = small_cfg();
  TableSteerEngine engine(cfg);
  EXPECT_EQ(engine.reference_table().entry_count(),
            reference_table_sizing(cfg, fx::kRefDelay18).folded_entries);
  EXPECT_EQ(engine.corrections().coefficient_count(),
            steering_set_sizing(cfg, fx::kCorrection18).total_coefficients);
}

/// The spec chain SteerDatapath::index must reproduce: two fx::add into
/// sum_format, half-up round_to_int, clamped at 0.
std::int64_t value_chain(const fx::Value& ref, const fx::Value& cx,
                         const fx::Value& cy, const TableSteerConfig& ts) {
  const fx::Value sum0 = fx::add(ref, cx, ts.sum_format);
  const fx::Value sum1 = fx::add(sum0, cy, ts.sum_format);
  const std::int64_t idx = sum1.round_to_int(fx::Rounding::kHalfUp);
  return idx < 0 ? 0 : idx;
}

TEST(SteerDatapath, MatchesValueChainOnEveryProbeInput) {
  const auto cfg = imaging::scaled_system(6, 5, 9);
  const probe::MatrixProbe probe(cfg.probe);
  for (const TableSteerConfig& ts :
       {TableSteerConfig::bits18(), TableSteerConfig::bits14(),
        TableSteerConfig::bits13()}) {
    SCOPED_TRACE(ts.name_suffix());
    const ReferenceDelayTable table(
        cfg, ReferenceTableConfig{.entry_format = ts.entry_format});
    const SteeringCorrections corrections(cfg, ts.coeff_format);
    const SteerDatapath datapath(ts);
    for (int iy = 0; iy < probe.elements_y(); ++iy) {
      for (int ix = 0; ix < probe.elements_x(); ++ix) {
        for (int d = 0; d < cfg.volume.n_depth; ++d) {
          const fx::Value ref = table.entry(ix, iy, d);
          ASSERT_EQ(table.entry_raw(ix, iy, d), ref.raw());
          for (int it = 0; it < cfg.volume.n_theta; ++it) {
            for (int ip = 0; ip < cfg.volume.n_phi; ++ip) {
              const fx::Value cx = corrections.x_correction(ix, it, ip);
              const fx::Value cy = corrections.y_correction(iy, ip);
              ASSERT_EQ(corrections.x_correction_raw(ix, it, ip), cx.raw());
              ASSERT_EQ(corrections.y_correction_raw(iy, ip), cy.raw());
              ASSERT_EQ(datapath.index(ref.raw(), cx.raw(), cy.raw()),
                        value_chain(ref, cx, cy, ts))
                  << "element (" << ix << "," << iy << ") depth " << d
                  << " line (" << it << "," << ip << ")";
            }
          }
        }
      }
    }
  }
}

TEST(SteerDatapath, MatchesValueChainAcrossWordRangesAndGridChanges) {
  // A sum grid finer than both operands (the first adder shifts left) and
  // a sum word narrow enough that both adders saturate, swept over seeded
  // words spanning each operand's whole range.
  TableSteerConfig ts;
  ts.entry_format = fx::Format{6, 2, false};
  ts.coeff_format = fx::Format{5, 3, true};
  ts.sum_format = fx::Format{5, 4, true};
  const SteerDatapath datapath(ts);
  SplitMix64 rng(0x57ee2ull);
  auto word = [&rng](const fx::Format& f) {
    const auto span = static_cast<std::uint64_t>(f.max_raw() - f.min_raw());
    return fx::Value::from_raw(
        f.min_raw() + static_cast<std::int64_t>(rng.next_below(span + 1)), f);
  };
  for (int i = 0; i < 200000; ++i) {
    const fx::Value ref = word(ts.entry_format);
    const fx::Value cx = word(ts.coeff_format);
    const fx::Value cy = word(ts.coeff_format);
    ASSERT_EQ(datapath.index(ref.raw(), cx.raw(), cy.raw()),
              value_chain(ref, cx, cy, ts))
        << ref.raw() << " + " << cx.raw() << " + " << cy.raw();
  }
}

}  // namespace
}  // namespace us3d::delay
