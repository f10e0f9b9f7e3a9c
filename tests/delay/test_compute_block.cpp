// Property tests of the batched delay API: for every engine, sweeping a
// frame block-by-block through the native compute_block() must reproduce
// the per-point oracle (compute_block_reference, a loop over compute())
// bit-for-bit — for random origins, random subranges, random block sizes,
// engines cloned mid-frame, and sweeps that interleave the per-point and
// block forms. This is the same invariant PR 1 pinned for parallel vs
// serial, one layer down.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/prng.h"
#include "delay/exact.h"
#include "delay/full_table.h"
#include "delay/synthetic_aperture.h"
#include "delay/tablefree.h"
#include "delay/tablesteer.h"
#include "imaging/scan_order.h"
#include "imaging/system_config.h"
#include "simd/dispatch.h"

namespace us3d::delay {
namespace {

imaging::SystemConfig cfg() { return imaging::scaled_system(6, 7, 24); }

struct EngineCase {
  std::string label;
  std::function<std::unique_ptr<DelayEngine>()> make;
  bool any_origin = false;  // accepts off-centre transmit origins
};

std::vector<EngineCase> all_engines() {
  return {
      {"EXACT", [] { return std::make_unique<ExactDelayEngine>(cfg()); },
       /*any_origin=*/true},
      {"TABLEFREE", [] { return std::make_unique<TableFreeEngine>(cfg()); },
       /*any_origin=*/true},
      {"TABLESTEER-18b",
       [] {
         return std::make_unique<TableSteerEngine>(cfg(),
                                                   TableSteerConfig::bits18());
       }},
      {"FULLTABLE", [] { return std::make_unique<FullTableEngine>(cfg()); }},
      {"TABLESTEER-SA",
       [] {
         return std::make_unique<SyntheticApertureSteerEngine>(
             cfg(), diverging_wave_plan(3, 4.0e-3));
       }},
  };
}

/// The remaining datapath variants of the shipped engines: TABLEFREE in
/// double precision and TABLESTEER at its other table widths.
std::vector<EngineCase> datapath_variants() {
  return {
      {"TABLEFREE-double",
       [] {
         return std::make_unique<TableFreeEngine>(
             cfg(), TableFreeConfig{.use_fixed_point = false});
       },
       /*any_origin=*/true},
      {"TABLESTEER-14b",
       [] {
         return std::make_unique<TableSteerEngine>(cfg(),
                                                   TableSteerConfig::bits14());
       }},
      {"TABLESTEER-13b",
       [] {
         return std::make_unique<TableSteerEngine>(cfg(),
                                                   TableSteerConfig::bits13());
       }},
  };
}

void expect_planes_equal(const DelayPlane& a, const DelayPlane& b,
                         const std::string& label, int block_index) {
  ASSERT_EQ(a.element_count(), b.element_count());
  ASSERT_EQ(a.point_count(), b.point_count());
  for (int e = 0; e < a.element_count(); ++e) {
    const auto ra = a.row(e);
    const auto rb = b.row(e);
    for (int p = 0; p < a.point_count(); ++p) {
      ASSERT_EQ(ra[static_cast<std::size_t>(p)], rb[static_cast<std::size_t>(p)])
          << label << " block " << block_index << " element " << e
          << " point " << p;
    }
  }
}

/// Runs native vs oracle over `range` with both sides starting a fresh
/// frame at `origin`; the oracle runs on an independent clone so stateful
/// engines do not share tracker state between the two sweeps.
void check_block_matches_oracle(DelayEngine& engine, const Vec3& origin,
                                imaging::ScanOrder order,
                                const imaging::ScanRange& range,
                                int max_points, const std::string& label) {
  const imaging::VolumeGrid grid(cfg().volume);
  auto oracle = engine.clone();
  engine.begin_frame(origin);
  oracle->begin_frame(origin);
  DelayPlane native_plane, oracle_plane;
  int block_index = 0;
  imaging::for_each_focal_block(
      grid, order, range, max_points, [&](const imaging::FocalBlock& block) {
        engine.compute_block(block, native_plane);
        oracle->compute_block_reference(block, oracle_plane);
        expect_planes_equal(native_plane, oracle_plane, label, block_index);
        ++block_index;
      });
  EXPECT_GT(block_index, 1) << label;
}

TEST(ComputeBlock, MatchesOracleForEveryEngineAndOrder) {
  for (const EngineCase& c : all_engines()) {
    for (const imaging::ScanOrder order :
         {imaging::ScanOrder::kNappeByNappe,
          imaging::ScanOrder::kScanlineByScanline}) {
      auto engine = c.make();
      check_block_matches_oracle(
          *engine, Vec3{}, order,
          imaging::full_scan_range(cfg().volume, order), 17,
          c.label + "/" + imaging::to_string(order));
    }
  }
}

TEST(ComputeBlock, MatchesOracleForEveryDatapathVariant) {
  for (const EngineCase& c : datapath_variants()) {
    for (const imaging::ScanOrder order :
         {imaging::ScanOrder::kNappeByNappe,
          imaging::ScanOrder::kScanlineByScanline}) {
      auto engine = c.make();
      check_block_matches_oracle(
          *engine, Vec3{}, order,
          imaging::full_scan_range(cfg().volume, order), 19,
          c.label + "/" + imaging::to_string(order));
    }
  }
}

TEST(ComputeBlock, MatchesOracleForRandomRangesOriginsAndBlockSizes) {
  SplitMix64 prng(0x5eedb10cull);
  for (const EngineCase& c : all_engines()) {
    auto engine = c.make();
    for (int trial = 0; trial < 4; ++trial) {
      const imaging::ScanOrder order =
          prng.next_below(2) == 0 ? imaging::ScanOrder::kNappeByNappe
                                  : imaging::ScanOrder::kScanlineByScanline;
      const int extent = imaging::outer_extent(cfg().volume, order);
      const int begin = static_cast<int>(
          prng.next_below(static_cast<std::uint64_t>(extent)));
      const int end =
          begin + 1 +
          static_cast<int>(prng.next_below(
              static_cast<std::uint64_t>(extent - begin)));
      const int max_points = 1 + static_cast<int>(prng.next_below(97));
      Vec3 origin{};
      if (c.any_origin) {
        origin = Vec3{prng.next_in(-1e-3, 1e-3), prng.next_in(-1e-3, 1e-3),
                      prng.next_in(-2e-3, 0.0)};
      }
      check_block_matches_oracle(*engine, origin, order,
                                 imaging::ScanRange{begin, end}, max_points,
                                 c.label + " trial " +
                                     std::to_string(trial));
    }
  }
}

TEST(ComputeBlock, CloneMidFrameMatchesOracle) {
  // Drive the prototype deep into a frame, then clone it: the clone must
  // produce oracle-exact blocks for a frame of its own, unperturbed by the
  // prototype's mid-frame state (this is what the runtime leans on when it
  // clones a prototype that has already been used).
  const imaging::VolumeGrid grid(cfg().volume);
  const imaging::ScanOrder order = imaging::ScanOrder::kNappeByNappe;
  for (const EngineCase& c : all_engines()) {
    auto prototype = c.make();
    prototype->begin_frame(Vec3{});
    DelayPlane plane;
    int fed = 0;
    imaging::for_each_focal_block(
        grid, order, imaging::ScanRange{0, 9}, 13,
        [&](const imaging::FocalBlock& block) {
          prototype->compute_block(block, plane);
          ++fed;
        });
    ASSERT_GT(fed, 0);
    auto clone = prototype->clone();
    check_block_matches_oracle(*clone, Vec3{}, order,
                               imaging::full_scan_range(cfg().volume, order),
                               19, c.label + " (mid-frame clone)");
  }
}

TEST(ComputeBlock, PerPointAndBlockFormsInterleaveWithinAFrame) {
  // The block contract says compute() and compute_block() may be mixed in
  // one frame sweep. Alternate forms per block on one engine and compare
  // against an all-blocks oracle on a clone — exercises TABLEFREE's shared
  // tracker state across the two entry points.
  const imaging::VolumeGrid grid(cfg().volume);
  const imaging::ScanOrder order = imaging::ScanOrder::kNappeByNappe;
  for (const EngineCase& c : all_engines()) {
    auto engine = c.make();
    auto oracle = engine->clone();
    engine->begin_frame(Vec3{});
    oracle->begin_frame(Vec3{});
    DelayPlane native_plane, oracle_plane;
    std::vector<std::int32_t> row(
        static_cast<std::size_t>(engine->element_count()));
    int block_index = 0;
    imaging::for_each_focal_block(
        grid, order, imaging::full_scan_range(cfg().volume, order), 11,
        [&](const imaging::FocalBlock& block) {
          oracle->compute_block_reference(block, oracle_plane);
          if (block_index % 2 == 0) {
            engine->compute_block(block, native_plane);
            expect_planes_equal(native_plane, oracle_plane, c.label,
                                block_index);
          } else {
            for (int p = 0; p < block.size(); ++p) {
              engine->compute(block[p], row);
              for (int e = 0; e < engine->element_count(); ++e) {
                ASSERT_EQ(row[static_cast<std::size_t>(e)],
                          oracle_plane.at(e, p))
                    << c.label << " block " << block_index << " point " << p;
              }
            }
          }
          ++block_index;
        });
  }
}

TEST(ComputeBlock, TableFreeTrackerChargesIdenticalStepsOnBothPaths) {
  // The block path reorders evaluations (element-outer) but every tracker
  // sees the same argument sequence, so the stall accounting — not just
  // the delay values — must be unchanged. The hw stall model charges
  // these counts, on either datapath and in either scan order.
  const imaging::VolumeGrid grid(cfg().volume);
  for (const bool fixed : {true, false}) {
    for (const imaging::ScanOrder order :
         {imaging::ScanOrder::kNappeByNappe,
          imaging::ScanOrder::kScanlineByScanline}) {
      SCOPED_TRACE(std::string(fixed ? "fixed " : "double ") +
                   imaging::to_string(order));
      const TableFreeConfig tf{.use_fixed_point = fixed};
      TableFreeEngine block_engine(cfg(), tf);
      TableFreeEngine point_engine(cfg(), tf);
      block_engine.begin_frame(Vec3{});
      point_engine.begin_frame(Vec3{});
      DelayPlane plane;
      std::vector<std::int32_t> row(
          static_cast<std::size_t>(point_engine.element_count()));
      imaging::for_each_focal_block(
          grid, order, imaging::full_scan_range(cfg().volume, order), 23,
          [&](const imaging::FocalBlock& block) {
            block_engine.compute_block(block, plane);
            for (int p = 0; p < block.size(); ++p) {
              point_engine.compute(block[p], row);
            }
          });
      const auto a = block_engine.tracker_stats();
      const auto b = point_engine.tracker_stats();
      EXPECT_GT(a.evaluations, 0);
      EXPECT_EQ(a.evaluations, b.evaluations);
      EXPECT_EQ(a.total_steps, b.total_steps);
      EXPECT_EQ(a.max_steps_single_evaluation, b.max_steps_single_evaluation);
    }
  }
}

TEST(ComputeBlock, TableFreeMatchesOracleAtPaperScale) {
  // The paper's 100x100 probe, aperture and 500-lambda depth (fewer lines
  // per nappe to keep the per-point oracle affordable): the fixed-point
  // receive rows run through the resolved SIMD row kernel — US3D_SIMD
  // pins each backend in CI — and must equal the oracle bit-for-bit,
  // tracker statistics included. One frame visits a shallow, a middle
  // and the deepest nappe, so the first rows after each jump carry
  // multi-segment tracker steps.
  imaging::SystemConfig paper = imaging::paper_system();
  paper.volume.n_theta = 16;
  paper.volume.n_phi = 16;
  TableFreeEngine engine(paper);
  ASSERT_TRUE(engine.fixed_pwl().row_table(engine.pwl()).vector_bounded);
  TableFreeEngine oracle(engine);
  engine.begin_frame(Vec3{});
  oracle.begin_frame(Vec3{});
  const imaging::VolumeGrid grid(paper.volume);
  const int depth = paper.volume.n_depth;
  DelayPlane native_plane, oracle_plane;
  int block_index = 0;
  for (const int nappe : {3, depth / 2, depth - 1}) {
    imaging::for_each_focal_block(
        grid, imaging::ScanOrder::kNappeByNappe,
        imaging::ScanRange{nappe, nappe + 1}, 128,
        [&](const imaging::FocalBlock& block) {
          engine.compute_block(block, native_plane);
          oracle.compute_block_reference(block, oracle_plane);
          expect_planes_equal(native_plane, oracle_plane, "paper TABLEFREE",
                              block_index++);
        });
  }
  EXPECT_EQ(block_index, 6);
  const auto a = engine.tracker_stats();
  const auto b = oracle.tracker_stats();
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.max_steps_single_evaluation, b.max_steps_single_evaluation);
  EXPECT_GT(a.max_steps_single_evaluation, 1);
}

TEST(ComputeBlock, TableFreeScanlineMatchesOracleAtPaperScale) {
  // Scanline order at the paper's probe and depth range: each row is a
  // depth sweep that crosses most of the PWL table and jumps back at the
  // next scanline, so the row kernel re-sizes its segment window chunk by
  // chunk and hands the chunks too wide for one (shallow, where segments
  // are narrow) to the scalar reference. Depth is sampled 5x sparser than
  // the paper's lambda/2 so both kinds of chunk occur.
  imaging::SystemConfig paper = imaging::paper_system();
  paper.volume.n_theta = 2;
  paper.volume.n_phi = 2;
  paper.volume.n_depth = 200;
  TableFreeEngine engine(paper);
  TableFreeEngine oracle(engine);
  engine.begin_frame(Vec3{});
  oracle.begin_frame(Vec3{});
  const imaging::VolumeGrid grid(paper.volume);
  DelayPlane native_plane, oracle_plane;
  int block_index = 0;
  imaging::for_each_focal_block(
      grid, imaging::ScanOrder::kScanlineByScanline,
      imaging::ScanRange{0, 1}, 256, [&](const imaging::FocalBlock& block) {
        engine.compute_block(block, native_plane);
        oracle.compute_block_reference(block, oracle_plane);
        expect_planes_equal(native_plane, oracle_plane,
                            "paper TABLEFREE scanline", block_index++);
      });
  EXPECT_EQ(block_index, 2);
  const auto a = engine.tracker_stats();
  const auto b = oracle.tracker_stats();
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.max_steps_single_evaluation, b.max_steps_single_evaluation);
  EXPECT_GT(a.max_steps_single_evaluation, 8);
}

/// Native vs oracle for `engine`'s frame at `origin` over `range`, with
/// every block's native plane computed once per backend the host can run:
/// US3D_SIMD is set to each in turn (and restored afterwards), and
/// engines resolve their row kernels per block, so this pins every
/// dispatch path inside one test process. The oracle runs once per block
/// on a copy. Returns the blocks compared.
int check_every_backend(DelayEngine& engine,
                        const imaging::SystemConfig& config,
                        const Vec3& origin, imaging::ScanOrder order,
                        const imaging::ScanRange& range, int max_points,
                        const std::string& label) {
  const char* env = std::getenv("US3D_SIMD");
  const std::string saved = env != nullptr ? env : "";
  auto oracle = engine.clone();
  engine.begin_frame(origin);
  oracle->begin_frame(origin);
  const imaging::VolumeGrid grid(config.volume);
  DelayPlane native_plane, oracle_plane;
  int block_index = 0;
  imaging::for_each_focal_block(
      grid, order, range, max_points, [&](const imaging::FocalBlock& block) {
        oracle->compute_block_reference(block, oracle_plane);
        for (const simd::DasBackend b : simd::available_backends()) {
          ::setenv("US3D_SIMD", simd::backend_name(b), 1);
          engine.compute_block(block, native_plane);
          expect_planes_equal(native_plane, oracle_plane,
                              label + " " + simd::backend_name(b),
                              block_index);
        }
        ++block_index;
      });
  if (env != nullptr) {
    ::setenv("US3D_SIMD", saved.c_str(), 1);
  } else {
    ::unsetenv("US3D_SIMD");
  }
  return block_index;
}

TEST(ComputeBlock, TableSteerMatchesOracleAtPaperScaleOnEveryBackend) {
  // The paper's 100x100 probe and 500-lambda depth (fewer lines per nappe
  // to keep the per-point oracle affordable), at every table width and
  // for the synthetic-aperture engine at both of its origins: each nappe
  // block's element rows run through the steer-row kernel of every
  // backend (blocks of 64 and 36 points leave lane tails on both vector
  // bodies) and must equal the fx::Value oracle bit-for-bit. A shallow
  // and the deepest nappe cover corrections larger than the table entry
  // (clamped at 0) and the widest entries.
  imaging::SystemConfig paper = imaging::paper_system();
  paper.volume.n_theta = 10;
  paper.volume.n_phi = 10;
  const int depth = paper.volume.n_depth;
  const auto order = imaging::ScanOrder::kNappeByNappe;
  for (const TableSteerConfig& ts :
       {TableSteerConfig::bits18(), TableSteerConfig::bits14(),
        TableSteerConfig::bits13()}) {
    TableSteerEngine engine(paper, ts);
    for (const int nappe : {1, depth - 1}) {
      EXPECT_EQ(check_every_backend(engine, paper, Vec3{}, order,
                                    imaging::ScanRange{nappe, nappe + 1}, 64,
                                    engine.name()),
                2);
    }
  }
  const SyntheticAperturePlan plan = diverging_wave_plan(2, 4.0e-3);
  SyntheticApertureSteerEngine sa(paper, plan);
  for (const double z : plan.origin_z) {
    EXPECT_EQ(check_every_backend(sa, paper, Vec3{0.0, 0.0, z}, order,
                                  imaging::ScanRange{depth / 2, depth / 2 + 1},
                                  64, "TABLESTEER-SA z=" + std::to_string(z)),
              2);
  }
}

TEST(ComputeBlock, TableSteerScanlineBlocksMatchOracleAtPaperScale) {
  // Scanline blocks mix depths, so the block path reads the table entry
  // per point and runs the scalar datapath over the gathered correction
  // rows, whichever backend is forced.
  imaging::SystemConfig paper = imaging::paper_system();
  paper.volume.n_theta = 2;
  paper.volume.n_phi = 1;
  paper.volume.n_depth = 150;
  TableSteerEngine engine(paper);
  const auto order = imaging::ScanOrder::kScanlineByScanline;
  EXPECT_EQ(check_every_backend(engine, paper, Vec3{}, order,
                                imaging::full_scan_range(paper.volume, order),
                                256, "TABLESTEER scanline"),
            2);
}

TEST(ComputeBlock, SyntheticApertureMatchesOracleForEveryPlannedOrigin) {
  const SyntheticAperturePlan plan = diverging_wave_plan(3, 4.0e-3);
  SyntheticApertureSteerEngine engine(cfg(), plan);
  const auto order = imaging::ScanOrder::kNappeByNappe;
  for (const double z : plan.origin_z) {
    check_block_matches_oracle(engine, Vec3{0.0, 0.0, z}, order,
                               imaging::full_scan_range(cfg().volume, order),
                               29, "TABLESTEER-SA z=" + std::to_string(z));
  }
}

TEST(ComputeBlock, RequiresABegunFrame) {
  ExactDelayEngine engine(cfg());
  const imaging::VolumeGrid grid(cfg().volume);
  DelayPlane plane;
  std::vector<imaging::FocalPoint> pts{grid.focal_point(0, 0, 0)};
  imaging::FocalBlock block{std::span<const imaging::FocalPoint>(pts), true};
  EXPECT_THROW(engine.compute_block(block, plane), ContractViolation);
  EXPECT_THROW(engine.compute_block_reference(block, plane),
               ContractViolation);
  engine.begin_frame(Vec3{});
  EXPECT_NO_THROW(engine.compute_block(block, plane));
}

TEST(ComputeBlock, SinglePointBlockEqualsCompute) {
  const imaging::VolumeGrid grid(cfg().volume);
  for (const EngineCase& c : all_engines()) {
    auto engine = c.make();
    engine->begin_frame(Vec3{});
    std::vector<std::int32_t> row(
        static_cast<std::size_t>(engine->element_count()));
    std::vector<imaging::FocalPoint> pts{grid.focal_point(2, 3, 5)};
    imaging::FocalBlock block{std::span<const imaging::FocalPoint>(pts), true};
    DelayPlane plane;
    engine->compute_block(block, plane);
    ASSERT_EQ(plane.point_count(), 1);
    engine->compute(pts.front(), row);
    for (int e = 0; e < engine->element_count(); ++e) {
      EXPECT_EQ(plane.at(e, 0), row[static_cast<std::size_t>(e)]) << c.label;
    }
  }
}

}  // namespace
}  // namespace us3d::delay
