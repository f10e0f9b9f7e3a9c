// The block delay-and-sum kernel: active-element hoisting (zero-weight
// elements are never read, even with garbage delays), echo-window clamp
// semantics, normalization, single-point blocks, and — the acceptance
// criterion of the block refactor — bit-identical volumes from the block
// sweep and a per-point oracle (one beamform_point per voxel) for every
// engine.
#include "beamform/das_kernel.h"

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <vector>

#include "acoustic/echo_synth.h"
#include "beamform/beamformer.h"
#include "common/prng.h"
#include "delay/exact.h"
#include "delay/full_table.h"
#include "delay/synthetic_aperture.h"
#include "delay/tablefree.h"
#include "delay/tablesteer.h"
#include "imaging/volume.h"

namespace us3d::beamform {
namespace {

imaging::SystemConfig small_cfg() { return imaging::scaled_system(6, 7, 24); }

EchoBuffer random_echoes(const imaging::SystemConfig& cfg,
                         std::uint64_t seed) {
  EchoBuffer echoes(cfg.probe.element_count(), cfg.echo_buffer_samples());
  SplitMix64 prng(seed);
  for (int e = 0; e < echoes.element_count(); ++e) {
    for (float& v : echoes.row(e)) {
      v = static_cast<float>(prng.next_in(-1.0, 1.0));
    }
  }
  return echoes;
}

TEST(DasKernel, ActiveListExcludesExactlyTheZeroWeightElements) {
  const auto cfg = small_cfg();
  const probe::MatrixProbe probe(cfg.probe);
  const probe::ApodizationMap apod(probe, probe::WindowKind::kHann);
  const DasKernel kernel(apod);
  std::vector<int> expected;
  for (int e = 0; e < probe.element_count(); ++e) {
    if (apod.weight_flat(e) != 0.0) expected.push_back(e);
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(static_cast<int>(expected.size()), probe.element_count())
      << "Hann must zero the aperture edge for this test to bite";
  EXPECT_EQ(kernel.active_elements(), expected);
}

TEST(DasKernel, ZeroWeightRowsAreNeverRead) {
  // Give inactive elements delay indices that would be wildly out of range
  // or mid-buffer garbage: the sum must match a manual Eq. 1 evaluation
  // that only visits nonzero weights.
  const auto cfg = small_cfg();
  const probe::MatrixProbe probe(cfg.probe);
  const probe::ApodizationMap apod(probe, probe::WindowKind::kHann);
  const DasKernel kernel(apod);
  const EchoBuffer echoes = random_echoes(cfg, 0xda5ull);

  const int points = 9;
  delay::DelayPlane plane;
  plane.reshape(probe.element_count(), points);
  SplitMix64 prng(0x7ab1e5ull);
  for (int e = 0; e < probe.element_count(); ++e) {
    const bool active = apod.weight_flat(e) != 0.0;
    for (int p = 0; p < points; ++p) {
      plane.at(e, p) =
          active ? static_cast<std::int32_t>(prng.next_below(
                       static_cast<std::uint64_t>(echoes.samples_per_element())))
                 : std::numeric_limits<std::int32_t>::max() - 7;
    }
  }

  std::vector<double> acc(static_cast<std::size_t>(points));
  kernel.accumulate_block(echoes, plane, acc);
  for (int p = 0; p < points; ++p) {
    double expected = 0.0;
    for (int e = 0; e < probe.element_count(); ++e) {
      const double w = apod.weight_flat(e);
      if (w == 0.0) continue;
      expected += w * echoes.sample(e, plane.at(e, p));
    }
    EXPECT_EQ(acc[static_cast<std::size_t>(p)], expected) << "point " << p;
  }
}

TEST(DasKernel, OutOfWindowDelaysReadAsZero) {
  const auto cfg = small_cfg();
  const probe::MatrixProbe probe(cfg.probe);
  const probe::ApodizationMap apod(probe, probe::WindowKind::kRect);
  const DasKernel kernel(apod);
  const EchoBuffer echoes = random_echoes(cfg, 0xc1a3ull);

  delay::DelayPlane plane;
  plane.reshape(probe.element_count(), 3);
  for (int e = 0; e < probe.element_count(); ++e) {
    plane.at(e, 0) = -1;  // before the acquisition window
    plane.at(e, 1) = static_cast<std::int32_t>(echoes.samples_per_element());
    plane.at(e, 2) = 0;  // first valid sample
  }
  std::vector<double> acc(3);
  kernel.accumulate_block(echoes, plane, acc);
  EXPECT_EQ(acc[0], 0.0);
  EXPECT_EQ(acc[1], 0.0);
  double expected = 0.0;
  for (int e = 0; e < probe.element_count(); ++e) {
    expected += apod.weight_flat(e) * echoes.sample(e, 0);
  }
  EXPECT_EQ(acc[2], expected);
}

TEST(DasKernel, SinglePointBlockMatchesBeamformPoint) {
  const auto cfg = small_cfg();
  const probe::MatrixProbe probe(cfg.probe);
  const probe::ApodizationMap apod(probe, probe::WindowKind::kHann);
  const Beamformer bf(cfg, apod);
  const EchoBuffer echoes = random_echoes(cfg, 0x51e9ull);
  delay::ExactDelayEngine engine(cfg);
  engine.begin_frame(Vec3{});

  const imaging::VolumeGrid grid(cfg.volume);
  std::vector<imaging::FocalPoint> pts{grid.focal_point(3, 2, 11)};
  imaging::FocalBlock block{std::span<const imaging::FocalPoint>(pts), true};
  delay::DelayPlane plane;
  engine.compute_block(block, plane);
  std::vector<double> acc(1);
  bf.kernel().accumulate_block(echoes, plane, acc);
  const float normalized = static_cast<float>(acc[0]) *
                           static_cast<float>(1.0 / apod.total_weight());
  EXPECT_EQ(normalized, bf.beamform_point(echoes, engine, pts.front()));
}

TEST(DasKernel, NormalizationScalesByTotalWeight) {
  const auto cfg = small_cfg();
  const probe::MatrixProbe probe(cfg.probe);
  const probe::ApodizationMap apod(probe, probe::WindowKind::kHamming);
  const Beamformer bf(cfg, apod);
  const EchoBuffer echoes = random_echoes(cfg, 0x4011ull);
  delay::ExactDelayEngine engine(cfg);
  // This pins the DOUBLE path's normalization constant (the quantized
  // path normalizes by its own quantized total weight), so the precision
  // is explicit rather than inherited from US3D_PRECISION.
  const VolumeImage raw = bf.reconstruct(
      echoes, engine,
      {.normalize = false, .precision = simd::Precision::kDouble});
  const VolumeImage normalized = bf.reconstruct(
      echoes, engine,
      {.normalize = true, .precision = simd::Precision::kDouble});
  const float norm = static_cast<float>(1.0 / apod.total_weight());
  const auto& spec = cfg.volume;
  for (int it = 0; it < spec.n_theta; ++it) {
    for (int ip = 0; ip < spec.n_phi; ++ip) {
      for (int id = 0; id < spec.n_depth; ++id) {
        ASSERT_EQ(normalized.at(it, ip, id), raw.at(it, ip, id) * norm);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD backend parity: every backend the host can run must be bit-identical
// to the scalar reference — same per-point double accumulators, same
// element fold order, mul + add (never FMA) — on random blocks, on tail
// sizes that are not a multiple of any lane width, and on out-of-window
// delays.

std::vector<simd::DasBackend> vector_backends() {
  std::vector<simd::DasBackend> result;
  for (simd::DasBackend b : simd::available_backends()) {
    if (b != simd::DasBackend::kScalar) result.push_back(b);
  }
  return result;
}

TEST(DasKernelSimd, EveryAvailableBackendMatchesScalarBitForBit) {
  const auto cfg = small_cfg();
  const probe::MatrixProbe probe(cfg.probe);
  const probe::ApodizationMap apod(probe, probe::WindowKind::kHann);
  const DasKernel kernel(apod);
  const EchoBuffer echoes = random_echoes(cfg, 0x51d3ull);
  const std::int64_t samples = echoes.samples_per_element();

  SplitMix64 prng(0xbacc3ull);
  // Sizes straddle every lane width (SSE2: 4, AVX2: 8) and its tails.
  for (const int points : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64}) {
    delay::DelayPlane plane;
    plane.reshape(probe.element_count(), points);
    for (int e = 0; e < probe.element_count(); ++e) {
      for (int p = 0; p < points; ++p) {
        // ~1/4 of the delays land outside the acquisition window (before
        // or after), so the masked gather path is exercised everywhere.
        const std::int64_t idx =
            static_cast<std::int64_t>(prng.next_below(
                static_cast<std::uint64_t>(2 * samples))) -
            samples / 2;
        plane.at(e, p) = static_cast<std::int32_t>(idx);
      }
    }
    std::vector<double> reference(static_cast<std::size_t>(points));
    kernel.accumulate_block(echoes, plane, reference,
                            simd::DasBackend::kScalar);
    for (const simd::DasBackend backend : vector_backends()) {
      std::vector<double> acc(static_cast<std::size_t>(points), -1.0);
      kernel.accumulate_block(echoes, plane, acc, backend);
      for (int p = 0; p < points; ++p) {
        ASSERT_EQ(acc[static_cast<std::size_t>(p)],
                  reference[static_cast<std::size_t>(p)])
            << simd::backend_name(backend) << " points=" << points
            << " p=" << p;
      }
    }
  }
}

TEST(DasKernelSimd, OutOfWindowDelaysClampToZeroOnEveryBackend) {
  const auto cfg = small_cfg();
  const probe::MatrixProbe probe(cfg.probe);
  const probe::ApodizationMap apod(probe, probe::WindowKind::kRect);
  const DasKernel kernel(apod);
  const EchoBuffer echoes = random_echoes(cfg, 0xc1a3ull);

  // A full vector width of nothing but out-of-window indices, including
  // the extremes a corrupted plane could carry.
  const std::int32_t bad[] = {
      -1,
      std::numeric_limits<std::int32_t>::min(),
      static_cast<std::int32_t>(echoes.samples_per_element()),
      std::numeric_limits<std::int32_t>::max(),
      -7,
      static_cast<std::int32_t>(echoes.samples_per_element()) + 1,
      std::numeric_limits<std::int32_t>::max() - 1,
      -1000000,
  };
  const int points = static_cast<int>(std::size(bad));
  delay::DelayPlane plane;
  plane.reshape(probe.element_count(), points);
  for (int e = 0; e < probe.element_count(); ++e) {
    for (int p = 0; p < points; ++p) plane.at(e, p) = bad[p];
  }
  for (const simd::DasBackend backend : simd::available_backends()) {
    std::vector<double> acc(static_cast<std::size_t>(points), -1.0);
    kernel.accumulate_block(echoes, plane, acc, backend);
    for (int p = 0; p < points; ++p) {
      ASSERT_EQ(acc[static_cast<std::size_t>(p)], 0.0)
          << simd::backend_name(backend) << " p=" << p;
    }
  }
}

TEST(DasKernelSimd, AllZeroApodizationReadsNothingOnEveryBackend) {
  // A 2x2 Hann aperture is entirely edge elements, so every weight is
  // exactly zero: the active list is empty and the kernel must write pure
  // zeros without touching the echo rows or the (garbage) delays.
  auto cfg = small_cfg();
  cfg.probe.elements_x = 2;
  cfg.probe.elements_y = 2;
  const probe::MatrixProbe probe(cfg.probe);
  const probe::ApodizationMap apod(probe, probe::WindowKind::kHann);
  ASSERT_EQ(apod.total_weight(), 0.0);
  const DasKernel kernel(apod);
  ASSERT_EQ(kernel.active_count(), 0);

  EchoBuffer echoes(probe.element_count(), 16);
  const int points = 13;
  delay::DelayPlane plane;
  plane.reshape(probe.element_count(), points);
  for (int e = 0; e < probe.element_count(); ++e) {
    for (int p = 0; p < points; ++p) {
      plane.at(e, p) = std::numeric_limits<std::int32_t>::max() - p;
    }
  }
  for (const simd::DasBackend backend : simd::available_backends()) {
    std::vector<double> acc(static_cast<std::size_t>(points), -1.0);
    kernel.accumulate_block(echoes, plane, acc, backend);
    for (int p = 0; p < points; ++p) {
      ASSERT_EQ(acc[static_cast<std::size_t>(p)], 0.0)
          << simd::backend_name(backend) << " p=" << p;
    }
  }
}

TEST(DasKernelSimd, ForcedBackendVolumesAreBitIdenticalThroughTheBeamformer) {
  // End-to-end: the whole reconstruct path with BeamformOptions::simd
  // forced per backend, against the scalar-forced volume, for a
  // representative engine pair (exact + the production TABLEFREE).
  const auto cfg = small_cfg();
  const probe::MatrixProbe probe(cfg.probe);
  const probe::ApodizationMap apod(probe, probe::WindowKind::kHann);
  const Beamformer bf(cfg, apod);
  const EchoBuffer echoes = random_echoes(cfg, 0xf0ccedull);

  std::vector<std::unique_ptr<delay::DelayEngine>> engines;
  engines.push_back(std::make_unique<delay::ExactDelayEngine>(cfg));
  engines.push_back(std::make_unique<delay::TableFreeEngine>(cfg));
  for (auto& engine : engines) {
    const VolumeImage reference = bf.reconstruct(
        echoes, *engine, {.simd = simd::DasBackend::kScalar});
    for (const simd::DasBackend backend : vector_backends()) {
      const VolumeImage volume =
          bf.reconstruct(echoes, *engine, {.simd = backend});
      const auto& spec = cfg.volume;
      for (int it = 0; it < spec.n_theta; ++it) {
        for (int ip = 0; ip < spec.n_phi; ++ip) {
          for (int id = 0; id < spec.n_depth; ++id) {
            ASSERT_EQ(volume.at(it, ip, id), reference.at(it, ip, id))
                << engine->name() << " " << simd::backend_name(backend)
                << " voxel (" << it << "," << ip << "," << id << ")";
          }
        }
      }
    }
  }
}

/// The per-point oracle: begin_frame, then one Beamformer::beamform_point
/// (one compute() and one weighted, normalized sum) per focal point, in
/// `order`.
VolumeImage per_point_sweep(const Beamformer& bf,
                            const imaging::SystemConfig& cfg,
                            const EchoBuffer& echoes,
                            delay::DelayEngine& engine,
                            imaging::ScanOrder order) {
  VolumeImage image(cfg.volume);
  const imaging::VolumeGrid grid(cfg.volume);
  engine.begin_frame(Vec3{});
  imaging::for_each_focal_point(
      grid, order, [&](const imaging::FocalPoint& fp) {
        image.at(fp.i_theta, fp.i_phi, fp.i_depth) =
            bf.beamform_point(echoes, engine, fp);
      });
  return image;
}

TEST(DasKernel, BlockPathIsBitIdenticalToPerVoxelPathForEveryEngine) {
  const auto cfg = small_cfg();
  const probe::MatrixProbe probe(cfg.probe);
  const probe::ApodizationMap apod(probe, probe::WindowKind::kHann);
  const Beamformer bf(cfg, apod);
  const EchoBuffer echoes = random_echoes(cfg, 0xb17e4ac7ull);

  std::vector<std::unique_ptr<delay::DelayEngine>> engines;
  engines.push_back(std::make_unique<delay::ExactDelayEngine>(cfg));
  engines.push_back(std::make_unique<delay::TableFreeEngine>(cfg));
  engines.push_back(std::make_unique<delay::TableSteerEngine>(cfg));
  engines.push_back(std::make_unique<delay::FullTableEngine>(cfg));
  engines.push_back(std::make_unique<delay::SyntheticApertureSteerEngine>(
      cfg, delay::diverging_wave_plan(2, 3.0e-3)));

  for (auto& engine : engines) {
    for (const imaging::ScanOrder order :
         {imaging::ScanOrder::kNappeByNappe,
          imaging::ScanOrder::kScanlineByScanline}) {
      for (const int block_points : {0, 1, 13}) {
        // The oracle is double; pin the block side to double too so the
        // comparison holds under US3D_PRECISION cells.
        BeamformOptions block_opt{.order = order,
                                  .block_points = block_points,
                                  .precision = simd::Precision::kDouble};
        const VolumeImage a = bf.reconstruct(echoes, *engine, block_opt);
        const VolumeImage b = per_point_sweep(bf, cfg, echoes, *engine, order);
        const auto& spec = cfg.volume;
        for (int it = 0; it < spec.n_theta; ++it) {
          for (int ip = 0; ip < spec.n_phi; ++ip) {
            for (int id = 0; id < spec.n_depth; ++id) {
              ASSERT_EQ(a.at(it, ip, id), b.at(it, ip, id))
                  << engine->name() << " " << imaging::to_string(order)
                  << " block_points=" << block_points << " voxel (" << it
                  << "," << ip << "," << id << ")";
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace us3d::beamform
