// A11 — the block hot path. The paper makes delay *generation* cheap;
// this bench tracks whether the host runtime can keep up: one batched
// compute_block + SoA delay-and-sum per smooth-order run. Reported per
// engine: wall time, voxels/s, and the measured number of virtual
// dispatches per voxel (counted with a forwarding engine wrapper, so the
// numbers are observed, not assumed). A second sweep forces each SIMD
// backend the host can run (scalar reference, SSE2, AVX2, ...) through the
// block path on the production TABLEFREE engine, so the explicit-SIMD
// kernels have a voxels/s trajectory of their own, and the same backends
// then time TABLEFREE's and TABLESTEER's compute_block alone (their SIMD
// receive-row and steer-row kernels) in M delays/s. A third sweep times
// the quantized int16 row kernels against the double kernels per backend
// on precomputed delay planes (the block-kernel sweep the quantized-path
// acceptance criterion is judged on), reports the one-off echo
// quantization cost separately, and gauges the quantized pipeline's
// deviation from the exact double volume against its declared error
// bounds. Emits BENCH_block.json for the cross-PR trajectory.
//
// Usage: bench_a11_block_kernel [--tiny]
//   --tiny shrinks the workload for CI smoke runs (seconds, not minutes).
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "acoustic/echo_synth.h"
#include "acoustic/metrics.h"
#include "beamform/beamformer.h"
#include "beamform/quantized.h"
#include "bench_util.h"
#include "delay/quantized_plane.h"
#include "delay/exact.h"
#include "delay/full_table.h"
#include "delay/synthetic_aperture.h"
#include "delay/tablefree.h"
#include "delay/tablesteer.h"
#include "imaging/system_config.h"
#include "simd/dispatch.h"

namespace {

using namespace us3d;
using Clock = std::chrono::steady_clock;

/// Forwarding decorator that counts virtual dispatches into the wrapped
/// engine. Lives in the bench, not the library: the library should never
/// need to know it is being counted.
class CountingEngine final : public delay::DelayEngine {
 public:
  explicit CountingEngine(std::unique_ptr<delay::DelayEngine> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  int element_count() const override { return inner_->element_count(); }
  std::unique_ptr<delay::DelayEngine> clone() const override {
    return std::make_unique<CountingEngine>(inner_->clone());
  }

  std::int64_t compute_calls = 0;
  std::int64_t block_calls = 0;
  std::int64_t block_points = 0;

 protected:
  void do_begin_frame(const Vec3& origin) override {
    inner_->begin_frame(origin);
  }
  void do_compute(const imaging::FocalPoint& fp,
                  std::span<std::int32_t> out) override {
    ++compute_calls;
    inner_->compute(fp, out);
  }
  void do_compute_block(const imaging::FocalBlock& block,
                        delay::DelayPlane& plane) override {
    ++block_calls;
    block_points += block.size();
    inner_->compute_block(block, plane);
  }

 private:
  std::unique_ptr<delay::DelayEngine> inner_;
};

struct BlockResult {
  double seconds = 0.0;
  double voxels_per_second = 0.0;
  double virtual_calls_per_voxel = 0.0;
};

BlockResult run_block(const beamform::Beamformer& bf,
                      const beamform::EchoBuffer& echoes,
                      CountingEngine& engine, std::int64_t voxels,
                      int repeats) {
  // Warm-up sweep so allocations reach their high-water mark before timing.
  bf.reconstruct(echoes, engine);
  engine.compute_calls = engine.block_calls = engine.block_points = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    bf.reconstruct(echoes, engine);
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const double total_voxels = static_cast<double>(voxels) * repeats;
  BlockResult result;
  result.seconds = seconds / repeats;
  result.voxels_per_second = seconds > 0.0 ? total_voxels / seconds : 0.0;
  result.virtual_calls_per_voxel =
      static_cast<double>(engine.compute_calls + engine.block_calls) /
      total_voxels;
  return result;
}

/// compute_block alone (delay generation, no DAS) over whole nappe-order
/// volumes of `make()`'s engine, in M delays/s, once per backend in
/// `sweep`. Engines resolve their row kernels per block from US3D_SIMD,
/// so each row forces the variable to its backend (restored afterwards).
/// Prints a table and returns the JSON array body.
std::string delay_backend_sweep(
    const std::string& title, const imaging::SystemConfig& cfg,
    const std::vector<simd::DasBackend>& sweep, int block_points,
    double budget_s,
    const std::function<std::unique_ptr<delay::DelayEngine>()>& make) {
  std::cout << '\n' << title << ":\n\n";
  const imaging::VolumeGrid grid(cfg.volume);
  const auto order = imaging::ScanOrder::kNappeByNappe;
  const double delays_per_sweep =
      static_cast<double>(cfg.volume.total_points()) *
      probe::MatrixProbe(cfg.probe).element_count();
  const char* env_simd = std::getenv("US3D_SIMD");
  const std::string saved_simd = env_simd != nullptr ? env_simd : "";
  MarkdownTable table({"backend", "M delays/s", "vs scalar"});
  std::ostringstream json;
  double scalar_mdelays = 0.0;
  for (const simd::DasBackend backend : sweep) {
    ::setenv("US3D_SIMD", simd::backend_name(backend), 1);
    const std::unique_ptr<delay::DelayEngine> engine = make();
    delay::DelayPlane plane;
    auto sweep_volume = [&] {
      engine->begin_frame(Vec3{});
      imaging::for_each_focal_block(
          grid, order, imaging::full_scan_range(cfg.volume, order),
          block_points, [&](const imaging::FocalBlock& block) {
            engine->compute_block(block, plane);
          });
    };
    sweep_volume();  // warm-up
    int sweeps = 0;
    double seconds = 0.0;
    const auto t0 = Clock::now();
    do {
      sweep_volume();
      ++sweeps;
      seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (seconds < budget_s);
    if (env_simd != nullptr) {
      ::setenv("US3D_SIMD", saved_simd.c_str(), 1);
    } else {
      ::unsetenv("US3D_SIMD");
    }
    const double mdelays = delays_per_sweep * sweeps / seconds / 1e6;
    if (backend == simd::DasBackend::kScalar) scalar_mdelays = mdelays;
    const double speedup =
        scalar_mdelays > 0.0 ? mdelays / scalar_mdelays : 0.0;
    table.add_row({simd::backend_name(backend), format_double(mdelays, 1),
                   format_double(speedup, 2) + "x"});
    if (json.tellp() > 0) json << ',';
    json << "{\"backend\":\"" << simd::backend_name(backend)
         << "\",\"mdelays_per_second\":" << mdelays
         << ",\"speedup\":" << speedup << '}';
  }
  table.print(std::cout);
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }

  bench::banner("A11", "block reconstruction hot path");

  const imaging::SystemConfig cfg =
      tiny ? imaging::scaled_system(6, 10, 40)
           : imaging::scaled_system(12, 24, 120);
  const int repeats = tiny ? 1 : 2;
  const probe::MatrixProbe probe(cfg.probe);
  const probe::ApodizationMap apod(probe, probe::WindowKind::kHann);
  const beamform::Beamformer bf(cfg, apod);

  const imaging::VolumeGrid grid(cfg.volume);
  const acoustic::Phantom phantom{
      acoustic::PointScatterer{
          grid.focal_point(cfg.volume.n_theta / 2, cfg.volume.n_phi / 2,
                           cfg.volume.n_depth / 2)
              .position,
          1.0},
  };
  const beamform::EchoBuffer echoes = acoustic::synthesize_echoes(cfg, phantom);
  const std::int64_t voxels = cfg.volume.total_points();

  std::cout << "probe " << cfg.probe.elements_x << 'x' << cfg.probe.elements_y
            << ", volume " << cfg.volume.n_theta << 'x' << cfg.volume.n_phi
            << 'x' << cfg.volume.n_depth << " (" << voxels << " voxels), "
            << repeats << " repeat(s)\n";

  struct EngineCase {
    std::string label;
    std::unique_ptr<delay::DelayEngine> engine;
  };
  std::vector<EngineCase> cases;
  cases.push_back({"EXACT", std::make_unique<delay::ExactDelayEngine>(cfg)});
  cases.push_back({"TABLEFREE",
                   std::make_unique<delay::TableFreeEngine>(cfg)});
  cases.push_back({"TABLESTEER-18b",
                   std::make_unique<delay::TableSteerEngine>(cfg)});
  cases.push_back({"FULLTABLE",
                   std::make_unique<delay::FullTableEngine>(cfg)});
  cases.push_back(
      {"TABLESTEER-SA", std::make_unique<delay::SyntheticApertureSteerEngine>(
                            cfg, delay::diverging_wave_plan(2, 3.0e-3))});

  MarkdownTable table(
      {"engine", "block [ms]", "block voxels/s", "vcalls/voxel"});
  std::ostringstream engines_json;
  for (EngineCase& c : cases) {
    CountingEngine counted(std::move(c.engine));
    const BlockResult block = run_block(bf, echoes, counted, voxels, repeats);
    table.add_row({c.label, format_double(block.seconds * 1e3, 2),
                   format_si(block.voxels_per_second, "voxels/s", 2),
                   format_double(block.virtual_calls_per_voxel, 5)});
    if (engines_json.tellp() > 0) engines_json << ',';
    engines_json << "{\"engine\":\"" << c.label << "\""
                 << ",\"block\":{\"seconds\":" << block.seconds
                 << ",\"voxels_per_second\":" << block.voxels_per_second
                 << ",\"virtual_calls_per_voxel\":"
                 << block.virtual_calls_per_voxel << "}}";
  }
  table.print(std::cout);
  std::cout << "\nThe block path makes ~1/block_size virtual calls per "
               "voxel, skips zero-weight\nelements via a precomputed active "
               "list, and sweeps SoA delay rows with\ncontiguous, "
               "auto-vectorizable loops. Output is bit-identical to a "
               "per-point\nsweep (tests/beamform/test_das_kernel.cpp).\n";

  // Per-backend sweep of the explicit-SIMD DAS row kernels: the block path
  // on the production TABLEFREE engine, with BeamformOptions::simd forced
  // to each backend the host can run. Every backend's volume is
  // bit-identical (property-tested); only the wall time may differ.
  const simd::DasBackend selected = simd::resolve_backend(
      simd::DasBackend::kAuto);
  std::cout << "\nSIMD backend sweep (block path, TABLEFREE; auto selects '"
            << simd::backend_name(selected) << "'):\n\n";
  delay::TableFreeEngine simd_engine(cfg);
  // Scalar first (available_backends() lists it last) so the other rows
  // can report their speedup against the reference inline.
  std::vector<simd::DasBackend> sweep{simd::DasBackend::kScalar};
  for (const simd::DasBackend backend : simd::available_backends()) {
    if (backend != simd::DasBackend::kScalar) sweep.push_back(backend);
  }
  MarkdownTable simd_table({"backend", "block [ms]", "voxels/s", "vs scalar"});
  std::ostringstream simd_json;
  double scalar_seconds = 0.0;
  for (const simd::DasBackend backend : sweep) {
    const beamform::BeamformOptions options{.simd = backend};
    bf.reconstruct(echoes, simd_engine, options);  // warm-up
    const auto t0 = Clock::now();
    for (int r = 0; r < repeats; ++r) {
      bf.reconstruct(echoes, simd_engine, options);
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count() / repeats;
    const double vps =
        seconds > 0.0 ? static_cast<double>(voxels) / seconds : 0.0;
    if (backend == simd::DasBackend::kScalar) scalar_seconds = seconds;
    const double speedup =
        seconds > 0.0 && scalar_seconds > 0.0 ? scalar_seconds / seconds : 0.0;
    simd_table.add_row({simd::backend_name(backend),
                        format_double(seconds * 1e3, 2),
                        format_si(vps, "voxels/s", 2),
                        format_double(speedup, 2) + "x"});
    if (simd_json.tellp() > 0) simd_json << ',';
    simd_json << "{\"backend\":\"" << simd::backend_name(backend)
              << "\",\"seconds\":" << seconds
              << ",\"voxels_per_second\":" << vps << ",\"speedup\":" << speedup
              << '}';
  }
  simd_table.print(std::cout);

  // Per-backend sweeps of the delay row kernels: compute_block alone
  // (delay generation, no DAS) over the whole volume, for TABLEFREE's
  // receive rows and TABLESTEER's steer rows. Delays are bit-identical on
  // every backend (tests/simd/test_pwl_row.cpp, test_steer_row.cpp);
  // only the rate differs.
  const int delay_block_points =
      beamform::Beamformer::auto_block_points(probe.element_count());
  const double delay_budget_s = tiny ? 0.05 : 0.5;
  const std::string delay_json = delay_backend_sweep(
      "TABLEFREE compute_block sweep (delay generation only, fixed-point "
      "receive rows)",
      cfg, sweep, delay_block_points, delay_budget_s,
      [&cfg] { return std::make_unique<delay::TableFreeEngine>(cfg); });
  const std::string steer_json = delay_backend_sweep(
      "TABLESTEER-18b compute_block sweep (delay generation only, steer "
      "rows)",
      cfg, sweep, delay_block_points, delay_budget_s,
      [&cfg] { return std::make_unique<delay::TableSteerEngine>(cfg); });

  // Quantized block-kernel sweep: double vs int16 row kernels per backend,
  // on delay planes precomputed (and pre-quantized) outside the timed
  // region — pure kernel throughput, which is what the int16 path's
  // >= 1.5x-of-double acceptance criterion is defined over. The one-off
  // per-frame costs (echo quantization; the per-block int16 plane
  // requantization is folded into the pipeline numbers below) are
  // reported separately.
  std::cout << "\nQuantized kernel sweep (int16 row kernels vs double, "
               "TABLEFREE planes):\n\n";
  const beamform::DasKernel& kernel = bf.kernel();
  delay::TableFreeEngine plane_engine(cfg);
  plane_engine.begin_frame(Vec3{});
  const int kernel_block_points =
      beamform::Beamformer::auto_block_points(probe.element_count());
  std::vector<delay::DelayPlane> planes;
  std::vector<delay::QuantizedDelayPlane> qplanes;
  {
    delay::DelayPlane plane;
    delay::QuantizedDelayPlane qplane;
    constexpr int kMaxKernelBlocks = 64;
    imaging::for_each_focal_block(
        grid, imaging::ScanOrder::kNappeByNappe,
        imaging::full_scan_range(cfg.volume, imaging::ScanOrder::kNappeByNappe),
        kernel_block_points, [&](const imaging::FocalBlock& block) {
          if (static_cast<int>(planes.size()) >= kMaxKernelBlocks) return;
          plane_engine.compute_block(block, plane);
          qplane.quantize_from(plane, echoes.samples_per_element());
          planes.push_back(plane);
          qplanes.push_back(qplane);
        });
  }
  std::int64_t kernel_points = 0;
  for (const delay::DelayPlane& plane : planes) {
    kernel_points += plane.point_count();
  }

  beamform::QuantizedEchoBuffer qechoes;
  const auto tq0 = Clock::now();
  qechoes.quantize_from(echoes);
  const double quantize_echo_seconds =
      std::chrono::duration<double>(Clock::now() - tq0).count();

  std::vector<double> kacc(static_cast<std::size_t>(kernel_block_points));
  std::vector<std::int32_t> kqacc(
      static_cast<std::size_t>((kernel_block_points + 15) / 16 * 16));
  // Time-based batching: sweep the precomputed blocks until the budget is
  // spent, so every backend gets a comparable measurement window. The
  // measurement repeats in alternating double/quantized pairs and keeps
  // each side's best rate — on a shared host, steal time only ever makes a
  // window look slower, so max-of-reps converges on the machine's true
  // rate and the alternation keeps slow spells from biasing the ratio.
  const double kernel_budget_s = tiny ? 0.05 : 0.25;
  const int kernel_reps = 5;
  auto time_kernel = [&](auto&& sweep_once) {
    sweep_once();  // warm-up
    const auto t0 = Clock::now();
    std::int64_t swept = 0;
    double seconds = 0.0;
    do {
      sweep_once();
      swept += kernel_points;
      seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (seconds < kernel_budget_s);
    return seconds > 0.0 ? static_cast<double>(swept) / seconds : 0.0;
  };

  MarkdownTable q_table({"backend", "double voxels/s", "quantized voxels/s",
                         "quantized/double"});
  std::ostringstream q_json;
  for (const simd::DasBackend backend : sweep) {
    double double_vps = 0.0;
    double quantized_vps = 0.0;
    for (int rep = 0; rep < kernel_reps; ++rep) {
      double_vps = std::max(double_vps, time_kernel([&] {
        for (std::size_t b = 0; b < planes.size(); ++b) {
          kernel.accumulate_block(echoes, planes[b], kacc, backend);
        }
      }));
      quantized_vps = std::max(quantized_vps, time_kernel([&] {
        for (std::size_t b = 0; b < qplanes.size(); ++b) {
          kernel.accumulate_block_quantized(qechoes, qplanes[b], kqacc,
                                            backend);
        }
      }));
    }
    const double q_speedup =
        double_vps > 0.0 ? quantized_vps / double_vps : 0.0;
    q_table.add_row({simd::backend_name(backend),
                     format_si(double_vps, "voxels/s", 2),
                     format_si(quantized_vps, "voxels/s", 2),
                     format_double(q_speedup, 2) + "x"});
    if (q_json.tellp() > 0) q_json << ',';
    q_json << "{\"backend\":\"" << simd::backend_name(backend)
           << "\",\"double_voxels_per_second\":" << double_vps
           << ",\"quantized_voxels_per_second\":" << quantized_vps
           << ",\"speedup\":" << q_speedup << '}';
  }
  q_table.print(std::cout);
  std::cout << "\necho quantization (once per frame): "
            << format_double(quantize_echo_seconds * 1e3, 2) << " ms\n";

  // End-to-end: the quantized pipeline against the exact double volume on
  // the same engine/echoes, judged against the declared error bounds.
  const beamform::BeamformOptions dopts{.precision = simd::Precision::kDouble};
  const beamform::BeamformOptions qopts{
      .precision = simd::Precision::kQuantized};
  delay::TableFreeEngine e2e_engine(cfg);
  bf.reconstruct(echoes, e2e_engine, dopts);  // warm-up
  auto te0 = Clock::now();
  const beamform::VolumeImage double_volume =
      bf.reconstruct(echoes, e2e_engine, dopts);
  const double double_pipeline_s =
      std::chrono::duration<double>(Clock::now() - te0).count();
  bf.reconstruct(echoes, e2e_engine, qopts);  // warm-up
  te0 = Clock::now();
  const beamform::VolumeImage quantized_volume =
      bf.reconstruct(echoes, e2e_engine, qopts);
  const double quantized_pipeline_s =
      std::chrono::duration<double>(Clock::now() - te0).count();
  const acoustic::VolumeDiff diff =
      acoustic::compare_volumes(double_volume, quantized_volume);
  const double psnr_db = std::min(diff.psnr_db, 999.0);  // JSON has no inf
  const bool within_bounds = psnr_db >= beamform::kQuantMinPsnrDb;
  std::cout << "quantized pipeline: "
            << format_double(quantized_pipeline_s * 1e3, 2) << " ms vs double "
            << format_double(double_pipeline_s * 1e3, 2) << " ms; PSNR "
            << format_double(psnr_db, 1) << " dB (bound "
            << format_double(beamform::kQuantMinPsnrDb, 0) << " dB, "
            << (within_bounds ? "within" : "OUTSIDE") << " bounds)\n";

  std::ofstream json("BENCH_block.json");
  json << "{\"bench\":\"a11_block_kernel\",\"tiny\":" << (tiny ? "true" : "false")
       << ",\"probe\":\"" << cfg.probe.elements_x << 'x'
       << cfg.probe.elements_y << "\",\"volume\":\"" << cfg.volume.n_theta
       << 'x' << cfg.volume.n_phi << 'x' << cfg.volume.n_depth << "\","
       << "\"voxels\":" << voxels << ",\"repeats\":" << repeats
       << ",\"engines\":[" << engines_json.str() << ']'
       << ",\"simd_selected\":\"" << simd::backend_name(selected) << '"'
       << ",\"simd_backends\":[" << simd_json.str() << ']'
       << ",\"delay_backends\":[" << delay_json << ']'
       << ",\"steer_backends\":[" << steer_json << ']'
       << ",\"quantized\":{\"weight_frac_bits\":" << simd::kQuantWeightFracBits
       << ",\"kernel_backends\":[" << q_json.str() << ']'
       << ",\"quantize_echo_seconds\":" << quantize_echo_seconds
       << ",\"pipeline\":{\"double_seconds\":" << double_pipeline_s
       << ",\"quantized_seconds\":" << quantized_pipeline_s
       << ",\"speedup\":"
       << (quantized_pipeline_s > 0.0 ? double_pipeline_s / quantized_pipeline_s
                                      : 0.0)
       << '}'
       << ",\"error\":{\"max_abs_diff\":" << diff.max_abs_diff
       << ",\"rms_diff\":" << diff.rms_diff << ",\"psnr_db\":" << psnr_db
       << ",\"min_psnr_db\":" << beamform::kQuantMinPsnrDb
       << ",\"max_delay_error_samples\":"
       << beamform::kQuantMaxDelayErrorSamples
       << ",\"within_bounds\":" << (within_bounds ? "true" : "false")
       << "}}}\n";
  std::cout << "\nwrote BENCH_block.json\n";
  return 0;
}
