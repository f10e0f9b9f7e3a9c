// Streaming-runtime quickstart, in two acts:
//
//  1) Source-driven streaming: synthesize a diverging-wave shot sequence,
//     wrap it in the DRAM-ingest model with WALL-CLOCK pacing (frames
//     arrive at the modeled acquisition rate, not as fast as memcpy), and
//     stream it through AsyncPipeline::run with 4-origin compounding —
//     every delivered volume is the coherent sum of one full
//     synthetic-aperture cycle.
//
//  2) Caller-driven streaming: an acquisition-style loop that
//     try_submit()s frames (non-blocking backpressure) and poll()s
//     finished volumes off the bounded pipeline, the way a live front-end
//     would.
#include <iostream>
#include <vector>

#include "acoustic/echo_synth.h"
#include "delay/synthetic_aperture.h"
#include "delay/tablefree.h"
#include "runtime/async_pipeline.h"
#include "runtime/frame_pipeline.h"

int main() {
  using namespace us3d;

  const imaging::SystemConfig cfg = imaging::scaled_system(10, 16, 80);
  const imaging::VolumeGrid grid(cfg.volume);
  const acoustic::Phantom phantom{
      acoustic::PointScatterer{grid.focal_point(8, 8, 40).position, 1.0}};
  const probe::ApodizationMap apod(probe::MatrixProbe(cfg.probe),
                                   probe::WindowKind::kHann);

  // --- Act 1: paced ingest + compounding through AsyncPipeline::run -----
  const delay::SyntheticAperturePlan plan = delay::diverging_wave_plan(4, 3e-3);
  std::vector<runtime::EchoFrame> frames;
  for (int shot = 0; shot < 8; ++shot) {
    const Vec3 origin{0.0, 0.0,
                      plan.origin_z[static_cast<std::size_t>(shot % 4)]};
    acoustic::SynthesisOptions synth;
    synth.origin = origin;
    frames.push_back(runtime::EchoFrame{
        acoustic::synthesize_echoes(cfg, phantom, synth), origin, shot});
  }
  runtime::ReplayFrameSource replay(frames);

  // Model the echo front-end: a 2k-word buffer refilled at 1 GB/s while
  // the beamformer drains one word per cycle at 100 MHz. kWallClock makes
  // next_frame() hold deliveries to that modeled acquisition rate.
  hw::StreamBufferConfig ingest;
  ingest.capacity_words = 2048;
  ingest.clock_hz = 100.0e6;
  ingest.dram_bandwidth_bytes_per_s = 1.0e9;
  ingest.word_bits = 32;
  ingest.drain_words_per_cycle = 1.0;
  ingest.initial_fill_words = 256;
  runtime::StreamedFrameSource source(replay, ingest,
                                      runtime::IngestPacing::kWallClock);

  delay::SyntheticApertureSteerEngine sa_prototype(cfg, plan);
  runtime::FramePipeline pipeline(
      cfg, apod, sa_prototype, runtime::PipelineConfig{.worker_threads = 4});

  std::cout << "engine: " << pipeline.engine_name() << ", "
            << pipeline.worker_threads() << " workers over "
            << pipeline.ranges().size() << " nappe ranges, compounding "
            << 4 << " origins per volume\n\n";

  runtime::AsyncPipeline session(
      pipeline, runtime::AsyncOptions{.depth = 3, .compound_origins = 4});
  const runtime::PipelineStats stats = session.run(
      source, [](const beamform::VolumeImage& volume, std::int64_t seq) {
        const auto peak = volume.peak_abs();
        std::cout << "compound volume (through shot " << seq << "): peak "
                  << peak.value << " at (" << peak.i_theta << ","
                  << peak.i_phi << "," << peak.i_depth << ")\n";
      });

  std::cout << '\n' << stats.to_string();
  const runtime::IngestModelReport& report = source.report();
  std::cout << "\ningest model: "
            << (report.feasible() ? "feasible" : "UNDERRUNS") << ", "
            << report.frames << " frames, modeled acquisition "
            << report.modeled_ingest_s * 1e3 << " ms, paced wait "
            << report.paced_wait_s * 1e3 << " ms\n";

  // --- Act 2: caller-driven, acquisition-front-end style ----------------
  std::cout << "\n--- async submit/poll (non-blocking backpressure) ---\n";
  delay::TableFreeEngine tf_prototype(cfg);
  runtime::FramePipeline async_host(
      cfg, apod, tf_prototype, runtime::PipelineConfig{.worker_threads = 4});
  runtime::AsyncPipeline async(async_host,
                               runtime::AsyncOptions{.depth = 2});
  int delivered = 0;
  const runtime::VolumeSink sink = [&](const beamform::VolumeImage&,
                                       std::int64_t seq) {
    std::cout << "  delivered volume " << seq << "\n";
    ++delivered;
  };
  int refusals = 0;
  for (runtime::EchoFrame& f : frames) {
    f.origin = Vec3{};  // TABLEFREE run: centred origin
    while (!async.try_submit(f)) {
      ++refusals;  // queue full: a live front-end would shed or buffer;
      if (!async.wait_one(sink)) break;  // we drain one volume instead —
    }                                    // false means pipeline failure
    if (async.failed()) break;
    (void)async.poll(sink);  // opportunistic, never blocks
  }
  const runtime::PipelineStats async_stats = async.finish(sink);
  async.rethrow_if_failed();
  std::cout << "submitted " << async_stats.insonifications << ", delivered "
            << delivered << ", backpressure refusals " << refusals << ", "
            << async_stats.sustained_fps() << " fps sustained\n";
  return 0;
}
