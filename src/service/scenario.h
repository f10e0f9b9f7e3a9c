// Declarative imaging scenarios — the enumerable surface behind "handles
// as many scenarios as you can imagine". A Scenario names one complete
// workload: probe preset x volume/scan geometry x delay-engine family x
// synthetic-aperture compounding x SIMD backend x ingest pacing x runtime
// shape (workers, queue depth). The imaging service admits sessions by
// Scenario, benches sweep them, and the JSON round-trip makes the catalog
// a wire format: a client can POST the same descriptor the tests pin.
//
// Scenarios are *descriptions*, not live objects: system() / make_engine()
// / pipeline_config() materialize the pieces the runtime needs. The
// built-in catalog spans every delay-engine family the paper discusses, so
// "all five engines" is a loop over ScenarioCatalog::builtin(), not a
// hand-maintained list in each test.
#ifndef US3D_SERVICE_SCENARIO_H
#define US3D_SERVICE_SCENARIO_H

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "delay/engine.h"
#include "delay/synthetic_aperture.h"
#include "imaging/scan_order.h"
#include "imaging/system_config.h"
#include "runtime/frame_pipeline.h"
#include "runtime/frame_source.h"
#include "simd/dispatch.h"

namespace us3d::service {

/// The five delay-generation families of the reproduction (Sec. III-V).
enum class EngineFamily {
  kExact,         ///< double-precision reference (no hardware model)
  kTableFree,     ///< on-the-fly PWL sqrt per element (Sec. IV)
  kTableSteer,    ///< reference table + steering plane (Sec. V)
  kFullTable,     ///< one precomputed table entry per (point, element)
  kTableSteerSA,  ///< TABLESTEER with per-insonification origins
};

/// Lower-case stable name ("exact", "tablefree", "tablesteer",
/// "fulltable", "tablesteer_sa").
const char* family_name(EngineFamily family);
/// Inverse of family_name(); nullopt for anything unrecognised.
std::optional<EngineFamily> parse_family(std::string_view name);

struct Scenario {
  /// Catalog key; also the JSON "name". Must be non-empty.
  std::string name;

  // --- geometry ------------------------------------------------------
  /// Probe elements per side (probe::small_probe); the volume scales with
  /// the line count exactly like imaging::scaled_system.
  int probe_elements = 8;
  int n_lines = 12;  ///< theta = phi lines of sight
  int n_depth = 48;  ///< focal points per line
  imaging::ScanOrder order = imaging::ScanOrder::kNappeByNappe;

  // --- delay engine --------------------------------------------------
  EngineFamily engine = EngineFamily::kTableFree;
  /// TABLESTEER entry width (18, 14 or 13); ignored by other families.
  int table_bits = 18;
  /// Synthetic-aperture plan (kTableSteerSA only): origin count and how
  /// far behind the probe the deepest virtual source sits.
  int sa_origins = 4;
  double sa_backoff_m = 4.0e-3;

  // --- runtime shape -------------------------------------------------
  /// Compounding factor K: coherently sum K successive insonifications
  /// per delivered volume (1 disables).
  int compound_origins = 1;
  simd::DasBackend simd = simd::DasBackend::kAuto;
  /// Arithmetic precision of the beamform hot path: "double" runs the
  /// exact IEEE reference, "quantized" the int16 end-to-end fixed-point
  /// sweep, "auto" defers to US3D_PRECISION (then double). Reported per
  /// session in SessionStats::precision.
  simd::Precision precision = simd::Precision::kAuto;
  /// How a front-end feeding this scenario paces frame delivery
  /// (runtime::StreamedFrameSource); the service itself never sleeps.
  runtime::IngestPacing pacing = runtime::IngestPacing::kReportOnly;
  /// Requested sweep parallelism; the service grants at most this many
  /// workers from its shared budget.
  int worker_threads = 2;
  /// Requested in-flight volumes; the service grants at most this many
  /// ring slots from its shared budget.
  int queue_depth = 2;

  bool operator==(const Scenario&) const = default;

  /// Throws ContractViolation naming the offending field.
  void validate() const;

  /// The scaled SystemConfig this scenario images.
  imaging::SystemConfig system() const;
  /// A configured prototype engine (clone()d per worker by the pipeline).
  std::unique_ptr<delay::DelayEngine> make_engine() const;
  /// The PipelineConfig a dedicated pipeline for this scenario would use
  /// (the service overrides workers with its granted share). Queue depth
  /// and compounding are session options (runtime::AsyncOptions).
  runtime::PipelineConfig pipeline_config() const;
  /// The shot plan for kTableSteerSA scenarios (origin_count 1 otherwise).
  delay::SyntheticAperturePlan sa_plan() const;
  /// Transmit origins for a stream of `frames` insonifications: cycles the
  /// SA plan for kTableSteerSA, the centred origin for everything else.
  std::vector<Vec3> origins(int frames) const;

  /// Single JSON object, one key per field (no trailing newline).
  std::string to_json() const;
  /// Inverse of to_json(): tolerant of whitespace and key order, strict
  /// about unknown enum values and malformed fields (throws
  /// ContractViolation). Missing fields keep their defaults; "name" is
  /// required. The result is validate()d.
  static Scenario from_json(std::string_view json);
};

/// A named, ordered set of scenarios.
class ScenarioCatalog {
 public:
  /// Adds (or replaces, by name) a validated scenario.
  void add(Scenario scenario);

  const Scenario* find(std::string_view name) const;
  const std::vector<Scenario>& scenarios() const { return scenarios_; }
  std::vector<std::string> names() const;
  std::size_t size() const { return scenarios_.size(); }

  /// JSON array of every scenario, in catalog order.
  std::string to_json() const;

  /// The built-in catalog: at least one scenario per delay-engine family
  /// (all five), plus variants exercising compounding, per-voxel-scale
  /// geometry, wall-clock pacing and reduced table widths.
  static ScenarioCatalog builtin();

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace us3d::service

#endif  // US3D_SERVICE_SCENARIO_H
