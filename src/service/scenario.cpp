#include "service/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/contracts.h"
#include "common/json_reader.h"
#include "common/json_writer.h"
#include "delay/exact.h"
#include "delay/full_table.h"
#include "delay/tablefree.h"
#include "delay/tablesteer.h"

namespace us3d::service {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw ContractViolation("scenario: " + what);
}

const char* order_name(imaging::ScanOrder order) {
  return order == imaging::ScanOrder::kNappeByNappe ? "nappe" : "scanline";
}

std::optional<imaging::ScanOrder> parse_order(std::string_view name) {
  if (name == "nappe") return imaging::ScanOrder::kNappeByNappe;
  if (name == "scanline") return imaging::ScanOrder::kScanlineByScanline;
  return std::nullopt;
}

const char* pacing_name(runtime::IngestPacing pacing) {
  return pacing == runtime::IngestPacing::kWallClock ? "wall_clock"
                                                     : "report_only";
}

std::optional<runtime::IngestPacing> parse_pacing(std::string_view name) {
  if (name == "report_only") return runtime::IngestPacing::kReportOnly;
  if (name == "wall_clock") return runtime::IngestPacing::kWallClock;
  return std::nullopt;
}

// JSON I/O rides the shared common/ layer: JsonWriter out, parse_json in
// (both grown from this module's original flat emitter/parser, so the
// wire format and the house strictness — reject duplicates, unknowns and
// trailing text — are unchanged). The field-level type errors keep their
// names via the accessor `what` argument.

int to_int(const std::string& field, const JsonValue& v) {
  const std::int64_t n = v.as_int(field);
  if (n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    bad(field + " is out of range");
  }
  return static_cast<int>(n);
}

}  // namespace

const char* family_name(EngineFamily family) {
  switch (family) {
    case EngineFamily::kExact:
      return "exact";
    case EngineFamily::kTableFree:
      return "tablefree";
    case EngineFamily::kTableSteer:
      return "tablesteer";
    case EngineFamily::kFullTable:
      return "fulltable";
    case EngineFamily::kTableSteerSA:
      return "tablesteer_sa";
  }
  return "?";
}

std::optional<EngineFamily> parse_family(std::string_view name) {
  for (const EngineFamily f :
       {EngineFamily::kExact, EngineFamily::kTableFree,
        EngineFamily::kTableSteer, EngineFamily::kFullTable,
        EngineFamily::kTableSteerSA}) {
    if (name == family_name(f)) return f;
  }
  return std::nullopt;
}

void Scenario::validate() const {
  if (name.empty()) bad("name must be non-empty");
  if (probe_elements < 2) bad("probe_elements must be >= 2");
  if (n_lines < 2) bad("n_lines must be >= 2");
  if (n_depth < 2) bad("n_depth must be >= 2");
  if (table_bits != 18 && table_bits != 14 && table_bits != 13) {
    bad("table_bits must be one of 18, 14, 13");
  }
  if (sa_origins < 1) bad("sa_origins must be >= 1");
  if (!std::isfinite(sa_backoff_m) || sa_backoff_m < 0.0) {
    bad("sa_backoff_m must be finite and >= 0");
  }
  if (compound_origins < 1) bad("compound_origins must be >= 1");
  if (worker_threads < 1) bad("worker_threads must be >= 1");
  if (queue_depth < 1) bad("queue_depth must be >= 1");
}

imaging::SystemConfig Scenario::system() const {
  return imaging::scaled_system(probe_elements, n_lines, n_depth);
}

delay::SyntheticAperturePlan Scenario::sa_plan() const {
  if (engine != EngineFamily::kTableSteerSA) {
    return delay::diverging_wave_plan(1, 0.0);
  }
  return delay::diverging_wave_plan(sa_origins, sa_backoff_m);
}

std::vector<Vec3> Scenario::origins(int frames) const {
  US3D_EXPECTS(frames >= 0);
  std::vector<Vec3> out;
  out.reserve(static_cast<std::size_t>(frames));
  if (engine != EngineFamily::kTableSteerSA) {
    out.assign(static_cast<std::size_t>(frames), Vec3{});
    return out;
  }
  const delay::SyntheticAperturePlan plan = sa_plan();
  for (int i = 0; i < frames; ++i) {
    const double z =
        plan.origin_z[static_cast<std::size_t>(i) % plan.origin_z.size()];
    out.push_back(Vec3{0.0, 0.0, z});
  }
  return out;
}

namespace {

delay::TableSteerConfig steer_config(int bits) {
  switch (bits) {
    case 18:
      return delay::TableSteerConfig::bits18();
    case 14:
      return delay::TableSteerConfig::bits14();
    default:
      return delay::TableSteerConfig::bits13();
  }
}

}  // namespace

std::unique_ptr<delay::DelayEngine> Scenario::make_engine() const {
  validate();
  const imaging::SystemConfig cfg = system();
  switch (engine) {
    case EngineFamily::kExact:
      return std::make_unique<delay::ExactDelayEngine>(cfg);
    case EngineFamily::kTableFree: {
      delay::TableFreeConfig tf;
      // Widen the sqrt domain for displaced origins if a plan ever feeds
      // this scenario off-centre frames (harmless when centred).
      tf.max_origin_backoff_m = sa_backoff_m;
      return std::make_unique<delay::TableFreeEngine>(cfg, tf);
    }
    case EngineFamily::kTableSteer:
      return std::make_unique<delay::TableSteerEngine>(
          cfg, steer_config(table_bits));
    case EngineFamily::kFullTable:
      return std::make_unique<delay::FullTableEngine>(cfg);
    case EngineFamily::kTableSteerSA:
      return std::make_unique<delay::SyntheticApertureSteerEngine>(
          cfg, sa_plan(), steer_config(table_bits));
  }
  bad("unknown engine family");
}

runtime::PipelineConfig Scenario::pipeline_config() const {
  runtime::PipelineConfig pc;
  pc.worker_threads = worker_threads;
  pc.order = order;
  pc.simd = simd;
  pc.precision = precision;
  return pc;
}

std::string Scenario::to_json() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("name", name)
      .kv("probe_elements", probe_elements)
      .kv("n_lines", n_lines)
      .kv("n_depth", n_depth)
      .kv("order", order_name(order))
      .kv("engine", family_name(engine))
      .kv("table_bits", table_bits)
      .kv("sa_origins", sa_origins)
      .kv("sa_backoff_m", sa_backoff_m)
      .kv("compound_origins", compound_origins)
      .kv("simd", simd::backend_name(simd))
      .kv("precision", simd::precision_name(precision))
      .kv("pacing", pacing_name(pacing))
      .kv("worker_threads", worker_threads)
      .kv("queue_depth", queue_depth)
      .end_object();
  return os.str();
}

Scenario Scenario::from_json(std::string_view json) {
  const JsonValue doc = parse_json(json);
  if (!doc.is_object()) bad("descriptor must be a JSON object");
  Scenario s;
  bool named = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "name") {
      s.name = value.as_string(key);
      named = true;
    } else if (key == "probe_elements") {
      s.probe_elements = to_int(key, value);
    } else if (key == "n_lines") {
      s.n_lines = to_int(key, value);
    } else if (key == "n_depth") {
      s.n_depth = to_int(key, value);
    } else if (key == "order") {
      const auto order = parse_order(value.as_string(key));
      if (!order) bad("unknown scan order '" + value.text() + "'");
      s.order = *order;
    } else if (key == "engine") {
      const auto family = parse_family(value.as_string(key));
      if (!family) bad("unknown engine family '" + value.text() + "'");
      s.engine = *family;
    } else if (key == "table_bits") {
      s.table_bits = to_int(key, value);
    } else if (key == "sa_origins") {
      s.sa_origins = to_int(key, value);
    } else if (key == "sa_backoff_m") {
      s.sa_backoff_m = value.as_double(key);
    } else if (key == "compound_origins") {
      s.compound_origins = to_int(key, value);
    } else if (key == "simd") {
      const auto backend = simd::parse_backend(value.as_string(key));
      if (!backend) bad("unknown simd backend '" + value.text() + "'");
      s.simd = *backend;
    } else if (key == "precision") {
      const auto precision = simd::parse_precision(value.as_string(key));
      if (!precision) bad("unknown precision '" + value.text() + "'");
      s.precision = *precision;
    } else if (key == "pacing") {
      const auto pacing = parse_pacing(value.as_string(key));
      if (!pacing) bad("unknown ingest pacing '" + value.text() + "'");
      s.pacing = *pacing;
    } else if (key == "worker_threads") {
      s.worker_threads = to_int(key, value);
    } else if (key == "queue_depth") {
      s.queue_depth = to_int(key, value);
    } else {
      bad("unknown field '" + key + "'");
    }
  }
  if (!named) bad("missing required field 'name'");
  s.validate();
  return s;
}

void ScenarioCatalog::add(Scenario scenario) {
  scenario.validate();
  const auto it =
      std::find_if(scenarios_.begin(), scenarios_.end(),
                   [&](const Scenario& s) { return s.name == scenario.name; });
  if (it != scenarios_.end()) {
    *it = std::move(scenario);
  } else {
    scenarios_.push_back(std::move(scenario));
  }
}

const Scenario* ScenarioCatalog::find(std::string_view name) const {
  for (const Scenario& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> ScenarioCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const Scenario& s : scenarios_) out.push_back(s.name);
  return out;
}

std::string ScenarioCatalog::to_json() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    if (i) os << ',';
    os << scenarios_[i].to_json();
  }
  os << ']';
  return os.str();
}

ScenarioCatalog ScenarioCatalog::builtin() {
  ScenarioCatalog catalog;
  // One scenario per engine family, sized so a whole-catalog sweep stays
  // test-fast; names follow the clinical workload they stand in for.
  catalog.add(Scenario{.name = "exact-reference",
                       .engine = EngineFamily::kExact,
                       .worker_threads = 1,
                       .queue_depth = 1});
  catalog.add(Scenario{.name = "tablefree-interactive",
                       .engine = EngineFamily::kTableFree,
                       .worker_threads = 2,
                       .queue_depth = 2});
  catalog.add(Scenario{.name = "tablesteer-cardiac-18b",
                       .engine = EngineFamily::kTableSteer,
                       .table_bits = 18,
                       .worker_threads = 2,
                       .queue_depth = 2});
  catalog.add(Scenario{.name = "tablesteer-lowpower-14b",
                       .probe_elements = 6,
                       .n_lines = 10,
                       .n_depth = 40,
                       .engine = EngineFamily::kTableSteer,
                       .table_bits = 14,
                       .worker_threads = 1,
                       .queue_depth = 1});
  catalog.add(Scenario{.name = "fulltable-smallfield",
                       .probe_elements = 6,
                       .n_lines = 10,
                       .n_depth = 32,
                       .engine = EngineFamily::kFullTable,
                       .worker_threads = 1,
                       .queue_depth = 2});
  catalog.add(Scenario{.name = "sa-compound-volumetric",
                       .engine = EngineFamily::kTableSteerSA,
                       .sa_origins = 4,
                       .compound_origins = 4,
                       .worker_threads = 2,
                       .queue_depth = 2});
  catalog.add(Scenario{.name = "tablefree-paced-freehand",
                       .order = imaging::ScanOrder::kScanlineByScanline,
                       .engine = EngineFamily::kTableFree,
                       .pacing = runtime::IngestPacing::kWallClock,
                       .worker_threads = 2,
                       .queue_depth = 3});
  // Fixed-point variants: one per table-backed engine family, running the
  // int16 end-to-end quantized sweep (the paper's integer-hardware
  // operating point). Error bounds for these are pinned by the quantized
  // pipeline property tests.
  catalog.add(Scenario{.name = "tablesteer-quantized-18b",
                       .engine = EngineFamily::kTableSteer,
                       .table_bits = 18,
                       .precision = simd::Precision::kQuantized,
                       .worker_threads = 2,
                       .queue_depth = 2});
  catalog.add(Scenario{.name = "fulltable-quantized-smallfield",
                       .probe_elements = 6,
                       .n_lines = 10,
                       .n_depth = 32,
                       .engine = EngineFamily::kFullTable,
                       .precision = simd::Precision::kQuantized,
                       .worker_threads = 1,
                       .queue_depth = 2});
  catalog.add(Scenario{.name = "sa-compound-quantized",
                       .engine = EngineFamily::kTableSteerSA,
                       .sa_origins = 4,
                       .compound_origins = 4,
                       .precision = simd::Precision::kQuantized,
                       .worker_threads = 2,
                       .queue_depth = 2});
  return catalog;
}

}  // namespace us3d::service
