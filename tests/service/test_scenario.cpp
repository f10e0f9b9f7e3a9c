// Scenario descriptors and the catalog: the JSON round-trip is a wire
// format (clients submit the same descriptors the tests pin), and the
// built-in catalog must span every delay-engine family so "all five
// engines" stays a loop, not a hand-maintained list.
#include "service/scenario.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "common/contracts.h"

namespace us3d::service {
namespace {

TEST(EngineFamily, NamesRoundTrip) {
  for (const EngineFamily f :
       {EngineFamily::kExact, EngineFamily::kTableFree,
        EngineFamily::kTableSteer, EngineFamily::kFullTable,
        EngineFamily::kTableSteerSA}) {
    const auto parsed = parse_family(family_name(f));
    ASSERT_TRUE(parsed.has_value()) << family_name(f);
    EXPECT_EQ(*parsed, f);
  }
  EXPECT_FALSE(parse_family("fpga").has_value());
}

TEST(Scenario, JsonRoundTripsEveryBuiltin) {
  ScenarioCatalog catalog = ScenarioCatalog::builtin();
  // A backoff with more significant digits than the stream default (6)
  // must come back bit-exact, not rounded.
  Scenario fine;
  fine.name = "fine_backoff";
  fine.engine = EngineFamily::kTableSteerSA;
  fine.sa_backoff_m = 0.0041234567891;
  catalog.add(fine);
  for (const Scenario& s : catalog.scenarios()) {
    const std::string json = s.to_json();
    const Scenario back = Scenario::from_json(json);
    EXPECT_EQ(back, s) << json;
    // A round-tripped descriptor serializes identically: the JSON is
    // canonical, not just parseable.
    EXPECT_EQ(back.to_json(), json);
  }
}

TEST(Scenario, FromJsonToleratesWhitespaceAndKeyOrder) {
  const Scenario s = Scenario::from_json(R"( {
    "engine" : "tablesteer_sa" ,
    "name"   : "reordered",
    "compound_origins": 2,
    "table_bits": 14,
    "sa_backoff_m": 0.003
  } )");
  EXPECT_EQ(s.name, "reordered");
  EXPECT_EQ(s.engine, EngineFamily::kTableSteerSA);
  EXPECT_EQ(s.compound_origins, 2);
  EXPECT_EQ(s.table_bits, 14);
  EXPECT_DOUBLE_EQ(s.sa_backoff_m, 0.003);
  // Unspecified fields keep their defaults.
  EXPECT_EQ(s.n_lines, Scenario{}.n_lines);
  EXPECT_EQ(s.queue_depth, Scenario{}.queue_depth);
}

TEST(Scenario, FromJsonRejectsMalformedInput) {
  // Structure errors.
  EXPECT_THROW(Scenario::from_json(""), ContractViolation);
  EXPECT_THROW(Scenario::from_json("[]"), ContractViolation);
  EXPECT_THROW(Scenario::from_json("{\"name\":\"x\"} trailing"),
               ContractViolation);
  EXPECT_THROW(Scenario::from_json("{\"name\":\"x\",}"), ContractViolation);
  // Required field.
  EXPECT_THROW(Scenario::from_json("{\"n_lines\":8}"), ContractViolation);
  // Unknown keys and enum values must fail loudly, never be half-applied.
  EXPECT_THROW(Scenario::from_json("{\"name\":\"x\",\"frobnicate\":1}"),
               ContractViolation);
  EXPECT_THROW(Scenario::from_json("{\"name\":\"x\",\"engine\":\"gpu\"}"),
               ContractViolation);
  EXPECT_THROW(Scenario::from_json("{\"name\":\"x\",\"simd\":\"avx\"}"),
               ContractViolation);
  EXPECT_THROW(Scenario::from_json("{\"name\":\"x\",\"precision\":\"int16\"}"),
               ContractViolation);
  EXPECT_THROW(Scenario::from_json("{\"name\":\"x\",\"pacing\":\"turbo\"}"),
               ContractViolation);
  EXPECT_THROW(Scenario::from_json("{\"name\":\"x\",\"order\":\"spiral\"}"),
               ContractViolation);
  // Type errors.
  EXPECT_THROW(Scenario::from_json("{\"name\":\"x\",\"n_lines\":\"8\"}"),
               ContractViolation);
  EXPECT_THROW(Scenario::from_json("{\"name\":\"x\",\"n_lines\":8.5}"),
               ContractViolation);
  // Integers that do not fit an int are refused, never wrapped (2^32 + 2
  // would otherwise land as n_lines = 2).
  EXPECT_THROW(
      Scenario::from_json("{\"name\":\"x\",\"n_lines\":4294967298}"),
      ContractViolation);
  EXPECT_THROW(
      Scenario::from_json("{\"name\":\"x\",\"worker_threads\":4294967297}"),
      ContractViolation);
  // A backoff no finite double holds.
  EXPECT_THROW(
      Scenario::from_json("{\"name\":\"x\",\"sa_backoff_m\":1e999}"),
      ContractViolation);
  // Duplicate keys are ambiguous.
  EXPECT_THROW(Scenario::from_json("{\"name\":\"x\",\"name\":\"y\"}"),
               ContractViolation);
  // validate() runs on the result.
  EXPECT_THROW(Scenario::from_json("{\"name\":\"x\",\"table_bits\":12}"),
               ContractViolation);
  EXPECT_THROW(Scenario::from_json("{\"name\":\"\"}"), ContractViolation);
}

TEST(Scenario, ValidateRefusesNonFiniteBackoffNamingTheField) {
  for (const double backoff : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -1e-3}) {
    Scenario s;
    s.name = "x";
    s.sa_backoff_m = backoff;
    try {
      s.validate();
      FAIL() << "accepted sa_backoff_m = " << backoff;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("sa_backoff_m"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Scenario, NameEscapingSurvivesTheRoundTrip) {
  Scenario s;
  s.name = "weird \"name\" with \\ backslash\nand\tcontrol \x01 chars";
  const std::string json = s.to_json();
  // The emitted JSON must never contain a raw control character — that
  // is what makes a session's JSON json.load()-able for any name.
  for (const char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << json;
  }
  const Scenario back = Scenario::from_json(json);
  EXPECT_EQ(back.name, s.name);
}

TEST(Scenario, MaterializesSystemEngineAndPipelineConfig) {
  const ScenarioCatalog catalog = ScenarioCatalog::builtin();
  for (const Scenario& s : catalog.scenarios()) {
    const imaging::SystemConfig cfg = s.system();
    EXPECT_EQ(cfg.volume.n_theta, s.n_lines) << s.name;
    EXPECT_EQ(cfg.volume.n_depth, s.n_depth) << s.name;
    const auto engine = s.make_engine();
    ASSERT_NE(engine, nullptr) << s.name;
    EXPECT_EQ(engine->element_count(), s.probe_elements * s.probe_elements)
        << s.name;
    const runtime::PipelineConfig pc = s.pipeline_config();
    EXPECT_EQ(pc.worker_threads, s.worker_threads) << s.name;
    EXPECT_EQ(pc.order, s.order) << s.name;
    EXPECT_EQ(pc.simd, s.simd) << s.name;
    EXPECT_EQ(pc.precision, s.precision) << s.name;
  }
}

TEST(Scenario, EngineNamesMatchTheirFamilies) {
  const ScenarioCatalog catalog = ScenarioCatalog::builtin();
  const auto name_of = [&](const char* scenario) {
    const Scenario* s = catalog.find(scenario);
    EXPECT_NE(s, nullptr) << scenario;
    return s->make_engine()->name();
  };
  EXPECT_EQ(name_of("exact-reference"), "EXACT");
  EXPECT_EQ(name_of("tablefree-interactive"), "TABLEFREE");
  EXPECT_EQ(name_of("tablesteer-cardiac-18b"), "TABLESTEER-18b");
  EXPECT_EQ(name_of("tablesteer-lowpower-14b"), "TABLESTEER-14b");
  EXPECT_EQ(name_of("sa-compound-volumetric"), "TABLESTEER-SA");
}

TEST(Scenario, OriginsCycleTheSyntheticAperturePlan) {
  const ScenarioCatalog catalog = ScenarioCatalog::builtin();
  const Scenario* sa = catalog.find("sa-compound-volumetric");
  ASSERT_NE(sa, nullptr);
  const auto origins = sa->origins(sa->sa_origins + 2);
  ASSERT_EQ(origins.size(), static_cast<std::size_t>(sa->sa_origins + 2));
  EXPECT_EQ(origins[0].z, 0.0);  // first virtual source is centred
  EXPECT_LT(origins[1].z, 0.0);  // the rest sit behind the probe
  EXPECT_EQ(origins[static_cast<std::size_t>(sa->sa_origins)].z,
            origins[0].z);  // cycles

  const Scenario* fixed = catalog.find("tablefree-interactive");
  ASSERT_NE(fixed, nullptr);
  for (const Vec3& origin : fixed->origins(3)) {
    EXPECT_EQ(origin.z, 0.0);
  }
}

TEST(ScenarioCatalog, BuiltinSpansAllFiveEngineFamilies) {
  const ScenarioCatalog catalog = ScenarioCatalog::builtin();
  EXPECT_GE(catalog.size(), 5u);
  std::set<EngineFamily> families;
  std::set<std::string> names;
  for (const Scenario& s : catalog.scenarios()) {
    families.insert(s.engine);
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_NO_THROW(s.validate()) << s.name;
  }
  EXPECT_EQ(families.size(), 5u) << "catalog must span every engine family";
}

TEST(ScenarioCatalog, FindAddReplaceAndJson) {
  ScenarioCatalog catalog;
  EXPECT_EQ(catalog.find("x"), nullptr);
  Scenario s;
  s.name = "x";
  s.n_lines = 6;
  catalog.add(s);
  ASSERT_NE(catalog.find("x"), nullptr);
  EXPECT_EQ(catalog.find("x")->n_lines, 6);
  s.n_lines = 8;
  catalog.add(s);  // replaces by name
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.find("x")->n_lines, 8);

  Scenario invalid;
  invalid.name = "bad";
  invalid.queue_depth = 0;
  EXPECT_THROW(catalog.add(invalid), ContractViolation);

  const std::string json = catalog.to_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"x\""), std::string::npos);
  // Every element of the array is itself a valid scenario object.
  const Scenario back = Scenario::from_json(
      json.substr(1, json.size() - 2));  // single-element array
  EXPECT_EQ(back, *catalog.find("x"));
}

}  // namespace
}  // namespace us3d::service
