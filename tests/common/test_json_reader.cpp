// The strict reader contract: everything the repo's emitters produce
// parses, and every kind of damage — trailing text, duplicate keys,
// malformed literals, depth bombs — throws instead of yielding a
// half-understood document.
#include "common/json_reader.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "common/contracts.h"

namespace us3d {
namespace {

TEST(JsonReader, ParsesScalarsWithExactKinds) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(parse_json("-42").as_int(), -42);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
  // Legal corners of the RFC 8259 number grammar.
  EXPECT_EQ(parse_json("-0").as_int(), 0);
  EXPECT_TRUE(std::signbit(parse_json("-0").as_double()));
  EXPECT_DOUBLE_EQ(parse_json("0.5e-3").as_double(), 0.5e-3);
  EXPECT_DOUBLE_EQ(parse_json("1E+2").as_double(), 100.0);
  EXPECT_EQ(parse_json("9223372036854775807").as_int(), INT64_MAX);
}

TEST(JsonReader, AsIntIsStricterThanAsDouble) {
  const JsonValue fractional = parse_json("2.5");
  EXPECT_DOUBLE_EQ(fractional.as_double(), 2.5);
  EXPECT_THROW(fractional.as_int("field"), ContractViolation);
  // Scientific notation is a number but not an integer literal.
  EXPECT_THROW(parse_json("1e3").as_int(), ContractViolation);
  // An integer beyond int64 is refused, not saturated; it is still a
  // number, so only the integer view fails.
  EXPECT_THROW(parse_json("99999999999999999999").as_int(),
               ContractViolation);
  EXPECT_THROW(parse_json("-99999999999999999999").as_int(),
               ContractViolation);
  EXPECT_DOUBLE_EQ(parse_json("99999999999999999999").as_double(), 1e20);
}

TEST(JsonReader, ObjectMembersKeepDocumentOrder) {
  const JsonValue doc = parse_json(R"({"z":1,"a":2})");
  const auto& members = doc.members();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(doc.at("a").as_int(), 2);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), ContractViolation);
}

TEST(JsonReader, NestedArraysAndEscapes) {
  const JsonValue doc = parse_json(R"({"rows":[[1,2],["a\nb"]]})");
  const auto& rows = doc.at("rows").elements();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].elements()[1].as_int(), 2);
  EXPECT_EQ(rows[1].elements()[0].as_string(), "a\nb");
}

TEST(JsonReader, KindMismatchesThrowWithTheFieldName) {
  const JsonValue doc = parse_json(R"({"n":1})");
  try {
    doc.at("n").as_string("n");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("n must be a string"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonReader, DamageThrows) {
  EXPECT_THROW(parse_json(""), ContractViolation);
  EXPECT_THROW(parse_json("{"), ContractViolation);
  EXPECT_THROW(parse_json("{\"a\":1,}"), ContractViolation);
  EXPECT_THROW(parse_json("[1 2]"), ContractViolation);
  EXPECT_THROW(parse_json("{\"a\":1} rest"), ContractViolation);
  EXPECT_THROW(parse_json("{\"a\":1,\"a\":2}"), ContractViolation);
  EXPECT_THROW(parse_json("nope"), ContractViolation);
  EXPECT_THROW(parse_json("\"unterminated"), ContractViolation);
  // Number literals outside the RFC 8259 grammar, and numbers no finite
  // double can hold.
  for (const char* literal :
       {"nan", "NaN", "-Infinity", "inf", "0x1p4", "+5", "007", "-01", ".5",
        "5.", "1e", "1e+", "-", "1e999", "-1e999"}) {
    EXPECT_THROW(parse_json(std::string("{\"x\":") + literal + "}"),
                 ContractViolation)
        << literal;
  }
}

TEST(JsonReader, DepthBombIsRejectedNotStackOverflowed) {
  std::string bomb;
  for (int i = 0; i < 1000; ++i) bomb += '[';
  EXPECT_THROW(parse_json(bomb), ContractViolation);
}

}  // namespace
}  // namespace us3d
