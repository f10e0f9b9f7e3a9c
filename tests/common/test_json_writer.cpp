// JsonWriter is the one emitter behind every JSON exporter in the repo,
// so its comma placement, escaping and misuse guards are load-bearing:
// a malformed emitter would corrupt every bench contract file at once.
// Structural outputs are cross-checked through the strict reader.
#include "common/json_writer.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "common/contracts.h"
#include "common/json_reader.h"

namespace us3d {
namespace {

std::string write(void (*fn)(JsonWriter&)) {
  std::ostringstream os;
  JsonWriter w(os);
  fn(w);
  return os.str();
}

TEST(JsonWriter, FlatObjectPlacesCommasAndColons) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("a", 1)
      .kv("b", 2.5)
      .kv("c", "text")
      .kv("d", true)
      .end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(), "{\"a\":1,\"b\":2.5,\"c\":\"text\",\"d\":true}");
}

TEST(JsonWriter, NestedContainersRoundTripThroughTheReader) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .key("rows")
      .begin_array()
      .value(1)
      .value(2)
      .begin_object()
      .kv("k", "v")
      .end_object()
      .end_array()
      .kv_raw("spliced", "{\"x\":9}")
      .end_object();
  ASSERT_TRUE(w.complete());
  const JsonValue doc = parse_json(os.str());
  const auto& rows = doc.at("rows").elements();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].as_int(), 1);
  EXPECT_EQ(rows[2].at("k").as_string(), "v");
  EXPECT_EQ(doc.at("spliced").at("x").as_int(), 9);
}

TEST(JsonWriter, DoublesRoundTripExactly) {
  for (const double v : {0.0041234567891, 0.1, 1.0 / 3.0, -2.5e-300, 1e21,
                         123456789.123456789, 5e-324}) {
    std::ostringstream os;
    JsonWriter w(os);
    w.value(v);
    EXPECT_EQ(parse_json(os.str()).as_double(), v) << os.str();
  }
  // The stream's precision setting does not truncate the output.
  std::ostringstream os;
  os.precision(3);
  JsonWriter w(os);
  w.value(0.0041234567891);
  EXPECT_EQ(os.str(), "0.0041234567891");
}

TEST(JsonWriter, NonFiniteDoublesAreWrittenAsNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array()
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .end_array();
  EXPECT_EQ(os.str(), "[null,null,null]");
  const JsonValue doc = parse_json(os.str());
  for (const JsonValue& v : doc.elements()) {
    EXPECT_TRUE(v.is_null());
  }
}

TEST(JsonWriter, StringsAreEscaped) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object().kv("k", "a\"b\\c\nd").end_object();
  // Raw control characters never reach the wire...
  for (const char c : os.str()) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  // ...and the reader recovers the original bytes.
  EXPECT_EQ(parse_json(os.str()).at("k").as_string(), "a\"b\\c\nd");
}

TEST(JsonWriter, EmptyContainersAreLegal) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .key("o")
      .begin_object()
      .end_object()
      .key("a")
      .begin_array()
      .end_array()
      .end_object();
  EXPECT_EQ(os.str(), "{\"o\":{},\"a\":[]}");
}

TEST(JsonWriter, MisuseThrowsInsteadOfEmittingGarbage) {
  // end without begin.
  EXPECT_THROW(write(+[](JsonWriter& w) { w.end_object(); }),
               ContractViolation);
  // array closed as an object.
  EXPECT_THROW(write(+[](JsonWriter& w) { w.begin_array().end_object(); }),
               ContractViolation);
  // key outside an object.
  EXPECT_THROW(write(+[](JsonWriter& w) { w.begin_array().key("k"); }),
               ContractViolation);
  // bare value inside an object (a key must come first).
  EXPECT_THROW(write(+[](JsonWriter& w) { w.begin_object().value(1); }),
               ContractViolation);
  // dangling key at close.
  EXPECT_THROW(
      write(+[](JsonWriter& w) { w.begin_object().key("k").end_object(); }),
      ContractViolation);
  // second root value.
  EXPECT_THROW(write(+[](JsonWriter& w) { w.value(1).value(2); }),
               ContractViolation);
}

TEST(JsonWriter, CompleteTracksRootBalance) {
  std::ostringstream os;
  JsonWriter w(os);
  EXPECT_FALSE(w.complete());
  w.begin_object();
  EXPECT_FALSE(w.complete());
  w.end_object();
  EXPECT_TRUE(w.complete());
}

}  // namespace
}  // namespace us3d
