#include "common/json_writer.h"

#include <charconv>
#include <cmath>
#include <string>

#include "common/contracts.h"
#include "common/table_io.h"

namespace us3d {

namespace {

/// Shortest text that parses back to exactly `v`, independent of the
/// stream's locale and precision.
template <typename T>
void write_number(std::ostream& os, T v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, result.ptr - buf);
}

}  // namespace

void JsonWriter::before_value() {
  if (key_pending_) {
    // The value completes a "key": pair; the comma was placed with the key.
    key_pending_ = false;
    return;
  }
  US3D_EXPECTS(stack_.empty() || stack_.back() == Frame::kArray);
  US3D_EXPECTS(!(stack_.empty() && wrote_root_));  // one root value only
  if (comma_pending_) os_ << ',';
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back(Frame::kObject);
  comma_pending_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  US3D_EXPECTS(!stack_.empty() && stack_.back() == Frame::kObject);
  US3D_EXPECTS(!key_pending_);
  os_ << '}';
  stack_.pop_back();
  comma_pending_ = true;
  wrote_root_ = wrote_root_ || stack_.empty();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back(Frame::kArray);
  comma_pending_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  US3D_EXPECTS(!stack_.empty() && stack_.back() == Frame::kArray);
  os_ << ']';
  stack_.pop_back();
  comma_pending_ = true;
  wrote_root_ = wrote_root_ || stack_.empty();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  US3D_EXPECTS(!stack_.empty() && stack_.back() == Frame::kObject);
  US3D_EXPECTS(!key_pending_);
  if (comma_pending_) os_ << ',';
  os_ << '"' << json_escape(std::string(k)) << "\":";
  comma_pending_ = true;
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  write_number(os_, v);
  comma_pending_ = true;
  wrote_root_ = wrote_root_ || stack_.empty();
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  write_number(os_, v);
  comma_pending_ = true;
  wrote_root_ = wrote_root_ || stack_.empty();
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (std::isfinite(v)) {
    write_number(os_, v);
  } else {
    os_ << "null";  // JSON has no NaN or infinity
  }
  comma_pending_ = true;
  wrote_root_ = wrote_root_ || stack_.empty();
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  comma_pending_ = true;
  wrote_root_ = wrote_root_ || stack_.empty();
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  os_ << '"' << json_escape(std::string(v)) << '"';
  comma_pending_ = true;
  wrote_root_ = wrote_root_ || stack_.empty();
  return *this;
}

JsonWriter& JsonWriter::value_raw(std::string_view json) {
  US3D_EXPECTS(!json.empty());
  before_value();
  os_ << json;
  comma_pending_ = true;
  wrote_root_ = wrote_root_ || stack_.empty();
  return *this;
}

}  // namespace us3d
