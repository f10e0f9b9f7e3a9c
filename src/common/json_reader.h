// Minimal recursive JSON reader — the inverse of JsonWriter and the one
// parser behind every JSON the repo consumes: scenario descriptors on the
// service wire, metrics snapshots and Chrome trace events in the
// observability tests. Grown out of the scenario module's flat parser,
// with the same house strictness: tolerant of whitespace and key order,
// but malformed input, duplicate keys and trailing characters all throw
// ContractViolation — a half-understood document is never acted on.
//
// Numbers follow the RFC 8259 grammar only (no NaN, Infinity, hex, '+'
// or leading zeros) and must be finite doubles. They keep their raw text
// alongside the parsed double so callers can enforce their own width
// rules ("table_bits is not an integer") exactly as the flat parser did.
#ifndef US3D_COMMON_JSON_READER_H
#define US3D_COMMON_JSON_READER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace us3d {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Value accessors throw ContractViolation on a kind mismatch, naming
  /// `what` (usually the field being read) in the message.
  bool as_bool(const std::string& what = "value") const;
  double as_double(const std::string& what = "value") const;
  /// Strict integer: the raw text must parse fully as a base-10 int64
  /// (so "2.5" and "1e3" are rejected even though they are numbers, and
  /// an out-of-range integer throws instead of saturating).
  std::int64_t as_int(const std::string& what = "value") const;
  const std::string& as_string(const std::string& what = "value") const;

  /// Raw number text (or unescaped string body) for error messages.
  const std::string& text() const { return text_; }

  // --- objects ---------------------------------------------------------
  /// Members in document order. Duplicate keys were rejected at parse.
  const std::vector<std::pair<std::string, JsonValue>>& members() const;
  /// Member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Member lookup that throws when the key is missing.
  const JsonValue& at(std::string_view key) const;

  // --- arrays ----------------------------------------------------------
  const std::vector<JsonValue>& elements() const;
  std::size_t size() const { return elements_.size(); }

 private:
  friend class JsonReader;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string text_;  // raw number text, or the unescaped string body
  std::vector<std::pair<std::string, JsonValue>> members_;
  std::vector<JsonValue> elements_;
};

/// Parses one complete JSON document. Throws ContractViolation on any
/// syntax error, duplicate object key, or trailing non-whitespace.
JsonValue parse_json(std::string_view text);

}  // namespace us3d

#endif  // US3D_COMMON_JSON_READER_H
