#include "common/json_reader.h"

#include <cctype>
#include <charconv>
#include <system_error>

#include "common/contracts.h"

namespace us3d {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw ContractViolation("json: " + what);
}

/// RFC 8259 number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
/// — no NaN/Infinity, hex, leading '+', leading zeros or bare '.'.
bool is_json_number(std::string_view s) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t start = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > start;
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (i < s.size() && s[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == s.size();
}

}  // namespace

// Named (non-anonymous) so the friend declaration in JsonValue reaches it.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue root = parse_value(/*depth=*/0);
    skip_ws();
    if (pos_ != text_.size()) bad("trailing characters after JSON document");
    return root;
  }

 private:
  // Deep enough for every document the repo emits; shallow enough that a
  // hostile "[[[[..." cannot exhaust the real stack.
  static constexpr int kMaxDepth = 64;

  char peek() const {
    if (pos_ >= text_.size()) bad("unexpected end of JSON");
    return text_[pos_];
  }
  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (next() != c) bad(std::string("expected '") + c + "'");
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) bad("nesting too deep");
    const char c = peek();
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      JsonValue v;
      v.kind_ = JsonValue::Kind::kString;
      v.text_ = parse_string();
      return v;
    }
    return parse_literal();
  }

  JsonValue parse_object(int depth) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      for (const auto& [existing, unused] : v.members_) {
        if (existing == key) bad("duplicate JSON key '" + key + "'");
      }
      skip_ws();
      expect(':');
      skip_ws();
      v.members_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') bad("expected ',' or '}' in JSON object");
    }
    return v;
  }

  JsonValue parse_array(int depth) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      v.elements_.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') bad("expected ',' or ']' in JSON array");
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        // Inverse of us3d::json_escape: the short escapes plus \u00XX.
        c = next();
        switch (c) {
          case 'n':
            c = '\n';
            break;
          case 'r':
            c = '\r';
            break;
          case 't':
            c = '\t';
            break;
          case 'u': {
            int code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += h - '0';
              } else if (h >= 'a' && h <= 'f') {
                code += 10 + h - 'a';
              } else if (h >= 'A' && h <= 'F') {
                code += 10 + h - 'A';
              } else {
                bad("malformed \\u escape in JSON string");
              }
            }
            if (code > 0xff) bad("non-latin \\u escape unsupported");
            c = static_cast<char>(code);
            break;
          }
          default:
            break;  // \" \\ \/ and friends: the character itself
        }
      }
      out.push_back(c);
    }
  }

  JsonValue parse_literal() {
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ',' || c == '}' || c == ']' ||
          std::isspace(static_cast<unsigned char>(c))) {
        break;
      }
      out.push_back(c);
      ++pos_;
    }
    if (out.empty()) bad("empty JSON value");
    JsonValue v;
    if (out == "true" || out == "false") {
      v.kind_ = JsonValue::Kind::kBool;
      v.bool_ = out == "true";
    } else if (out == "null") {
      v.kind_ = JsonValue::Kind::kNull;
    } else {
      if (!is_json_number(out)) bad("malformed JSON literal '" + out + "'");
      // from_chars is locale-independent and reports overflow (and
      // underflow to zero) instead of yielding inf, so every accepted
      // number is finite.
      const auto [end, ec] =
          std::from_chars(out.data(), out.data() + out.size(), v.number_);
      if (ec != std::errc() || end != out.data() + out.size()) {
        bad("JSON number '" + out + "' is out of range");
      }
      v.kind_ = JsonValue::Kind::kNumber;
    }
    v.text_ = std::move(out);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool JsonValue::as_bool(const std::string& what) const {
  if (kind_ != Kind::kBool) bad(what + " must be a boolean");
  return bool_;
}

double JsonValue::as_double(const std::string& what) const {
  if (kind_ != Kind::kNumber) bad(what + " must be a number");
  return number_;
}

std::int64_t JsonValue::as_int(const std::string& what) const {
  if (kind_ != Kind::kNumber) bad(what + " must be a number");
  std::int64_t n = 0;
  const auto [end, ec] =
      std::from_chars(text_.data(), text_.data() + text_.size(), n);
  if (ec == std::errc::result_out_of_range) bad(what + " is out of range");
  if (ec != std::errc() || end != text_.data() + text_.size()) {
    bad(what + " is not an integer");
  }
  return n;
}

const std::string& JsonValue::as_string(const std::string& what) const {
  if (kind_ != Kind::kString) bad(what + " must be a string");
  return text_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::kObject) bad("value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v) bad("missing required key '" + std::string(key) + "'");
  return *v;
}

const std::vector<JsonValue>& JsonValue::elements() const {
  if (kind_ != Kind::kArray) bad("value is not an array");
  return elements_;
}

JsonValue parse_json(std::string_view text) {
  return JsonReader(text).parse_document();
}

}  // namespace us3d
