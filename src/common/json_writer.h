// Minimal streaming JSON emitter shared by every exporter in the repo
// (pipeline/service stats, scenario descriptors, trace events, metrics
// snapshots), so there is exactly one place that knows how to place
// commas and escape strings instead of N hand-rolled dialects. The
// writer is append-only over an std::ostream: begin/end calls must
// balance (checked with US3D_EXPECTS), keys are only legal inside
// objects, and numbers are written in the shortest form that parses back
// to the same value (std::to_chars: independent of the stream's locale
// and precision). JSON has no NaN or infinity, so a non-finite double is
// written as null.
#ifndef US3D_COMMON_JSON_WRITER_H
#define US3D_COMMON_JSON_WRITER_H

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace us3d {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits `"k":` inside an object. Every key must be followed by exactly
  /// one value (or container) before the next key.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);  ///< escaped via json_escape
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  /// Splices pre-rendered JSON verbatim (for nesting an exporter that
  /// already returns a JSON object, e.g. LatencyStats::to_json()).
  JsonWriter& value_raw(std::string_view json);

  // key + value in one call, for the flat-object emitters.
  template <typename T>
  JsonWriter& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }
  JsonWriter& kv_raw(std::string_view k, std::string_view json) {
    key(k);
    return value_raw(json);
  }

  /// True once every begin has been matched by its end.
  bool complete() const { return stack_.empty() && wrote_root_; }

 private:
  enum class Frame : char { kObject, kArray };

  /// Comma/«expects a value» bookkeeping shared by every emission.
  void before_value();

  std::ostream& os_;
  std::vector<Frame> stack_;
  bool comma_pending_ = false;  ///< next sibling needs a ',' first
  bool key_pending_ = false;    ///< a key was written, value must follow
  bool wrote_root_ = false;
};

}  // namespace us3d

#endif  // US3D_COMMON_JSON_WRITER_H
