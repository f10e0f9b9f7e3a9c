// Live service telemetry: a process-wide registry of named counters,
// gauges and fixed-bucket histograms that any thread can bump lock-free
// and any scraper can snapshot to JSON at any instant.
//
// Shape of the thing: the registry map (create / lookup / remove /
// snapshot) is under one mutex, but callers hold shared_ptrs to the
// metric nodes themselves and update those with plain atomics — the hot
// path (a queue updating its depth gauge, the service counting a shed)
// never touches the registry lock. Removing a metric from the registry
// only unlists it; in-flight holders keep their node alive and their
// updates simply stop being scraped.
//
// Consistency contract: each individual metric read is atomic, and a
// histogram snapshot is internally coherent to within in-flight
// observe() calls. Cross-metric invariants (the frame ledger) are NOT
// promised by the registry — the service exports those from one locked
// snapshot (SessionStats / ServiceStats), which is what makes
// `delivered + shed + dropped + refused <= submitted` scrape-safe.
#ifndef US3D_OBS_METRICS_H
#define US3D_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotated_mutex.h"

namespace us3d::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void increment(std::int64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, ring occupancy).
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t by) { value_.fetch_add(by, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: upper bounds chosen at construction, one
/// implicit overflow bucket, count/sum/min/max tracked alongside.
/// Quantiles interpolate linearly inside the winning bucket — the same
/// estimate-from-aggregates spirit as common/stats.h SampleQuantiles,
/// but O(buckets) memory with no per-sample storage.
class FixedHistogram {
 public:
  /// `upper_bounds` must be non-empty and strictly ascending; samples
  /// above the last bound land in the overflow bucket.
  explicit FixedHistogram(std::vector<double> upper_bounds);

  void observe(double value);

  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  ///< 0 when empty
  double max() const;  ///< 0 when empty
  double mean() const;

  /// Estimated q-quantile (q in [0,1]); 0 when empty. Bucket-resolution
  /// accurate: exact only up to the bucket width around the true value.
  double quantile(double q) const;

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Samples in bucket i (i == bounds().size() is the overflow bucket).
  std::uint64_t bucket_count(std::size_t i) const;

  /// Exponential default for latency-in-seconds histograms: 100 µs to
  /// ~100 s, four buckets per decade.
  static std::vector<double> default_latency_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1 wide
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid only when count_ > 0
  std::atomic<double> max_{0.0};
};

/// Name -> metric registry. Names are dot-paths by convention
/// ("service.sessions_admitted", "service.s3.input_queue_depth") so
/// per-session families can be removed by prefix when the session closes.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  /// Create-or-get. Throws ContractViolation if `name` already names a
  /// metric of a different kind. histogram() with empty bounds uses
  /// FixedHistogram::default_latency_bounds(); bounds are fixed by the
  /// first creation and later calls just return the existing node.
  std::shared_ptr<Counter> counter(const std::string& name)
      US3D_EXCLUDES(mutex_);
  std::shared_ptr<Gauge> gauge(const std::string& name) US3D_EXCLUDES(mutex_);
  std::shared_ptr<FixedHistogram> histogram(const std::string& name,
                                            std::vector<double> upper_bounds =
                                                {}) US3D_EXCLUDES(mutex_);

  /// Lookup without create: nullptr when `name` is absent or names a
  /// metric of another kind, so a reader never mints an empty node.
  std::shared_ptr<Gauge> find_gauge(const std::string& name) const
      US3D_EXCLUDES(mutex_);

  /// Unlists a metric (holders keep their node). Returns entries removed.
  std::size_t remove(const std::string& name) US3D_EXCLUDES(mutex_);
  std::size_t remove_prefix(const std::string& prefix) US3D_EXCLUDES(mutex_);
  std::size_t size() const US3D_EXCLUDES(mutex_);

  /// One JSON object {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with names sorted; readable back through us3d::parse_json.
  std::string snapshot_json() const US3D_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::shared_ptr<Counter> counter;
    std::shared_ptr<Gauge> gauge;
    std::shared_ptr<FixedHistogram> histogram;
  };

  mutable Mutex mutex_;
  std::map<std::string, Entry> entries_ US3D_GUARDED_BY(mutex_);
};

}  // namespace us3d::obs

#endif  // US3D_OBS_METRICS_H
