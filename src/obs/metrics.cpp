#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/contracts.h"
#include "common/json_writer.h"

namespace us3d::obs {

// ---------------------------------------------------------------------------
// FixedHistogram
// ---------------------------------------------------------------------------

FixedHistogram::FixedHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  US3D_EXPECTS(!bounds_.empty());
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    US3D_EXPECTS(bounds_[i] > bounds_[i - 1]);
  }
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void FixedHistogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // bounds_.size() = ovf
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // min/max via CAS: fetch_min/fetch_max for doubles don't exist. The
  // count_ == 0 window is handled by seeding both extremes from the first
  // observation that wins the count 0 -> 1 race.
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  } else {
    double seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }
}

double FixedHistogram::min() const {
  return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
}

double FixedHistogram::max() const {
  return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
}

double FixedHistogram::mean() const {
  const std::int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

std::uint64_t FixedHistogram::bucket_count(std::size_t i) const {
  US3D_EXPECTS(i <= bounds_.size());
  return buckets_[i].load(std::memory_order_relaxed);
}

double FixedHistogram::quantile(double q) const {
  US3D_EXPECTS(q >= 0.0 && q <= 1.0);
  std::uint64_t total = 0;
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double lo = min();
  const double hi = max();
  // Rank in [0, total): the sample the quantile falls on.
  const double rank = q * static_cast<double>(total - 1);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cumulative + static_cast<double>(counts[i]);
    if (rank < next || i + 1 == counts.size()) {
      // Interpolate linearly across this bucket's value range, clamped
      // to the observed extremes (the overflow bucket has no upper edge
      // and the first bucket no lower edge).
      double lower = i == 0 ? lo : bounds_[i - 1];
      double upper = i < bounds_.size() ? bounds_[i] : hi;
      lower = std::max(lower, lo);
      upper = std::min(upper, hi);
      if (upper <= lower) return lower;
      const double within =
          counts[i] > 1
              ? (rank - cumulative) / static_cast<double>(counts[i] - 1)
              : 0.5;
      return lower + within * (upper - lower);
    }
    cumulative = next;
  }
  return hi;
}

std::vector<double> FixedHistogram::default_latency_bounds() {
  // Four buckets per decade, 100 us .. ~100 s: spans a shed-threshold
  // interactive frame and a pathologically stalled bulk session alike.
  std::vector<double> bounds;
  for (double decade = 1e-4; decade < 1e2 * 1.5; decade *= 10.0) {
    for (double step : {1.0, 1.8, 3.2, 5.6}) {
      bounds.push_back(decade * step);
    }
  }
  return bounds;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: pipeline threads may update metrics during static
  // destruction of other translation units.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::shared_ptr<Counter> MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  Entry& e = entries_[name];
  if (e.gauge || e.histogram) {
    throw ContractViolation("metric '" + name + "' is not a counter");
  }
  if (!e.counter) e.counter = std::make_shared<Counter>();
  return e.counter;
}

std::shared_ptr<Gauge> MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  Entry& e = entries_[name];
  if (e.counter || e.histogram) {
    throw ContractViolation("metric '" + name + "' is not a gauge");
  }
  if (!e.gauge) e.gauge = std::make_shared<Gauge>();
  return e.gauge;
}

std::shared_ptr<FixedHistogram> MetricsRegistry::histogram(
    const std::string& name, std::vector<double> upper_bounds) {
  MutexLock lock(mutex_);
  Entry& e = entries_[name];
  if (e.counter || e.gauge) {
    throw ContractViolation("metric '" + name + "' is not a histogram");
  }
  if (!e.histogram) {
    if (upper_bounds.empty()) {
      upper_bounds = FixedHistogram::default_latency_bounds();
    }
    e.histogram = std::make_shared<FixedHistogram>(std::move(upper_bounds));
  }
  return e.histogram;
}

std::shared_ptr<Gauge> MetricsRegistry::find_gauge(
    const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = entries_.find(name);
  return it != entries_.end() ? it->second.gauge : nullptr;
}

std::size_t MetricsRegistry::remove(const std::string& name) {
  MutexLock lock(mutex_);
  return entries_.erase(name);
}

std::size_t MetricsRegistry::remove_prefix(const std::string& prefix) {
  MutexLock lock(mutex_);
  std::size_t removed = 0;
  for (auto it = entries_.lower_bound(prefix);
       it != entries_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       it = entries_.erase(it)) {
    ++removed;
  }
  return removed;
}

std::size_t MetricsRegistry::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

std::string MetricsRegistry::snapshot_json() const {
  std::map<std::string, Entry> entries;
  {
    MutexLock lock(mutex_);
    entries = entries_;
  }
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, e] : entries) {
    if (e.counter) w.kv(name, e.counter->value());
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, e] : entries) {
    if (e.gauge) w.kv(name, e.gauge->value());
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, e] : entries) {
    if (!e.histogram) continue;
    const FixedHistogram& h = *e.histogram;
    w.key(name).begin_object();
    w.kv("count", h.count())
        .kv("sum", h.sum())
        .kv("min", h.min())
        .kv("max", h.max())
        .kv("mean", h.mean())
        .kv("p50", h.quantile(0.50))
        .kv("p90", h.quantile(0.90))
        .kv("p99", h.quantile(0.99));
    w.key("buckets").begin_array();
    const std::vector<double>& bounds = h.upper_bounds();
    for (std::size_t i = 0; i <= bounds.size(); ++i) {
      const std::uint64_t n = h.bucket_count(i);
      if (n == 0) continue;  // sparse: most of a wide grid is empty
      w.begin_object();
      if (i < bounds.size()) {
        w.kv("le", bounds[i]);
      } else {
        w.kv("le", "+inf");
      }
      w.kv("count", static_cast<std::int64_t>(n)).end_object();
    }
    w.end_array().end_object();
  }
  w.end_object();
  w.end_object();
  return os.str();
}

}  // namespace us3d::obs
