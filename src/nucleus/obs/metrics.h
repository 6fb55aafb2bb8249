// Process-wide metrics registry for the serving tier: named counters,
// gauges, and log-bucketed latency histograms, all lock-free on the hot
// path (atomic per-bucket counts) and mergeable across threads. Bucket
// boundaries are deterministic (powers of two in microseconds) so
// snapshots are stable in tests. Labels are limited to {tenant, verb}
// and every family bounds its distinct label sets, keeping cardinality
// O(tenants x verbs) no matter what a client sends.
//
// Metrics are a side channel: nothing here ever writes to a serve
// session's response stream, so the byte-identical transcript guarantee
// is untouched at any thread count.
#ifndef NUCLEUS_OBS_METRICS_H_
#define NUCLEUS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "nucleus/util/mutex.h"

namespace nucleus {
namespace obs {

/// Process-wide kill switch: off, every Increment/Set/Observe is one
/// relaxed load and the serving tier skips its latency clock reads and
/// scrape publication (bench/network_serving prices instrumentation so).
/// It never stops a count its owner keeps (TcpServer, TenantRouter, ...).
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// Monotonic counter.
class Counter {
 public:
  void Increment(std::int64_t n = 1) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Scrape-time export of a total its owner keeps. A family is either
  /// Increment()ed or Set(), never both.
  void Set(std::int64_t total) {
    if (!MetricsEnabled()) return;
    value_.store(total, std::memory_order_relaxed);
  }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time value. Double-valued so byte gauges and ratios share one
/// type; doubles hold integers exactly up to 2^53, far past any byte
/// count this process tracks.
class Gauge {
 public:
  void Set(double v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(double delta) {
    if (!MetricsEnabled()) return;
    double seen = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(seen, seen + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Log-bucketed latency histogram over microseconds. Bucket i counts
/// observations with value <= 2^i us (the last bucket is +Inf), so the
/// boundaries never depend on configuration or observation order and a
/// snapshot taken in a test is reproducible. Observe is wait-free: one
/// bit-scan plus two relaxed fetch_adds (the total count is derived from
/// the bucket counts at snapshot time, not tracked separately).
class Histogram {
 public:
  // 2^26 us ~= 67 s: anything slower lands in the +Inf bucket.
  static constexpr int kFiniteBuckets = 27;
  static constexpr int kBuckets = kFiniteBuckets + 1;

  struct Snapshot {
    std::int64_t count = 0;
    std::int64_t sum_us = 0;
    std::array<std::int64_t, kBuckets> buckets{};

    /// Upper bucket bound holding quantile q in [0, 1]; 0 when empty.
    std::int64_t ApproxQuantileUs(double q) const;
  };

  /// Upper bound of bucket i in microseconds; the last bucket reports
  /// INT64_MAX (rendered as +Inf in the exposition).
  static std::int64_t BucketBoundUs(int i);
  static int BucketFor(std::int64_t us);

  void Observe(std::int64_t us);
  Snapshot Snap() const;

 private:
  std::atomic<std::int64_t> sum_us_{0};
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
};

/// Registry of named metric families. A family is one metric name plus
/// its per-label-set children; labels are restricted to {tenant, verb}
/// (either may be empty). Lookups return stable pointers that stay valid
/// for the registry's lifetime, so callers cache them and the hot path
/// never takes the registry mutex. Each family caps distinct label sets
/// at kMaxLabelSets; later label sets collapse into one overflow child
/// labeled {tenant="_other", verb="_other"} so a hostile tenant stream
/// cannot grow the registry without bound.
class MetricsRegistry {
 public:
  static constexpr int kMaxLabelSets = 256;

  /// The process-wide registry. Tests that want isolation construct
  /// their own instance and pass it through ServeOptions.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& tenant = "",
                      const std::string& verb = "");
  Gauge* GetGauge(const std::string& name, const std::string& tenant = "",
                  const std::string& verb = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& tenant = "",
                          const std::string& verb = "");

  /// One deterministic JSON tree (families and label sets in sorted
  /// order): {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  /// Returned without the outer braces so callers can splice it into a
  /// response object ("query": "metrics", ...).
  std::string ToJsonBody() const;

  /// Prometheus text exposition format (version 0.0.4): # TYPE lines,
  /// cumulative le-labeled histogram buckets, _sum and _count series.
  std::string ToPrometheusText() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct LabelKey {
    std::string tenant;
    std::string verb;
    bool operator<(const LabelKey& o) const {
      if (tenant != o.tenant) return tenant < o.tenant;
      return verb < o.verb;
    }
  };

  struct Metric {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Kind kind = Kind::kCounter;
    std::map<LabelKey, Metric> children;
  };

  Metric* Resolve(const std::string& name, Kind kind,
                  const std::string& tenant, const std::string& verb);

  mutable Mutex mutex_;
  std::map<std::string, Family> families_ GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace nucleus

#endif  // NUCLEUS_OBS_METRICS_H_
