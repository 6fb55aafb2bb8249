// Tests for the obs metrics registry: deterministic bucket boundaries,
// serialization (JSON body + Prometheus text), label-cardinality capping,
// the kill switch, and concurrent Observe/Increment (the TSan leg: suite
// names contain "Metrics" so the sanitizer preset picks them up).
#include "nucleus/obs/metrics.h"

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace nucleus {
namespace obs {
namespace {

/// Restores the process-wide kill switch so a test that flips it can
/// never leak a disabled registry into the rest of the suite.
class MetricsEnabledGuard {
 public:
  MetricsEnabledGuard() : saved_(MetricsEnabled()) {}
  ~MetricsEnabledGuard() { SetMetricsEnabled(saved_); }

 private:
  bool saved_;
};

TEST(MetricsHistogram, BucketBoundariesAreDeterministicPowersOfTwo) {
  EXPECT_EQ(Histogram::BucketBoundUs(0), 1);
  EXPECT_EQ(Histogram::BucketBoundUs(1), 2);
  EXPECT_EQ(Histogram::BucketBoundUs(10), 1024);
  EXPECT_EQ(Histogram::BucketBoundUs(Histogram::kFiniteBuckets - 1),
            std::int64_t{1} << (Histogram::kFiniteBuckets - 1));
  EXPECT_EQ(Histogram::BucketBoundUs(Histogram::kFiniteBuckets),
            std::numeric_limits<std::int64_t>::max());
}

TEST(MetricsHistogram, BucketForMatchesBounds) {
  // Bucket i holds us <= 2^i: each bound lands in its own bucket, the
  // next microsecond in the following one.
  for (int i = 0; i < Histogram::kFiniteBuckets; ++i) {
    const std::int64_t bound = Histogram::BucketBoundUs(i);
    EXPECT_EQ(Histogram::BucketFor(bound), i) << "bound " << bound;
    if (i + 1 < Histogram::kFiniteBuckets) {
      EXPECT_EQ(Histogram::BucketFor(bound + 1), i + 1);
    }
  }
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(-5), 0);  // clamped, never out of range
  EXPECT_EQ(Histogram::BucketFor(std::numeric_limits<std::int64_t>::max()),
            Histogram::kFiniteBuckets);
}

TEST(MetricsHistogram, ObserveAccumulatesCountSumAndQuantiles) {
  MetricsEnabledGuard guard;
  SetMetricsEnabled(true);
  Histogram h;
  h.Observe(1);
  h.Observe(3);    // bucket 2 (<= 4)
  h.Observe(100);  // bucket 7 (<= 128)
  const Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 3);
  EXPECT_EQ(snap.sum_us, 104);
  EXPECT_EQ(snap.buckets[0], 1);
  EXPECT_EQ(snap.buckets[2], 1);
  EXPECT_EQ(snap.buckets[7], 1);
  EXPECT_EQ(snap.ApproxQuantileUs(0.0), 1);
  EXPECT_EQ(snap.ApproxQuantileUs(0.5), 4);
  EXPECT_EQ(snap.ApproxQuantileUs(0.99), 128);
}

TEST(MetricsRegistry, KillSwitchFreezesEveryMetricType) {
  MetricsEnabledGuard guard;
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c_total");
  Counter* exported = registry.GetCounter("exported_total");
  Gauge* g = registry.GetGauge("g");
  Histogram* h = registry.GetHistogram("h_us");
  SetMetricsEnabled(false);
  c->Increment();
  exported->Set(5);
  g->Set(7.0);
  g->Add(3.0);
  h->Observe(42);
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(exported->Value(), 0);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Snap().count, 0);
  SetMetricsEnabled(true);
  c->Increment(2);
  exported->Set(5);
  g->Set(7.0);
  h->Observe(42);
  EXPECT_EQ(c->Value(), 2);
  EXPECT_EQ(exported->Value(), 5);
  EXPECT_EQ(g->Value(), 7.0);
  EXPECT_EQ(h->Snap().count, 1);
}

TEST(MetricsRegistry, PointersAreStableAndSharedPerLabelSet) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("reqs_total", "alpha", "lambda");
  Counter* b = registry.GetCounter("reqs_total", "alpha", "lambda");
  Counter* other = registry.GetCounter("reqs_total", "beta", "lambda");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
}

TEST(MetricsRegistry, JsonBodyIsDeterministicAndSorted) {
  MetricsEnabledGuard guard;
  SetMetricsEnabled(true);
  MetricsRegistry registry;
  registry.GetCounter("b_total", "t2", "lambda")->Increment(2);
  registry.GetCounter("b_total", "t1", "lambda")->Increment(1);
  registry.GetGauge("a_gauge")->Set(1.5);
  const std::string body = registry.ToJsonBody();
  EXPECT_EQ(body, registry.ToJsonBody());  // stable across calls
  // Sorted label sets: t1 before t2.
  const std::size_t t1 = body.find("tenant=t1");
  const std::size_t t2 = body.find("tenant=t2");
  ASSERT_NE(t1, std::string::npos);
  ASSERT_NE(t2, std::string::npos);
  EXPECT_LT(t1, t2);
  EXPECT_NE(body.find("\"counters\""), std::string::npos);
  EXPECT_NE(body.find("\"gauges\""), std::string::npos);
  EXPECT_NE(body.find("\"histograms\""), std::string::npos);
  // Every family is a map of label-key -> value; the unlabeled child
  // renders under the empty key.
  EXPECT_NE(body.find("\"a_gauge\": {\"\": 1.5}"), std::string::npos);
  EXPECT_NE(body.find("\"tenant=t1,verb=lambda\": 1"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusTextHasCumulativeBucketsAndInf) {
  MetricsEnabledGuard guard;
  SetMetricsEnabled(true);
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat_us", "t", "lambda");
  h->Observe(1);
  h->Observe(3);
  h->Observe(100);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE lat_us histogram"), std::string::npos);
  // Cumulative: le="4" has both the <=1 and <=4 observations.
  EXPECT_NE(text.find("lat_us_bucket{tenant=\"t\",verb=\"lambda\",le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{tenant=\"t\",verb=\"lambda\",le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(
      text.find("lat_us_bucket{tenant=\"t\",verb=\"lambda\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("lat_us_sum{tenant=\"t\",verb=\"lambda\"} 104"),
            std::string::npos);
  EXPECT_NE(text.find("lat_us_count{tenant=\"t\",verb=\"lambda\"} 3"),
            std::string::npos);
}

TEST(MetricsRegistry, LabelCardinalityCollapsesIntoOverflowChild) {
  MetricsRegistry registry;
  std::vector<Counter*> counters;
  for (int i = 0; i < MetricsRegistry::kMaxLabelSets + 50; ++i) {
    counters.push_back(
        registry.GetCounter("c_total", "tenant" + std::to_string(i), "v"));
  }
  Counter* overflow = registry.GetCounter("c_total", "_other", "_other");
  // Everything past the cap resolved to the same overflow child.
  for (int i = MetricsRegistry::kMaxLabelSets;
       i < MetricsRegistry::kMaxLabelSets + 50; ++i) {
    EXPECT_EQ(counters[static_cast<std::size_t>(i)], overflow) << i;
  }
  // Early label sets kept their own children.
  EXPECT_NE(counters[0], overflow);
  EXPECT_NE(counters[0], counters[1]);
}

TEST(MetricsConcurrent, ObserveAndIncrementMergeAcrossThreads) {
  MetricsEnabledGuard guard;
  SetMetricsEnabled(true);
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("hits_total");
  Histogram* hist = registry.GetHistogram("lat_us");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        hist->Observe((t * kPerThread + i) % 2000);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  const Histogram::Snapshot snap = hist->Snap();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::int64_t bucket_total = 0;
  for (const std::int64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(MetricsConcurrent, RegistryLookupsRaceSafelyWithSerialization) {
  MetricsEnabledGuard guard;
  SetMetricsEnabled(true);
  MetricsRegistry registry;
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        registry.GetCounter("c_total", "tenant" + std::to_string(i % 16), "v")
            ->Increment();
        registry.GetHistogram("h_us", "tenant" + std::to_string(i % 16), "v")
            ->Observe(i + t);
        if (i % 50 == 0) {
          const std::string body = registry.ToJsonBody();
          EXPECT_FALSE(body.empty());
          const std::string text = registry.ToPrometheusText();
          EXPECT_FALSE(text.empty());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::int64_t total = 0;
  for (int i = 0; i < 16; ++i) {
    total += registry.GetCounter("c_total", "tenant" + std::to_string(i), "v")
                 ->Value();
  }
  EXPECT_EQ(total, kThreads * 200);
}

}  // namespace
}  // namespace obs
}  // namespace nucleus
