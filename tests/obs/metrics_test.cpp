// Metrics registry: log₂ bucket math, quantile interpolation, sharded
// counter aggregation, kind checking, and the --metrics-json shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace aviv::metrics {
namespace {

TEST(MetricsHistogram, BucketOfIsBitWidth) {
  EXPECT_EQ(Histogram::bucketOf(0), 0);
  EXPECT_EQ(Histogram::bucketOf(-5), 0);  // clamped domain
  EXPECT_EQ(Histogram::bucketOf(1), 1);
  EXPECT_EQ(Histogram::bucketOf(2), 2);
  EXPECT_EQ(Histogram::bucketOf(3), 2);
  EXPECT_EQ(Histogram::bucketOf(4), 3);
  EXPECT_EQ(Histogram::bucketOf(1023), 10);
  EXPECT_EQ(Histogram::bucketOf(1024), 11);
  EXPECT_EQ(Histogram::bucketOf(INT64_MAX), 63);
  EXPECT_LT(Histogram::bucketOf(INT64_MAX), Histogram::kBuckets);
}

TEST(MetricsHistogram, BucketLowerBoundsMatchBucketOf) {
  EXPECT_EQ(Histogram::bucketLowerBound(0), 0);
  EXPECT_EQ(Histogram::bucketLowerBound(1), 1);
  EXPECT_EQ(Histogram::bucketLowerBound(2), 2);
  EXPECT_EQ(Histogram::bucketLowerBound(3), 4);
  EXPECT_EQ(Histogram::bucketLowerBound(10), 512);
  // Every bucket's lower bound maps back into that bucket.
  for (int b = 1; b < 64; ++b) {
    EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLowerBound(b)), b) << b;
    EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLowerBound(b) - 1), b - 1)
        << b;
  }
  // b >= 64 is unreachable for int64 samples; the bound saturates.
  EXPECT_EQ(Histogram::bucketLowerBound(64), INT64_MAX);
}

TEST(MetricsHistogram, SnapshotTracksCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.snapshot().count, 0);
  EXPECT_EQ(h.snapshot().min, 0);  // empty snapshot is all-zero
  h.record(7);
  h.record(100);
  h.record(3);
  h.record(-9);  // clamps to 0
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4);
  EXPECT_EQ(snap.sum, 110);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 100);
  EXPECT_EQ(snap.buckets[0], 1);                       // the clamped -9
  EXPECT_EQ(snap.buckets[Histogram::bucketOf(7)], 1);
  EXPECT_EQ(snap.buckets[Histogram::bucketOf(100)], 1);
}

TEST(MetricsHistogram, QuantilesInterpolateAndClampToObservedRange) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  const Histogram::Snapshot snap = h.snapshot();
  // Exact at the extremes regardless of bucket resolution.
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 100.0);
  // Interior quantiles are log₂-bucket estimates: loose but ordered and
  // within the observed range.
  const double p50 = snap.quantile(0.50);
  const double p90 = snap.quantile(0.90);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p90, 100.0);
  EXPECT_LE(p50, p90);
  // Single-sample histogram: every quantile is that sample.
  Histogram one;
  one.record(42);
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(0.99), 42.0);
}

TEST(MetricsCounter, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.add(1);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), int64_t{kThreads} * kAddsPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(MetricsRegistry, FindOrCreateIsStableAndKindChecked) {
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("test.registry.counter");
  EXPECT_EQ(&c, &reg.counter("test.registry.counter"));
  EXPECT_THROW((void)reg.histogram("test.registry.counter"),
               std::runtime_error);
  EXPECT_THROW((void)reg.gauge("test.registry.counter"), std::runtime_error);
  // References survive reset(); values are zeroed.
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(MetricsRegistry, ToJsonHasSchemaShape) {
  Registry& reg = Registry::instance();
  reg.reset();
  reg.counter("test.json.counter").add(3);
  reg.gauge("test.json.gauge").set(-4);
  Histogram& h = reg.histogram("test.json.hist");
  h.record(1);
  h.record(1000);
  // The name the telemetry and trace writers' tests pin too (obs/json.h).
  reg.counter(std::string("a\"b\\c\nd\te\x01") + "f").add(1);
  const std::string json = reg.toJson();
  EXPECT_NE(json.find(R"("a\"b\\c\nd\te\u0001f": 1)"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\": {\"count\": 2, \"sum\": 1001, "
                      "\"min\": 1, \"max\": 1000"),
            std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Buckets render as [upperBound, count] pairs; only non-empty buckets.
  EXPECT_NE(json.find("\"buckets\": [[1, 1], [1023, 1]]"), std::string::npos);
  reg.reset();
}

TEST(MetricsRegistry, GatingFlagFlipsOnAndOff) {
  EXPECT_FALSE(on());
  Registry::instance().enable();
  EXPECT_TRUE(on());
  Registry::instance().disable();
  EXPECT_FALSE(on());
}

}  // namespace
}  // namespace aviv::metrics
