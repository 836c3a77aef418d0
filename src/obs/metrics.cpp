#include "obs/metrics.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>

#include "obs/json.h"

namespace aviv::metrics {

namespace detail {

std::atomic<bool> g_enabled{false};

int thisThreadShard() {
  // Hash of the stable thread id; computed once per thread.
  thread_local const int shard = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      static_cast<size_t>(kShards));
  return shard;
}

}  // namespace detail

int64_t Counter::value() const {
  int64_t total = 0;
  for (const auto& cell : cells_)
    total += cell.value.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
}

int Histogram::bucketOf(int64_t value) {
  if (value <= 0) return 0;
  return std::bit_width(static_cast<uint64_t>(value));
}

int64_t Histogram::bucketLowerBound(int b) {
  if (b <= 0) return 0;
  if (b >= 64) return INT64_MAX;  // unreachable for non-negative samples
  return int64_t{1} << (b - 1);
}

void Histogram::record(int64_t value) {
  if (value < 0) value = 0;  // latencies/counts; clamp hostile inputs
  Shard& shard = shards_[detail::thisThreadShard()];
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  shard.buckets[bucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  int64_t seen = shard.min.load(std::memory_order_relaxed);
  while (value < seen &&
         !shard.min.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
  }
  seen = shard.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !shard.max.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  int64_t minSeen = INT64_MAX;
  int64_t maxSeen = INT64_MIN;
  for (const Shard& shard : shards_) {
    snap.count += shard.count.load(std::memory_order_relaxed);
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    minSeen = std::min(minSeen, shard.min.load(std::memory_order_relaxed));
    maxSeen = std::max(maxSeen, shard.max.load(std::memory_order_relaxed));
    for (int b = 0; b < kBuckets; ++b)
      snap.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
  }
  if (snap.count > 0) {
    snap.min = minSeen;
    snap.max = maxSeen;
  }
  return snap;
}

void Histogram::reset() {
  for (Shard& shard : shards_) {
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
    shard.min.store(INT64_MAX, std::memory_order_relaxed);
    shard.max.store(INT64_MIN, std::memory_order_relaxed);
    for (auto& bucket : shard.buckets)
      bucket.store(0, std::memory_order_relaxed);
  }
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count - 1) + 1.0;
  double seen = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double inBucket = static_cast<double>(buckets[b]);
    if (seen + inBucket >= target) {
      const double lo = static_cast<double>(bucketLowerBound(b));
      const double hi = b == 0 ? 0.0 : lo * 2.0 - 1.0;
      const double frac = inBucket <= 1.0
                              ? 0.0
                              : (target - seen - 1.0) / (inBucket - 1.0);
      double est = lo + (hi - lo) * frac;
      // The true extremes beat interpolation at the tails.
      est = std::max(est, static_cast<double>(min));
      est = std::min(est, static_cast<double>(max));
      return est;
    }
    seen += inBucket;
  }
  return static_cast<double>(max);
}

Registry& Registry::instance() {
  static Registry* registry = new Registry();  // never destroyed (see Tracer)
  return *registry;
}

Registry::Entry& Registry::entry(const std::string& name, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::kCounter: e.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: e.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        e.histogram = std::make_unique<Histogram>();
        break;
    }
    it = metrics_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != kind) {
    throw std::runtime_error("metric '" + name +
                             "' already registered with a different type");
  }
  return it->second;
}

Counter& Registry::counter(const std::string& name) {
  return *entry(name, Kind::kCounter).counter;
}

Gauge& Registry::gauge(const std::string& name) {
  return *entry(name, Kind::kGauge).gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  return *entry(name, Kind::kHistogram).histogram;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : metrics_) {
    switch (e.kind) {
      case Kind::kCounter: e.counter->reset(); break;
      case Kind::kGauge: e.gauge->reset(); break;
      case Kind::kHistogram: e.histogram->reset(); break;
    }
  }
}

namespace {

void appendDouble(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  out += buf;
}

}  // namespace

std::string Registry::toJson() const {
  // Copy the (name, pointer) views under the lock, aggregate outside it.
  struct View {
    std::string name;
    Kind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };
  std::vector<View> views;
  {
    std::lock_guard<std::mutex> lock(mu_);
    views.reserve(metrics_.size());
    for (const auto& [name, e] : metrics_)
      views.push_back({name, e.kind, e.counter.get(), e.gauge.get(),
                       e.histogram.get()});
  }

  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const View& v : views) {
    if (v.kind != Kind::kCounter) continue;
    out += first ? "\n    " : ",\n    ";
    first = false;
    appendJsonString(out, v.name);
    out += ": " + std::to_string(v.counter->value());
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"gauges\": {";
  first = true;
  for (const View& v : views) {
    if (v.kind != Kind::kGauge) continue;
    out += first ? "\n    " : ",\n    ";
    first = false;
    appendJsonString(out, v.name);
    out += ": " + std::to_string(v.gauge->value());
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"histograms\": {";
  first = true;
  for (const View& v : views) {
    if (v.kind != Kind::kHistogram) continue;
    const Histogram::Snapshot snap = v.histogram->snapshot();
    out += first ? "\n    " : ",\n    ";
    first = false;
    appendJsonString(out, v.name);
    out += ": {\"count\": " + std::to_string(snap.count) +
           ", \"sum\": " + std::to_string(snap.sum) +
           ", \"min\": " + std::to_string(snap.min) +
           ", \"max\": " + std::to_string(snap.max);
    out += ", \"p50\": ";
    appendDouble(out, snap.quantile(0.50));
    out += ", \"p90\": ";
    appendDouble(out, snap.quantile(0.90));
    out += ", \"p99\": ";
    appendDouble(out, snap.quantile(0.99));
    out += ", \"buckets\": [";
    bool firstBucket = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (snap.buckets[b] == 0) continue;
      if (!firstBucket) out += ", ";
      firstBucket = false;
      // [inclusive upper bound of the bucket, sample count]
      const int64_t upper =
          b == 0 ? 0 : Histogram::bucketLowerBound(b) * 2 - 1;
      out += "[" + std::to_string(upper) + ", " +
             std::to_string(snap.buckets[b]) + "]";
    }
    out += "]}";
  }
  out += first ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

}  // namespace aviv::metrics
