// One field list per component stats struct — CacheStats, PoolStats,
// ServerStats. A struct lists its int64_t members once, name -> member, in
// printed order (`static constexpr auto fields()`), and everything else here
// walks that list:
//
//   AtomicStats<S>   the component's live counters: one relaxed atomic per
//                    field, bumped by member pointer, read as an S snapshot
//   statsLine        the avivd/avivc summary line, "N lookups, N hits, ..."
//                    (a delta against a `before` snapshot; camelCase names
//                    print kebab-case: writeErrors -> write-errors)
//   publishStats     the --stats-json node (one counter per field) and the
//                    --metrics-json gauges "<prefix>.<name>"
//
// A counter therefore reaches every sink under one name or not at all; each
// struct static_asserts coversEveryMember<S>() so a member missing from its
// list fails the build.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "support/telemetry.h"

namespace aviv {

template <typename Stats>
struct StatField {
  const char* name;
  int64_t Stats::*member;
};

// True when Stats::fields() names each member exactly once: distinct
// entries, and as many int64_t as the struct is large.
template <typename Stats>
constexpr bool coversEveryMember() {
  constexpr auto fields = Stats::fields();
  for (size_t i = 0; i < fields.size(); ++i)
    for (size_t j = i + 1; j < fields.size(); ++j)
      if (fields[i].member == fields[j].member) return false;
  return sizeof(Stats) == fields.size() * sizeof(int64_t);
}

template <typename Stats>
class AtomicStats {
 public:
  void add(int64_t Stats::*field, int64_t delta = 1) {
    cells_[indexOf(field)].fetch_add(delta, std::memory_order_relaxed);
  }
  // High-water mark: raises the field to `value` if it is below.
  void raise(int64_t Stats::*field, int64_t value) {
    std::atomic<int64_t>& cell = cells_[indexOf(field)];
    int64_t seen = cell.load(std::memory_order_relaxed);
    while (seen < value && !cell.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] Stats snapshot() const {
    Stats s;
    for (size_t i = 0; i < kFields.size(); ++i)
      s.*kFields[i].member = cells_[i].load(std::memory_order_relaxed);
    return s;
  }

 private:
  static constexpr auto kFields = Stats::fields();
  static constexpr size_t indexOf(int64_t Stats::*field) {
    size_t i = 0;
    while (kFields[i].member != field) ++i;
    return i;
  }
  std::array<std::atomic<int64_t>, kFields.size()> cells_{};
};

template <typename Stats>
[[nodiscard]] std::string statsLine(const Stats& now,
                                    const Stats& before = Stats{}) {
  std::string line;
  for (const StatField<Stats>& field : Stats::fields()) {
    if (!line.empty()) line += ", ";
    line += std::to_string(now.*field.member - before.*field.member) + ' ';
    for (const char* c = field.name; *c != '\0'; ++c) {
      if (*c >= 'A' && *c <= 'Z') {
        line += '-';
        line += static_cast<char>(*c - 'A' + 'a');
      } else {
        line += *c;
      }
    }
  }
  return line;
}

// Absolute values, so publishing again before every dump is idempotent.
template <typename Stats>
void publishStats(const Stats& stats, TelemetryNode& node,
                  const std::string& gaugePrefix) {
  for (const StatField<Stats>& field : Stats::fields()) {
    node.setCounter(field.name, stats.*field.member);
    if (metrics::on())
      metrics::Registry::instance()
          .gauge(gaugePrefix + "." + field.name)
          .set(stats.*field.member);
  }
}

}  // namespace aviv
