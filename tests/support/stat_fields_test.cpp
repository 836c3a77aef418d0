// The field-list helper behind every component stats struct: the summary
// line is a delta in list order with kebab-cased names, and AtomicStats
// counts by member pointer across threads (publishStats is covered against
// a real cache in tests/service/service_compile_test.cpp).
#include "support/stat_fields.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace aviv {
namespace {

struct DemoStats {
  int64_t writeErrors = 0;
  int64_t hits = 0;
  int64_t maxDepth = 0;

  static constexpr auto fields() {
    using S = DemoStats;
    return std::to_array<StatField<S>>({
        {"writeErrors", &S::writeErrors},
        {"hits", &S::hits},
        {"maxDepth", &S::maxDepth},
    });
  }
};
static_assert(coversEveryMember<DemoStats>());

struct MissingField {
  int64_t a = 0;
  int64_t b = 0;
  static constexpr auto fields() {
    return std::to_array<StatField<MissingField>>({{"a", &MissingField::a}});
  }
};
static_assert(!coversEveryMember<MissingField>());

struct DuplicateField {
  int64_t a = 0;
  int64_t b = 0;
  static constexpr auto fields() {
    using S = DuplicateField;
    return std::to_array<StatField<S>>({{"a", &S::a}, {"b", &S::a}});
  }
};
static_assert(!coversEveryMember<DuplicateField>());

TEST(StatFields, SummaryLineIsTheDeltaInListOrder) {
  DemoStats before;
  before.writeErrors = 2;
  DemoStats now;
  now.writeErrors = 5;
  now.hits = 1;
  now.maxDepth = 7;
  EXPECT_EQ(statsLine(now, before), "3 write-errors, 1 hits, 7 max-depth");
  EXPECT_EQ(statsLine(now), "5 write-errors, 1 hits, 7 max-depth");
}

TEST(StatFields, AtomicStatsCountsByMemberAcrossThreads) {
  AtomicStats<DemoStats> stats;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&stats, t] {
      for (int i = 0; i < 1000; ++i) {
        stats.add(&DemoStats::hits);
        stats.raise(&DemoStats::maxDepth, t * 1000 + i);
      }
      stats.add(&DemoStats::writeErrors, 10);
    });
  for (std::thread& thread : threads) thread.join();
  const DemoStats s = stats.snapshot();
  EXPECT_EQ(s.hits, 4000);
  EXPECT_EQ(s.writeErrors, 40);
  EXPECT_EQ(s.maxDepth, 3999);
  stats.raise(&DemoStats::maxDepth, 5);  // below the mark: no change
  EXPECT_EQ(stats.snapshot().maxDepth, 3999);
}

}  // namespace
}  // namespace aviv
