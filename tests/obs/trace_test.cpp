// Flight-recorder tracer: ring-wrap retention, disabled no-op, span/arg
// recording, JSON export shape, and the flight-record tail dump.
//
// The Tracer is a process singleton, so every test starts by forcing a
// known state (enable with an explicit capacity + clear).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/trace.h"
#include "support/io.h"

namespace aviv::trace {
namespace {

size_t countOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++n;
  return n;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().enable(kCapacity);
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().clear();
    // Restore the default capacity so later tests/binaries see it.
    Tracer::instance().enable(Tracer::kDefaultEventsPerThread);
    Tracer::instance().disable();
  }
  static constexpr size_t kCapacity = 8;
};

TEST_F(TraceTest, DisabledEmitIsANoOp) {
  Tracer::instance().disable();
  instant("test", "dropped");
  counter("test", "series", "v", 1);
  { Span span("test", "dropped-span"); }
  EXPECT_EQ(Tracer::instance().retained(), 0u);
  // Re-enabling later does not resurrect anything.
  Tracer::instance().enable(kCapacity);
  EXPECT_EQ(Tracer::instance().retained(), 0u);
}

TEST_F(TraceTest, SpanBecomesDisabledMidScopeWithoutEmitting) {
  Span span("test", "interrupted");
  Tracer::instance().disable();
  // dtor runs here with tracing off: nothing may be recorded.
  // (checked in the next statement via a fresh scope)
  {
    Span inner("test", "never");
  }
  EXPECT_EQ(Tracer::instance().retained(), 0u);
}

TEST_F(TraceTest, RingWrapKeepsNewestAndCountsOverwritten) {
  for (int i = 0; i < 20; ++i)
    instant("test", "ev:", std::to_string(i));
  EXPECT_EQ(Tracer::instance().retained(), kCapacity);
  EXPECT_EQ(Tracer::instance().overwritten(), 20 - int64_t{kCapacity});
  const std::string json = Tracer::instance().exportJson();
  // Oldest events were overwritten; the newest survive.
  EXPECT_EQ(json.find("ev:0\""), std::string::npos);
  EXPECT_NE(json.find("ev:19"), std::string::npos);
  EXPECT_NE(json.find("\"overwritten\":12"), std::string::npos);
}

TEST_F(TraceTest, ClearDropsEventsAndResetsCounters) {
  for (int i = 0; i < 20; ++i) instant("test", "ev");
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().retained(), 0u);
  EXPECT_EQ(Tracer::instance().overwritten(), 0);
  instant("test", "fresh");
  EXPECT_EQ(Tracer::instance().retained(), 1u);
}

TEST_F(TraceTest, SpanRecordsCompleteEventWithArgs) {
  {
    Span span("cat", "work:", "block");
    span.arg("items", 42);
    span.arg("cost", 7);
    span.arg("extra", 3);
    span.arg("ignored", 1);  // beyond kMaxArgs: silently dropped
  }
  const std::string json = Tracer::instance().exportJson();
  EXPECT_NE(json.find("\"name\":\"work:block\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"items\":42"), std::string::npos);
  EXPECT_NE(json.find("\"cost\":7"), std::string::npos);
  EXPECT_NE(json.find("\"extra\":3"), std::string::npos);
  EXPECT_EQ(json.find("ignored"), std::string::npos);
}

TEST_F(TraceTest, NamesAreTruncatedNeverOverrun) {
  const std::string longName(200, 'x');
  instant("test", longName, longName);
  const std::string json = Tracer::instance().exportJson();
  EXPECT_NE(json.find(std::string(Event::kNameCapacity - 1, 'x')),
            std::string::npos);
  EXPECT_EQ(json.find(std::string(Event::kNameCapacity, 'x')),
            std::string::npos);
}

TEST_F(TraceTest, CounterEventCarriesSeriesValue) {
  counter("search", "best-cost", "instructions", 13);
  const std::string json = Tracer::instance().exportJson();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"instructions\":13"), std::string::npos);
}

TEST_F(TraceTest, ExportIsValidChromeTraceShape) {
  instant("test", "one");
  { Span span("test", "two"); }
  const std::string json = Tracer::instance().exportJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"overwritten\":0}"),
            std::string::npos);
  EXPECT_EQ(countOccurrences(json, "\"pid\":1"), 2u);
}

TEST_F(TraceTest, FlightRecordWritesLastNTail) {
  for (int i = 0; i < 6; ++i) instant("test", "ev:", std::to_string(i));
  const std::string path = ::testing::TempDir() + "/aviv_flight_test.json";
  ASSERT_TRUE(Tracer::instance().writeFlightRecord(path, 3));
  const std::string json = readFile(path);
  EXPECT_EQ(countOccurrences(json, "\"name\":\"ev:"), 3u);
  EXPECT_EQ(json.find("ev:2\""), std::string::npos);
  EXPECT_NE(json.find("ev:5"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, FlightRecordRefusesEmptyTraceAndBadPath) {
  EXPECT_FALSE(Tracer::instance().writeFlightRecord(
      ::testing::TempDir() + "/aviv_flight_empty.json"));
  instant("test", "ev");
  EXPECT_FALSE(Tracer::instance().writeFlightRecord(
      "/nonexistent-dir/zzz/flight.json"));
}

TEST_F(TraceTest, HostileNamesAreEscapedInExport) {
  instant("test", "bad\"name\r\n\x01");
  const std::string json = Tracer::instance().exportJson();
  EXPECT_NE(json.find("bad\\\"name\\r\\n\\u0001"), std::string::npos);
}

}  // namespace
}  // namespace aviv::trace
