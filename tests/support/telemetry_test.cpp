// Phase-telemetry tree: counters, child ordering, merge semantics, and the
// exact JSON bytes --stats-json writes.
#include <gtest/gtest.h>

#include <string>

#include "support/telemetry.h"

namespace aviv {
namespace {

TelemetryNode sampleTree() {
  TelemetryNode root("codegen");
  root.setCounter("jobs", 4);
  root.addSeconds(0.125);
  TelemetryNode& block = root.child("block:fig2");
  block.child("splitnode").setCounter("sndNodes", 42);
  TelemetryNode& cover = block.child("cover");
  cover.setCounter("cliquesGenerated", 1234);
  cover.setCounter("spillsInserted", 2);
  cover.addSeconds(3.5e-3);
  block.child("regalloc").setCounter("valuesColored", 17);
  return root;
}

TEST(Telemetry, CountersAccumulateAndRead) {
  TelemetryNode node("phase");
  EXPECT_FALSE(node.hasCounter("x"));
  EXPECT_EQ(node.counter("x"), 0);
  node.addCounter("x", 3);
  node.addCounter("x", 4);
  node.setCounter("y", -5);
  EXPECT_TRUE(node.hasCounter("x"));
  EXPECT_EQ(node.counter("x"), 7);
  EXPECT_EQ(node.counter("y"), -5);
}

TEST(Telemetry, ChildIsFindOrCreateWithStableOrder) {
  TelemetryNode root("r");
  TelemetryNode& b = root.child("beta");
  TelemetryNode& a = root.child("alpha");
  EXPECT_EQ(&root.child("beta"), &b);  // found, not duplicated
  ASSERT_EQ(root.children().size(), 2u);
  // Insertion order, not alphabetical: phase order is pipeline order.
  EXPECT_EQ(root.children()[0]->name(), "beta");
  EXPECT_EQ(root.children()[1]->name(), "alpha");
  EXPECT_EQ(root.findChild("alpha"), &a);
  EXPECT_EQ(root.findChild("gamma"), nullptr);
}

TEST(Telemetry, JsonEscapesSpecialCharacters) {
  // Exact bytes of the --stats-json writer. The hostile name pins the shared
  // escaper (obs/json.h); the same name is pinned in the metrics and trace
  // writers' tests. Seconds print with %.17g, so every double is exact.
  const std::string hostile = std::string("a\"b\\c\nd\te\x01") + "f";
  TelemetryNode root(hostile);
  root.addSeconds(0.125);
  root.setCounter(hostile, 7);
  TelemetryNode& kid = root.child("kid");
  kid.setCounter("n", -2);
  kid.addSeconds(3.5e-3);
  EXPECT_EQ(root.toJson(), R"({
  "name": "a\"b\\c\nd\te\u0001f",
  "seconds": 0.125,
  "counters": {"a\"b\\c\nd\te\u0001f": 7},
  "children": [
    {
      "name": "kid",
      "seconds": 0.0035000000000000001,
      "counters": {"n": -2},
      "children": []
    }
  ]
}
)");
}

TEST(Telemetry, JsonEscapesHostileControlCharacters) {
  // Block names come from user input (IR files), so the serializer must
  // survive every control byte: \r has a short escape, the rest go \u00XX.
  std::string hostile = "blk:\r\n\t";
  hostile += '\x01';
  hostile += '\x1f';
  hostile += "\xc3\xa9";  // UTF-8 passes through raw
  TelemetryNode root(hostile);
  root.setCounter("k\rv", 7);
  const std::string json = root.toJson();
  for (const char c : json)
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control byte in serialized JSON";
  EXPECT_NE(json.find("\\r"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
  EXPECT_NE(json.find("\xc3\xa9"), std::string::npos);
  EXPECT_NE(json.find("\"k\\rv\": 7"), std::string::npos);
}

TEST(Telemetry, MergeAddsCountersSecondsAndChildrenByName) {
  TelemetryNode a = sampleTree();
  TelemetryNode b = sampleTree();
  b.child("block:dct4").setCounter("sndNodes", 9);
  a.merge(b);
  EXPECT_EQ(a.counter("jobs"), 8);  // counters add
  EXPECT_DOUBLE_EQ(a.seconds(), 0.25);
  EXPECT_EQ(a.findChild("block:fig2")->findChild("cover")->counter(
                "cliquesGenerated"),
            2468);
  ASSERT_NE(a.findChild("block:dct4"), nullptr);  // new child adopted
  EXPECT_EQ(a.findChild("block:dct4")->counter("sndNodes"), 9);
}

TEST(Telemetry, SameShapeDetectsCounterAndTopologyDrift) {
  const TelemetryNode root = sampleTree();
  TelemetryNode differentCounter = sampleTree();
  differentCounter.child("block:fig2").child("cover").setCounter(
      "spillsInserted", 3);
  EXPECT_FALSE(root.sameShapeAs(differentCounter));
  TelemetryNode extraChild = sampleTree();
  extraChild.child("block:extra");
  EXPECT_FALSE(root.sameShapeAs(extraChild));
  TelemetryNode differentSeconds = sampleTree();
  differentSeconds.addSeconds(123.0);
  EXPECT_TRUE(root.sameShapeAs(differentSeconds));
}

TEST(Telemetry, PhaseScopeCreatesChildAndAccumulatesTime) {
  TelemetryNode root("r");
  {
    PhaseScope ph(root, "work");
    ph.node().setCounter("items", 3);
  }
  {
    PhaseScope ph(root, "work");  // same phase again: time accumulates
    ph.node().addCounter("items", 2);
  }
  ASSERT_EQ(root.children().size(), 1u);
  EXPECT_EQ(root.child("work").counter("items"), 5);
  EXPECT_GE(root.child("work").seconds(), 0.0);
}

}  // namespace
}  // namespace aviv
