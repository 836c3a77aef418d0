// Phase telemetry — one structured tree per pipeline session recording what
// every stage of the back end did: named phases (split-node build, assignment
// exploration, covering, regalloc, peephole, encode, ...), accumulated wall
// time, and integer counters. Stats flow one way: each stage fills its own
// stats struct, one writer per stage copies it into the tree (recordCoreStats,
// recordPeepholeStats, ...), and the tree is written out as JSON
// (`--stats-json`). Nothing reads the JSON back in.
//
// Thread-safety: a TelemetryNode is NOT thread-safe. Parallel pipeline stages
// must write to disjoint subtrees created before the parallel region (the
// driver pre-creates one "block:<name>" child per block).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/timer.h"

namespace aviv {

class TelemetryNode {
 public:
  explicit TelemetryNode(std::string name = "session") : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  // Find-or-create the child phase `name` (stable insertion order).
  TelemetryNode& child(const std::string& name);
  // Existing child or nullptr.
  [[nodiscard]] const TelemetryNode* findChild(const std::string& name) const;
  [[nodiscard]] const std::vector<std::unique_ptr<TelemetryNode>>& children()
      const {
    return children_;
  }

  void addCounter(const std::string& key, int64_t delta);
  void setCounter(const std::string& key, int64_t value);
  // 0 when the counter was never written (see hasCounter).
  [[nodiscard]] int64_t counter(const std::string& key) const;
  [[nodiscard]] bool hasCounter(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, int64_t>& counters() const {
    return counters_;
  }

  void addSeconds(double s) { seconds_ += s; }
  [[nodiscard]] double seconds() const { return seconds_; }

  // Merges `other` into this node: seconds add, counters add, children merge
  // recursively by name. Used to fold per-run telemetry into a report tree.
  void merge(const TelemetryNode& other);

  // Deep equality on names, counters, and child topology. Seconds are
  // wall-clock noise and intentionally not compared.
  [[nodiscard]] bool sameShapeAs(const TelemetryNode& other) const;

  // JSON schema (documented in DESIGN.md §6):
  //   {"name": "...", "seconds": 1.5e-3,
  //    "counters": {"irNodes": 13, ...}, "children": [ ... ]}
  [[nodiscard]] std::string toJson(int indent = 0) const;

 private:
  std::string name_;
  double seconds_ = 0.0;
  std::map<std::string, int64_t> counters_;
  std::vector<std::unique_ptr<TelemetryNode>> children_;
};

// RAII phase timer: find-or-creates `name` under `parent` and adds the
// scope's wall time to it on destruction. Every phase is also an
// observability event: when tracing is on the scope emits one complete
// trace span (category "phase"), and when metrics are on its latency is
// recorded into the `phase.<name>.us` histogram — both are single-branch
// no-ops otherwise (src/obs/).
class PhaseScope {
 public:
  PhaseScope(TelemetryNode& parent, const std::string& name)
      : node_(parent.child(name)), span_("phase", name) {}
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() {
    const double seconds = timer_.seconds();
    node_.addSeconds(seconds);
    if (metrics::on())
      metrics::Registry::instance()
          .histogram("phase." + node_.name() + ".us")
          .record(static_cast<int64_t>(seconds * 1e6));
  }

  [[nodiscard]] TelemetryNode& node() { return node_; }

 private:
  TelemetryNode& node_;
  trace::Span span_;
  WallTimer timer_;
};

}  // namespace aviv
