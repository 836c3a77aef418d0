#include "isdl/databases.h"

#include <algorithm>
#include <deque>

#include "support/error.h"

namespace aviv {

// ---------------------------------------------------------------------
// OpDatabase
// ---------------------------------------------------------------------

OpDatabase::OpDatabase(const Machine& machine) : byOp_(kNumOps) {
  for (UnitId u = 0; u < machine.units().size(); ++u) {
    const FunctionalUnit& unit = machine.unit(u);
    for (size_t i = 0; i < unit.ops.size(); ++i) {
      byOp_[static_cast<size_t>(unit.ops[i].op)].push_back(
          {u, static_cast<int>(i)});
    }
  }
}

const std::vector<OpImpl>& OpDatabase::implsFor(Op op) const {
  static const std::vector<OpImpl> kEmpty;
  const auto i = static_cast<size_t>(op);
  if (i >= byOp_.size()) return kEmpty;
  return byOp_[i];
}

// ---------------------------------------------------------------------
// TransferDatabase
// ---------------------------------------------------------------------

size_t TransferDatabase::locIndex(Loc loc) const {
  return loc.isRegFile() ? loc.index : numRegFiles_ + loc.index;
}

TransferDatabase::TransferDatabase(const Machine& machine,
                                   int maxRoutesPerPair) {
  numRegFiles_ = machine.regFiles().size();
  numLocs_ = numRegFiles_ + machine.memories().size();
  cost_.assign(numLocs_ * numLocs_, kUnreachable);
  routes_.assign(numLocs_ * numLocs_, {});

  // Adjacency: outgoing transfer-path ids per loc.
  std::vector<std::vector<int>> out(numLocs_);
  for (size_t p = 0; p < machine.transfers().size(); ++p) {
    const TransferPath& path = machine.transfers()[p];
    out[locIndex(path.from)].push_back(static_cast<int>(p));
  }

  // For every target, reverse BFS gives distTo[t][loc]; forward DFS then
  // enumerates all minimal-hop routes (capped).
  std::vector<std::vector<int>> in(numLocs_);
  for (size_t p = 0; p < machine.transfers().size(); ++p)
    in[locIndex(machine.transfers()[p].to)].push_back(static_cast<int>(p));

  for (size_t t = 0; t < numLocs_; ++t) {
    std::vector<int> distTo(numLocs_, kUnreachable);
    distTo[t] = 0;
    std::deque<size_t> queue{t};
    while (!queue.empty()) {
      const size_t cur = queue.front();
      queue.pop_front();
      for (int pathId : in[cur]) {
        const size_t from =
            locIndex(machine.transfers()[static_cast<size_t>(pathId)].from);
        if (distTo[from] == kUnreachable) {
          distTo[from] = distTo[cur] + 1;
          queue.push_back(from);
        }
      }
    }

    for (size_t s = 0; s < numLocs_; ++s) {
      cost_[s * numLocs_ + t] = s == t ? 0 : distTo[s];
      if (s == t || distTo[s] == kUnreachable) continue;

      // Enumerate minimal routes s -> t by always stepping "downhill" in
      // distTo. Depth bounded by distTo[s], fan-out capped.
      auto& routeList = routes_[s * numLocs_ + t];
      std::vector<int> current;
      // Iterative DFS with explicit stack of (loc, next edge cursor).
      struct Frame {
        size_t loc;
        size_t cursor;
      };
      std::vector<Frame> stack{{s, 0}};
      while (!stack.empty() &&
             routeList.size() < static_cast<size_t>(maxRoutesPerPair)) {
        Frame& frame = stack.back();
        if (frame.loc == t) {
          routeList.push_back({current});
          stack.pop_back();
          if (!current.empty()) current.pop_back();
          continue;
        }
        bool descended = false;
        while (frame.cursor < out[frame.loc].size()) {
          const int pathId = out[frame.loc][frame.cursor++];
          const size_t next =
              locIndex(machine.transfers()[static_cast<size_t>(pathId)].to);
          if (distTo[next] == distTo[frame.loc] - 1) {
            current.push_back(pathId);
            stack.push_back({next, 0});
            descended = true;
            break;
          }
        }
        if (!descended) {
          stack.pop_back();
          if (!current.empty()) current.pop_back();
        }
      }
      AVIV_CHECK_MSG(!routeList.empty(),
                     "BFS found a distance but no route for loc pair ("
                         << s << "," << t << ")");
    }
  }
}

const std::vector<TransferRoute>& TransferDatabase::routes(Loc from,
                                                           Loc to) const {
  AVIV_CHECK(numLocs_ > 0);
  if (from == to) return empty_;
  const size_t idx = locIndex(from) * numLocs_ + locIndex(to);
  return routes_[idx];
}

int TransferDatabase::cost(Loc from, Loc to) const {
  AVIV_CHECK(numLocs_ > 0);
  return cost_[locIndex(from) * numLocs_ + locIndex(to)];
}

// ---------------------------------------------------------------------
// ConstraintDatabase
// ---------------------------------------------------------------------

ConstraintDatabase::ConstraintDatabase(const Machine& machine)
    : constraints_(machine.constraints()) {}

const Constraint* ConstraintDatabase::firstViolated(
    Span<const OpSel> sels) const {
  // Instructions hold a handful of operations, so a linear membership scan
  // beats building a set per call.
  for (const Constraint& c : constraints_) {
    const bool violated = std::all_of(
        c.together.begin(), c.together.end(), [&](const OpSel& sel) {
          return std::find(sels.begin(), sels.end(), sel) != sels.end();
        });
    if (violated) return &c;
  }
  return nullptr;
}

}  // namespace aviv
