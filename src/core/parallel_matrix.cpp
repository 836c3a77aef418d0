#include "core/parallel_matrix.h"

#include <algorithm>
#include <utility>

#include "core/workspace.h"
#include "support/error.h"
#include "support/table.h"

namespace aviv {

ParallelismMatrix::ParallelismMatrix(const AssignedGraph& graph,
                                     int levelWindow) {
  CoverWorkspace ws;
  graph.orderAndLevelsInto(ws);
  rebuild(graph, ws.topoOrder, ws.levelTop, levelWindow, ws);
}

ParallelismMatrix::ParallelismMatrix(std::vector<DynBitset> rows)
    : rows_(std::move(rows)) {
  for (size_t a = 0; a < rows_.size(); ++a) {
    AVIV_CHECK(rows_[a].size() == rows_.size() && !rows_[a].test(a));
    rows_[a].forEach([&](size_t b) { AVIV_CHECK(rows_[b].test(a)); });
  }
}

namespace {

// ANDs into every active node's row the set of nodes whose level is within
// `window` of its own. Nodes are bucketed by level (ids in `order`, so each
// bucket is a contiguous run after a counting sort), and one window set
// slides across the levels: each bucket enters and leaves it once.
void applyLevelWindow(const std::vector<int>& level,
                      const std::vector<uint32_t>& order, int window,
                      std::vector<DynBitset>& rows, CoverWorkspace& ws) {
  int maxLevel = 0;
  for (const AgId id : order) maxLevel = std::max(maxLevel, level[id]);
  std::vector<uint32_t>& start = ws.levelStart;
  start.assign(static_cast<size_t>(maxLevel) + 2, 0);
  for (const AgId id : order) start[static_cast<size_t>(level[id]) + 1] += 1;
  for (size_t l = 1; l < start.size(); ++l) start[l] += start[l - 1];
  std::vector<uint32_t>& ids = ws.levelIds;
  ids.resize(order.size());
  for (const AgId id : order)
    ids[start[static_cast<size_t>(level[id])]++] = id;
  // The fill advanced every start to the next bucket's; shift them back.
  for (size_t l = start.size() - 1; l > 0; --l) start[l] = start[l - 1];
  start[0] = 0;

  auto bucket = [&](int l) {
    return Span<const uint32_t>(ids.data() + start[static_cast<size_t>(l)],
                                start[static_cast<size_t>(l) + 1] -
                                    start[static_cast<size_t>(l)]);
  };
  DynBitset& inWindow = ws.inWindow;
  inWindow.clearAndResize(rows.size());
  int hi = -1;  // highest level in the window
  for (int l = 0; l <= maxLevel; ++l) {
    for (; hi < std::min(l + window, maxLevel); ++hi)
      for (const uint32_t id : bucket(hi + 1)) inWindow.set(id);
    if (l - window - 1 >= 0)
      for (const uint32_t id : bucket(l - window - 1)) inWindow.reset(id);
    for (const uint32_t id : bucket(l)) rows[id] &= inWindow;
  }
}

}  // namespace

void ParallelismMatrix::rebuild(const AssignedGraph& graph,
                                const std::vector<AgId>& order,
                                const std::vector<int>& levelTop,
                                int levelWindow, CoverWorkspace& ws) {
  const size_t n = graph.size();
  const Machine& machine = graph.machine();
  // One topological order serves the descendants and both level vectors.
  const std::vector<DynBitset>& desc = graph.computeDescendantsInto(order, ws);

  // Resource masks: the active nodes, the operations on each unit, and the
  // transfers on each bus.
  ws.alive.clearAndResize(n);
  if (ws.unitMask.size() < machine.units().size())
    ws.unitMask.resize(machine.units().size());
  for (size_t u = 0; u < machine.units().size(); ++u)
    ws.unitMask[u].clearAndResize(n);
  if (ws.busMask.size() < machine.buses().size())
    ws.busMask.resize(machine.buses().size());
  for (size_t b = 0; b < machine.buses().size(); ++b)
    ws.busMask[b].clearAndResize(n);
  for (AgId a = 0; a < n; ++a) {
    const AgNode& na = graph.node(a);
    if (na.deleted()) continue;
    ws.alive.set(a);
    if (na.kind == AgKind::kOp)
      ws.unitMask[na.unit].set(a);
    else
      ws.busMask[graph.busOf(a)].set(a);
  }

  // Row a: the active nodes that are not a, not an ancestor or descendant
  // of a, not on a's unit, and not on a's bus when that bus carries one
  // transfer per cycle. Deleted nodes get empty rows. One forward pass
  // first leaves each active node's ancestors in its row; an active node's
  // ancestors are active, so XOR with `alive` then removes them.
  rows_.resize(n);
  // Every row now holds n bits, so the per-edge OR skips its size check.
  for (DynBitset& row : rows_) row.clearAndResize(n);
  for (const AgId id : order) {
    DynBitset& anc = rows_[id];
    for (AgId pred : graph.node(id).preds) {
      anc.set(pred);
      anc.orUnchecked(rows_[pred]);
    }
  }
  for (AgId a = 0; a < n; ++a) {
    DynBitset& row = rows_[a];
    const AgNode& na = graph.node(a);
    if (na.deleted()) continue;
    row ^= ws.alive;
    row.andNot(desc[a]);
    if (na.kind == AgKind::kOp) {
      row.andNot(ws.unitMask[na.unit]);
    } else {
      const BusId bus = graph.busOf(a);
      if (machine.bus(bus).capacity <= 1) row.andNot(ws.busMask[bus]);
    }
    row.reset(a);
  }

  if (levelWindow >= 0) {
    graph.levelsFromBottomInto(order, ws.levelBottom);
    applyLevelWindow(levelTop, order, levelWindow, rows_, ws);
    applyLevelWindow(ws.levelBottom, order, levelWindow, rows_, ws);
  }
#if AVIV_DCHECKS_ENABLED
  // A deleted node participates in no instruction: its row must stay empty,
  // or the clique generator would schedule a ghost.
  for (AgId a = 0; a < n; ++a)
    if (graph.node(a).deleted())
      AVIV_DCHECK_MSG(rows_[a].none(),
                      "deleted node has parallelism-matrix entries");
#endif
}

std::string ParallelismMatrix::str(
    const std::vector<AgId>& subset,
    const std::vector<std::string>& labels) const {
  AVIV_CHECK(subset.size() == labels.size());
  std::vector<std::string> headers{""};
  headers.insert(headers.end(), labels.begin(), labels.end());
  TextTable table(headers);
  for (size_t i = 0; i < subset.size(); ++i) {
    std::vector<std::string> row{labels[i]};
    for (size_t j = 0; j < subset.size(); ++j) {
      const bool conflict =
          i != j ? !parallel(subset[i], subset[j]) : false;
      row.push_back(conflict ? "1" : "0");
    }
    table.addRow(std::move(row));
  }
  return table.str();
}

}  // namespace aviv
