#include "core/parallel_matrix.h"

#include <cstdlib>
#include <utility>

#include "core/workspace.h"
#include "support/error.h"
#include "support/table.h"

namespace aviv {

ParallelismMatrix::ParallelismMatrix(const AssignedGraph& graph,
                                     int levelWindow) {
  CoverWorkspace ws;
  rebuild(graph, levelWindow, ws);
}

ParallelismMatrix::ParallelismMatrix(std::vector<DynBitset> rows)
    : rows_(std::move(rows)) {
  for (size_t a = 0; a < rows_.size(); ++a) {
    AVIV_CHECK(rows_[a].size() == rows_.size() && !rows_[a].test(a));
    rows_[a].forEach([&](size_t b) { AVIV_CHECK(rows_[b].test(a)); });
  }
}

void ParallelismMatrix::rebuild(const AssignedGraph& graph, int levelWindow,
                                CoverWorkspace& ws) {
  const size_t n = graph.size();
  rows_.resize(n);
  for (DynBitset& row : rows_) row.clearAndResize(n);
  const std::vector<DynBitset>& desc = graph.computeDescendantsInto(ws);
  std::vector<int> top;
  std::vector<int> bottom;
  if (levelWindow >= 0) {
    top = graph.levelsFromTop();
    bottom = graph.levelsFromBottom();
  }

  const Machine& machine = graph.machine();
  for (AgId a = 0; a < n; ++a) {
    const AgNode& na = graph.node(a);
    if (na.deleted()) continue;
    for (AgId b = a + 1; b < n; ++b) {
      const AgNode& nb = graph.node(b);
      if (nb.deleted()) continue;
      if (desc[a].test(b) || desc[b].test(a)) continue;
      if (na.kind == AgKind::kOp && nb.kind == AgKind::kOp &&
          na.unit == nb.unit)
        continue;
      if (na.isTransferish() && nb.isTransferish()) {
        const BusId busA = graph.busOf(a);
        const BusId busB = graph.busOf(b);
        if (busA == busB && machine.bus(busA).capacity <= 1) continue;
      }
      if (levelWindow >= 0) {
        if (std::abs(top[a] - top[b]) > levelWindow ||
            std::abs(bottom[a] - bottom[b]) > levelWindow)
          continue;
      }
      rows_[a].set(b);
      rows_[b].set(a);
    }
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
