// Pairwise-parallelism matrix over an AssignedGraph (paper Fig 7).
//
// Two nodes can execute in the same VLIW instruction iff:
//   * neither depends on the other (no directed path between them), and
//   * they do not contend for a resource: two operations on the same
//     functional unit, or two transfers on the same single-capacity bus
//     (multi-capacity buses are counted later, in the legality check), and
//   * (optional Section IV-C.2 heuristic) their levels from the top AND
//     from the bottom of the graph differ by at most the level window.
#pragma once

#include <string>
#include <vector>

#include "core/assigned.h"
#include "support/bitset.h"

namespace aviv {

class ParallelismMatrix {
 public:
  // An empty matrix; call rebuild() before use. Lets the covering engine
  // keep one matrix alive across rounds and reuse its row storage.
  ParallelismMatrix() = default;

  // `levelWindow` < 0 disables the level heuristic. Deleted nodes get empty
  // rows.
  ParallelismMatrix(const AssignedGraph& graph, int levelWindow);

  // A matrix over explicit rows (rows[a].test(b): a and b may share an
  // instruction). The rows must be symmetric with an empty diagonal. Lets
  // the property tests drive the clique generator on arbitrary graphs.
  explicit ParallelismMatrix(std::vector<DynBitset> rows);

  // Recomputes the matrix in place, reusing row storage and the workspace's
  // descendant/topo scratch instead of allocating per round.
  void rebuild(const AssignedGraph& graph, int levelWindow,
               CoverWorkspace& ws);

  [[nodiscard]] size_t size() const { return rows_.size(); }
  [[nodiscard]] bool parallel(AgId a, AgId b) const {
    return a != b && rows_[a].test(b);
  }
  // Bitset of nodes that can run in parallel with `id`.
  [[nodiscard]] const DynBitset& row(AgId id) const { return rows_[id]; }

  // Renders the paper's Fig 7 style 0/1 matrix (1 = conflict) for the given
  // subset of nodes, with the given display labels.
  [[nodiscard]] std::string str(const std::vector<AgId>& subset,
                                const std::vector<std::string>& labels) const;

 private:
  std::vector<DynBitset> rows_;
};

}  // namespace aviv
