// Maximal-clique generation over the pairwise-parallelism matrix (paper
// Section IV-C / Fig 8). The paper's generator grows each clique from a
// seed and prunes branches whose cliques a smaller seed already produced;
// this implementation enumerates the same set with Bron-Kerbosch and the
// Tomita pivot, which reaches each maximal clique exactly once and skips
// every branch the pivot proves redundant.
//
// Every VLIW instruction the covering engine may emit is one of these
// cliques (possibly shrunk). The property tests check the output against a
// brute-force enumeration of all subsets.
#pragma once

#include <vector>

#include "core/parallel_matrix.h"
#include "support/arena.h"
#include "support/bitset.h"

namespace aviv {

struct CliqueGenStats {
  size_t emitted = 0;     // maximal cliques produced
  size_t recursions = 0;  // Bron-Kerbosch calls (branches with at least two
                          // candidate nodes; smaller ones resolve inline)
  bool capped = false;    // more than maxCliques maximal cliques exist
};

// All maximal cliques of parallel nodes among `active`, in DynBitset::lexLess
// order. At most `maxCliques` are produced; when more exist the output is a
// deterministic subset and stats->capped is set. When `scratch` is given the
// recursion's R/P/X sets live in it as raw word buffers (rewound per
// branch); otherwise a private arena is used. Output and stats are identical
// either way.
[[nodiscard]] std::vector<DynBitset> generateMaximalCliques(
    const ParallelismMatrix& matrix, const DynBitset& active,
    size_t maxCliques, CliqueGenStats* stats = nullptr,
    Arena* scratch = nullptr);

}  // namespace aviv
