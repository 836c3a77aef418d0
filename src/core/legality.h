// Section IV-C.3 — eliminating illegal instructions. The clique generator
// merges on pairwise parallelism only; a whole grouping can still be illegal
// on the target: it may violate an ISDL constraint (an explicitly illegal
// operation combination) or oversubscribe a multi-capacity bus (pairwise
// checks cannot count three transfers on a capacity-2 bus). Illegal cliques
// are split into smaller cliques until every proposed instruction is legal.
#pragma once

#include <vector>

#include "core/assigned.h"
#include "isdl/databases.h"
#include "support/bitset.h"

namespace aviv {

// True iff the grouping satisfies every ISDL constraint and every bus
// capacity.
[[nodiscard]] bool cliqueIsLegal(const DynBitset& clique,
                                 const AssignedGraph& graph,
                                 const ConstraintDatabase& constraints);

// Splits every illegal clique into legal sub-cliques (dropping the specific
// node whose removal repairs the violation, recursively), dedups, and
// removes cliques that are strict subsets of other cliques in the result.
// The result is sorted by member count (largest first), then lexLess; the
// covering engine's tie-breaks depend on that order. The input must be
// distinct and pairwise non-nested, as maximal cliques are: when no clique
// needs a split, the dedup and subset pass is skipped.
[[nodiscard]] std::vector<DynBitset> enforceLegality(
    std::vector<DynBitset> cliques, const AssignedGraph& graph,
    const ConstraintDatabase& constraints);

}  // namespace aviv
