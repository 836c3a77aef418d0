#include "core/clique.h"

#include <algorithm>

#include "support/error.h"

namespace aviv {

namespace {

// Bron-Kerbosch with the Tomita pivot. The recursion works on raw word
// buffers bump-allocated from an arena (one R/P/X triple per branch,
// rewound as each branch returns), so a round of generation touches malloc
// only for the emitted cliques themselves.
struct Generator {
  const ParallelismMatrix& matrix;
  size_t maxCliques;
  CliqueGenStats& stats;
  Arena& arena;
  size_t n;      // node count (bits per set)
  size_t words;  // uint64_t words per set
  std::vector<DynBitset> out;
  bool stopped = false;

  [[nodiscard]] uint64_t* allocSet() { return arena.alloc<uint64_t>(words); }
  [[nodiscard]] const uint64_t* row(size_t i) const {
    return matrix.row(static_cast<AgId>(i)).wordData();
  }

  // Reports clique r ∪ {a, b} (n: no node), honouring the cap.
  void report(const uint64_t* r, size_t a, size_t b) {
    if (out.size() == maxCliques) {
      stats.capped = true;
      stopped = true;
      return;
    }
    DynBitset clique;
    clique.assignWords(n, r);
    if (a < n) clique.set(a);
    if (b < n) clique.set(b);
    out.push_back(std::move(clique));
  }

  // `r` is the clique so far, `p` the nodes that extend it (non-empty), `x`
  // the nodes that extend it but whose cliques were already reported. `p`
  // and `x` are owned (mutated) by this invocation. A branch that leaves
  // fewer than two nodes to extend with has at most one maximal clique and
  // is resolved inline instead of recursing.
  void expand(const uint64_t* r, uint64_t* p, uint64_t* x) {
    ++stats.recursions;
    // Pivot: the node of P ∪ X with the most neighbours in P. Every maximal
    // clique through R contains the pivot or a non-neighbour of it, so only
    // P \ N(pivot) needs a branch.
    size_t pivot = n;
    size_t pivotDegree = 0;
    for (const uint64_t* set : {static_cast<const uint64_t*>(p),
                                static_cast<const uint64_t*>(x)}) {
      for (size_t u = bits::findFirst(set, 0, n); u < n;
           u = bits::findFirst(set, u + 1, n)) {
        const size_t degree = bits::intersectCount(p, row(u), words);
        if (pivot == n || degree > pivotDegree) {
          pivot = u;
          pivotDegree = degree;
        }
      }
    }

    uint64_t* branch = allocSet();
    bits::andNotInto(branch, p, row(pivot), words);
    for (size_t v = bits::findFirst(branch, 0, n); v < n;
         v = bits::findFirst(branch, v + 1, n)) {
      const Arena::Mark branchMark = arena.mark();
      uint64_t* nextP = allocSet();
      bits::andInto(nextP, p, row(v), words);
      const size_t grow = bits::intersectCount(nextP, nextP, words);
      if (grow == 0) {
        // R ∪ {v} cannot grow: a maximal clique unless X extends it.
        if (bits::intersectCount(x, row(v), words) == 0) report(r, v, n);
      } else if (grow == 1) {
        // Only R ∪ {v, w} remains, maximal unless X extends it.
        const size_t w = bits::findFirst(nextP, 0, n);
        uint64_t* nextX = allocSet();
        bits::andInto(nextX, x, row(v), words);
        if (bits::intersectCount(nextX, row(w), words) == 0) report(r, v, w);
      } else {
        uint64_t* nextR = allocSet();
        bits::copy(nextR, r, words);
        bits::set(nextR, v);
        uint64_t* nextX = allocSet();
        bits::andInto(nextX, x, row(v), words);
        expand(nextR, nextP, nextX);
      }
      arena.rewind(branchMark);
      if (stopped) return;
      bits::reset(p, v);
      bits::set(x, v);
    }
  }
};

}  // namespace

std::vector<DynBitset> generateMaximalCliques(const ParallelismMatrix& matrix,
                                              const DynBitset& active,
                                              size_t maxCliques,
                                              CliqueGenStats* stats,
                                              Arena* scratch) {
  AVIV_CHECK(active.size() == matrix.size());
  Arena localArena;
  Arena& arena = scratch != nullptr ? *scratch : localArena;
  const ArenaScope scope(arena);
  CliqueGenStats localStats;
  CliqueGenStats& st = stats != nullptr ? *stats : localStats;
  st = CliqueGenStats{};
  Generator gen{matrix, maxCliques,    st, arena,
                active.size(), active.wordCount(), {}};
  uint64_t* r = gen.allocSet();
  bits::clear(r, gen.words);
  uint64_t* p = gen.allocSet();
  bits::copy(p, active.wordData(), gen.words);
  uint64_t* x = gen.allocSet();
  bits::clear(x, gen.words);
  // An empty active set has no maximal clique to report (the empty set is
  // not an instruction).
  if (active.any()) gen.expand(r, p, x);
  std::sort(gen.out.begin(), gen.out.end(),
            [](const DynBitset& a, const DynBitset& b) { return a.lexLess(b); });
  st.emitted = gen.out.size();
  return gen.out;
}

}  // namespace aviv
