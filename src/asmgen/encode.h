// Encoding: AssignedGraph + Schedule + RegAssignment -> CodeImage.
// Assigns data-memory addresses for named variables through the shared
// SymbolTable and places spill slots at the top of data memory (re-used
// across blocks — spilled values never live across block boundaries).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "asmgen/code_image.h"
#include "core/assigned.h"
#include "core/cover.h"
#include "regalloc/regalloc.h"

namespace aviv {

// Symbol interning scope for encodeBlock. Direct mode wraps a shared
// SymbolTable (the classic single-threaded path). Deferred mode hands out
// provisional negative addresses and records every name in first-use order,
// so independent blocks can encode concurrently against private scopes and
// be merged afterwards (resolveSymbols) in block order — reproducing the
// exact address assignment a serial shared-table run would have made.
class SymbolScope {
 public:
  SymbolScope() = default;  // deferred (recording) mode
  explicit SymbolScope(SymbolTable& table) : table_(&table) {}

  // Address of `name`: the shared table's address in direct mode, a
  // provisional address in deferred mode.
  int intern(const std::string& name);

  [[nodiscard]] bool deferred() const { return table_ == nullptr; }
  // Direct mode only: words used in the shared table so far.
  [[nodiscard]] int sizeWords() const { return table_->sizeWords(); }
  // Deferred mode: every name interned, in first-use order.
  [[nodiscard]] const std::vector<std::string>& recorded() const {
    return names_;
  }

  // Provisional-address encoding. Real data-memory addresses are >= 0 and
  // -1 means "unset" throughout the image structs, so <= -2 is free.
  [[nodiscard]] static int provisionalAddr(int ordinal) {
    return -2 - ordinal;
  }
  [[nodiscard]] static bool isProvisional(int addr) { return addr <= -2; }
  [[nodiscard]] static int ordinalOf(int addr) { return -2 - addr; }

 private:
  SymbolTable* table_ = nullptr;          // null in deferred mode
  std::map<std::string, int> ordinalOf_;  // deferred mode: name -> ordinal
  std::vector<std::string> names_;        // deferred mode: first-use order
};

// Interns `scope`'s recorded names into `table` (first-use order) and
// rewrites every provisional data-memory address in `image` — constant-pool
// cells, transfer addresses, output bindings — to its final merged address.
// Calling this per block, in block order, yields the identical SymbolTable a
// serial shared-table encode would have built. No-op for a direct scope.
void resolveSymbols(CodeImage& image, const SymbolScope& scope,
                    SymbolTable& table);

// Throws aviv::Error when `variableWords` words of variables reach into
// `image`'s spill slots at the top of `machine`'s data memory. encodeBlock
// checks a direct scope; a deferred scope is checked by whoever binds its
// names to final addresses (resolveSymbols, rebindSymbols).
void requireDataMemoryFits(const CodeImage& image, int variableWords,
                           const Machine& machine);

// Replays a scope-independent image (provisional addresses whose ordinal i
// refers to names[i]) into `scope`: each name is interned in first-use
// order and the provisional addresses are rewritten to whatever the scope
// hands out — final addresses for a direct scope, the scope's own
// provisional addresses for a deferred one (resolved later by
// resolveSymbols). This is how the compilation service's cached CodeImages
// are hydrated for any consumer; the inverse direction (recording) is a
// deferred-scope encodeBlock. AVIV_CHECK-fails if the image references an
// ordinal outside `names`. Equal to applySymbolAddrs(image,
// bindSymbols(names, scope)).
void rebindSymbols(CodeImage& image, const std::vector<std::string>& names,
                   SymbolScope& scope);

// rebindSymbols in two halves, for a reader that renders a shared image in
// place (CodeImage::appendAsmText) instead of rewriting a copy:
// bindSymbols interns `names` into `scope` in first-use order and returns
// the address ordinal i binds to; applySymbolAddrs rewrites every
// provisional address in `image` through that map.
[[nodiscard]] std::vector<int> bindSymbols(
    const std::vector<std::string>& names, SymbolScope& scope);
void applySymbolAddrs(CodeImage& image, const std::vector<int>& symbolAddrs);
// `addr` itself, or symbolAddrs[ordinal] when it is provisional;
// AVIV_CHECK-fails on an ordinal outside the map.
[[nodiscard]] int boundAddr(int addr, const std::vector<int>& symbolAddrs);

// Throws aviv::Error when data memory is too small for the variables plus
// spill slots (in deferred mode that check is postponed to the merge —
// the final table size is unknown while blocks encode in parallel).
[[nodiscard]] CodeImage encodeBlock(const AssignedGraph& graph,
                                    const Schedule& schedule,
                                    const RegAssignment& regs,
                                    SymbolScope& symbols);
// Convenience: direct scope over `symbols`.
[[nodiscard]] CodeImage encodeBlock(const AssignedGraph& graph,
                                    const Schedule& schedule,
                                    const RegAssignment& regs,
                                    SymbolTable& symbols);

}  // namespace aviv
