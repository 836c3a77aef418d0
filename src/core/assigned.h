// AssignedGraph — the concrete node set of one functional-unit assignment
// ("the collection of functional unit assignments made to cover all the
// split-nodes, along with their associated transfer nodes", Section IV-C).
//
// Materialization takes one Assignment over the Split-Node DAG and produces
// the executable dependency graph the covering engine schedules:
//   * one kOp node per chosen alternative,
//   * transfer chains for every value that must move between storages
//     (deduplicated per (value, destination storage) — one move feeds every
//     consumer in that bank), with the Section IV-B route selector choosing
//     among multiple minimal routes by bus-congestion balance,
//   * variable loads from data memory for named inputs,
//   * (optionally) stores of block outputs back to data memory.
//
// The graph is mutated by the covering engine when loads and spills are
// inserted (Section IV-D / Fig 9): spilled values get a store chain to a
// spill slot, pending consumers are rewired onto load chains, and transfer
// nodes made redundant are deleted.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/assign_explore.h"
#include "core/splitnode.h"
#include "support/arena.h"
#include "support/bitset.h"
#include "support/error.h"
#include "support/smallvec.h"

namespace aviv {

struct CoverWorkspace;

using AgId = uint32_t;
inline constexpr AgId kNoAg = 0xffffffffu;

enum class AgKind : uint8_t {
  kOp,          // operation executing on a functional unit
  kTransfer,    // one hop of a storage-to-storage move
  kSpillStore,  // transfer hop landing a spilled value in data memory
  kSpillLoad,   // transfer hop reloading a spilled value from data memory
  kDeleted,     // removed (e.g. transfer made redundant by a spill)
};

struct AgNode {
  AgKind kind = AgKind::kOp;
  // kOp: the root IR node implemented. Transfer-ish: the IR node whose
  // value is moved (kNoNode for reloads of spilled non-leaf values).
  NodeId ir = kNoNode;

  // kOp only. covers/operandIr alias the SplitNodeDag's flat id pool while
  // the covering engine runs (zero-copy materialization); the winning
  // candidate calls AssignedGraph::detachPayloads() to re-home them into
  // graph-owned storage before the SND is destroyed.
  UnitId unit = kNoId16;
  Op machineOp = Op::kAdd;
  int unitOpIdx = -1;
  Span<const NodeId> covers;
  Span<const NodeId> operandIr;
  // Producing AgNode per operand; kNoAg for constant immediates. Backed by
  // the graph's flat def pool (mutable: spills retarget entries in place).
  Span<AgId> operandDefs;

  // Transfer-ish only.
  int pathId = -1;        // index into Machine::transfers() (bus, from, to)
  AgId valueSrc = kNoAg;  // immediate source node whose register is read;
                          // kNoAg when reading from data memory
  int spillSlot = -1;     // kSpillStore / kSpillLoad
  // Named data-memory cell this transfer touches: the input variable a leaf
  // load reads, or the output variable a store writes. Empty otherwise.
  std::string memVar;

  // Where the produced value lands: the unit's register file for kOp, the
  // hop destination for transfers (data memory for spill stores).
  Loc defLoc;

  // Dependency edges (deduplicated). Almost always <= 4 entries, so the
  // inline storage avoids two heap allocations per node per candidate.
  SmallVec<AgId, 4> preds;
  SmallVec<AgId, 4> succs;

  [[nodiscard]] bool isTransferish() const {
    return kind == AgKind::kTransfer || kind == AgKind::kSpillStore ||
           kind == AgKind::kSpillLoad;
  }
  [[nodiscard]] bool deleted() const { return kind == AgKind::kDeleted; }
  // True when the node's result occupies a register.
  [[nodiscard]] bool definesRegister() const {
    return !deleted() && defLoc.isRegFile();
  }
};

class AssignedGraph {
 public:
  // An empty graph (no IR / machine attached). Exists so CoreResult is
  // default-constructible: cache-hydrated compiles (src/service) carry a
  // CodeImage but no covering artifacts. Calling ir()/machine() on an
  // empty graph is invalid.
  AssignedGraph() = default;

  // Materializes an assignment. Throws aviv::Error when an output is a
  // constant (unsupported) or required routes are missing. When `ws` is
  // given, its arena provides the transient build scratch (busUse, opOf,
  // the value-availability table) — the caller must keep an ArenaScope
  // open around materialize + covering.
  //
  // NOTE: the returned graph's covers/operandIr spans alias `snd`'s pools;
  // call detachPayloads() before the graph outlives the SND.
  static AssignedGraph materialize(const SplitNodeDag& snd,
                                   const Assignment& assignment,
                                   const CodegenOptions& options,
                                   CoverWorkspace* ws = nullptr);

  // Copies every node's covers/operandIr out of the SND's pools into
  // graph-owned storage. Called on the winning candidate only (and by the
  // baseline path); idempotent per node payload but cheap enough to call
  // once unconditionally.
  void detachPayloads();

  // Deep copy: every span is re-homed into the clone's own pools, so the
  // clone is independent of the source graph (and of the source SND). The
  // graph is deliberately not copyable implicitly — the per-candidate hot
  // path must never deep-copy by accident.
  [[nodiscard]] AssignedGraph clone() const;

  [[nodiscard]] const BlockDag& ir() const { return *ir_; }
  [[nodiscard]] const Machine& machine() const { return *machine_; }

  [[nodiscard]] size_t size() const { return nodes_.size(); }
  [[nodiscard]] const AgNode& node(AgId id) const {
    AVIV_CHECK(id < nodes_.size());
    return nodes_[id];
  }

  // Output bindings: block output name -> AgNode producing its value.
  [[nodiscard]] const std::vector<std::pair<std::string, AgId>>& outputDefs()
      const {
    return outputDefs_;
  }
  // Sets `out`, sized to the graph, to the nodes whose values are live out
  // of the block (the defining nodes of outputDefs()).
  void liveOutInto(DynBitset& out) const;

  // --- mutation (covering engine: spill insertion) ----------------------
  // Appends a spill-store chain moving `victim`'s value to a fresh spill
  // slot. Returns the ids of the new chain nodes (first reads the victim's
  // register; last is the kSpillStore landing in memory) and the slot.
  struct SpillStoreResult {
    std::vector<AgId> chain;
    int slot = -1;
  };
  SpillStoreResult addSpillStore(AgId victim, const TransferDatabase& xferDb);

  // Appends a spill-load chain moving spill slot `slot` into `destBank`.
  // `afterStore` is the kSpillStore the load depends on. Returns chain ids
  // (last lands in destBank).
  std::vector<AgId> addSpillLoad(int slot, Loc destBank, AgId afterStore,
                                 NodeId valueIr,
                                 const TransferDatabase& xferDb);

  // Rewires consumer's dependency + operand reference oldDef -> newDef.
  void retargetConsumer(AgId consumer, AgId oldDef, AgId newDef);

  // Marks a node deleted and unlinks all its edges. The node must have no
  // remaining successors.
  void deleteNode(AgId id);

  [[nodiscard]] int numSpillSlots() const { return nextSpillSlot_; }

  // Constant-pool cells referenced by this graph's loads (name -> value);
  // populated when CodegenOptions::constantsInMemory routed constants
  // through data memory.
  [[nodiscard]] const std::map<std::string, int64_t>& constPool() const {
    return constPool_;
  }

  // --- analyses ----------------------------------------------------------
  // descendants[i].test(j) == a dependency path i -> j exists. Recomputed on
  // demand after mutations.
  [[nodiscard]] std::vector<DynBitset> computeDescendants() const;
  // Workspace variant: from a topological order the caller already holds,
  // into ws.desc's reused bitset storage.
  std::vector<DynBitset>& computeDescendantsInto(
      const std::vector<AgId>& order, CoverWorkspace& ws) const;
  // A topological order of the active nodes into ws.topoOrder and their
  // levels from the top into ws.levelTop: once per clique round, for the
  // covering bound and the parallelism-matrix rebuild.
  void orderAndLevelsInto(CoverWorkspace& ws) const;
  // Levels over active nodes (deleted nodes get 0).
  [[nodiscard]] std::vector<int> levelsFromTop() const;
  [[nodiscard]] std::vector<int> levelsFromBottom() const;
  // The same from a topological order the caller already holds, into
  // reused storage.
  void levelsFromTopInto(const std::vector<AgId>& order,
                         std::vector<int>& level) const;
  void levelsFromBottomInto(const std::vector<AgId>& order,
                            std::vector<int>& level) const;
  // Bus of a transfer-ish node.
  [[nodiscard]] BusId busOf(AgId id) const {
    const AgNode& n = node(id);
    AVIV_CHECK(n.isTransferish());
    return machine_->transfers()[static_cast<size_t>(n.pathId)].bus;
  }

  [[nodiscard]] std::string describe(AgId id) const;
  // Checks edge symmetry, operand and transfer storage, and acyclicity.
  void verify() const;
  // verify() without the acyclicity check, for callers whose next step
  // sorts the graph topologically (that sort checks it).
  void verifyNodes() const;

 private:
  AgId append(AgNode node);
  void addDep(AgId from, AgId to);  // from produces, to consumes

  const BlockDag* ir_ = nullptr;
  const Machine* machine_ = nullptr;
  const TransferDatabase* xferDb_ = nullptr;
  std::vector<AgNode> nodes_;
  // Flat pools backing AgNode spans. defPool_ holds operandDefs (graph-owned
  // from the start); payloadPool_ receives covers/operandIr copies when
  // detachPayloads() re-homes them off the SND.
  FlatPool<AgId> defPool_;
  FlatPool<NodeId> payloadPool_;
  std::vector<std::pair<std::string, AgId>> outputDefs_;
  std::map<std::string, int64_t> constPool_;
  int nextSpillSlot_ = 0;
};

}  // namespace aviv
