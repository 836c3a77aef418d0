#include "core/assigned.h"

#include <algorithm>

#include "core/workspace.h"
#include "support/error.h"

namespace aviv {

AgId AssignedGraph::append(AgNode node) {
  const auto id = static_cast<AgId>(nodes_.size());
  nodes_.push_back(std::move(node));
  return id;
}

void AssignedGraph::addDep(AgId from, AgId to) {
  AVIV_CHECK(from < nodes_.size() && to < nodes_.size() && from != to);
  auto& succs = nodes_[from].succs;
  if (std::find(succs.begin(), succs.end(), to) == succs.end())
    succs.push_back(to);
  auto& preds = nodes_[to].preds;
  if (std::find(preds.begin(), preds.end(), from) == preds.end())
    preds.push_back(from);
}

namespace {

// Section IV-B: among several minimal routes pick the one whose buses are
// least congested so far ("the cost function is based solely on
// parallelism").
size_t selectRoute(const std::vector<TransferRoute>& routes,
                   const Machine& machine, Span<const int> busUse) {
  AVIV_CHECK(!routes.empty());
  size_t best = 0;
  int bestScore = INT32_MAX;
  for (size_t r = 0; r < routes.size(); ++r) {
    int score = 0;
    for (int pathId : routes[r].pathIds)
      score += busUse[machine.transfers()[static_cast<size_t>(pathId)].bus];
    if (score < bestScore) {
      bestScore = score;
      best = r;
    }
  }
  return best;
}

}  // namespace

AssignedGraph AssignedGraph::materialize(const SplitNodeDag& snd,
                                         const Assignment& assignment,
                                         const CodegenOptions& options,
                                         CoverWorkspace* ws) {
  const BlockDag& ir = snd.ir();
  const Machine& machine = snd.machine();
  const TransferDatabase& xferDb = snd.databases().transfers;

  AssignedGraph g;
  g.ir_ = &ir;
  g.machine_ = &machine;
  g.xferDb_ = &xferDb;
  g.nodes_.reserve(ir.size() * 3);

  // Transient build scratch comes from the workspace arena when a workspace
  // is supplied (per-candidate scope, rewound by the caller).
  Arena localArena;
  Arena& arena = ws != nullptr ? ws->arena : localArena;
  Span<int> busUse = arena.allocSpan<int>(machine.buses().size(), 0);
  Span<AgId> opOf = arena.allocSpan<AgId>(ir.size(), kNoAg);
  // Value-availability table, (IR value node, storage) -> AgNode holding the
  // value there; flat-indexed by valueIr * numLocs + locKey instead of a
  // std::map (the hottest lookup during materialization).
  const size_t numRegFiles = machine.regFiles().size();
  const size_t numLocs = numRegFiles + machine.memories().size();
  Span<AgId> avail = arena.allocSpan<AgId>(ir.size() * numLocs, kNoAg);
  auto availSlot = [&](NodeId valueIr, Loc loc) -> AgId& {
    const size_t key = loc.isMemory() ? numRegFiles + loc.index : loc.index;
    AVIV_DCHECK(key < numLocs);
    return avail[valueIr * numLocs + key];
  };

  // Builds (or reuses) the move of `valueIr`'s value into `dest`; returns
  // the AgNode whose result is the value in `dest`.
  auto resolveValue = [&](NodeId valueIr, Loc dest) -> AgId {
    if (const AgId hit = availSlot(valueIr, dest); hit != kNoAg) return hit;

    const bool leaf = isLeafOp(ir.node(valueIr).op);
    AgId srcAg = kNoAg;
    Loc srcLoc = machine.dataMemoryLoc();
    if (!leaf) {
      srcAg = opOf[valueIr];
      AVIV_CHECK_MSG(srcAg != kNoAg,
                     "operand " << ir.describe(valueIr) << " has no producer");
      srcLoc = g.nodes_[srcAg].defLoc;
      AVIV_CHECK(!(srcLoc == dest));  // avail would have hit
    }
    const auto& routes = xferDb.routes(srcLoc, dest);
    if (routes.empty())
      throw Error("machine '" + machine.name() + "' cannot move a value from " +
                  machine.locName(srcLoc) + " to " + machine.locName(dest));
    const size_t routeIdx = selectRoute(routes, machine, busUse);

    AgId prev = srcAg;
    AgId last = kNoAg;
    for (int pathId : routes[routeIdx].pathIds) {
      const TransferPath& path =
          machine.transfers()[static_cast<size_t>(pathId)];
      busUse[path.bus] += 1;
      AgNode hop;
      hop.kind = AgKind::kTransfer;
      hop.ir = valueIr;
      hop.pathId = pathId;
      hop.valueSrc = prev;  // kNoAg for the first hop of a leaf load
      if (prev == kNoAg) {
        const DagNode& leafNode = ir.node(valueIr);
        if (leafNode.op == Op::kConst) {
          hop.memVar = "$c" + std::to_string(leafNode.value);
          g.constPool_[hop.memVar] = leafNode.value;
        } else {
          hop.memVar = leafNode.name;
        }
      }
      hop.defLoc = path.to;
      // A route hop landing in a memory needs a scratch cell (allocated
      // from the spill-slot arena) for the next hop to read back.
      if (path.to.isMemory()) hop.spillSlot = g.nextSpillSlot_++;
      last = g.append(std::move(hop));
      if (prev != kNoAg) g.addDep(prev, last);
      // Intermediate landings are reusable copies of the value (first
      // landing wins, matching the old map's emplace semantics).
      if (AgId& slot = availSlot(valueIr, path.to); slot == kNoAg) slot = last;
      prev = last;
    }
    return last;
  };

  // Operation nodes in IR order (operands precede consumers).
  for (NodeId irNode = 0; irNode < ir.size(); ++irNode) {
    const SndId altId = assignment.chosenAlt.empty()
                            ? kNoSnd
                            : assignment.chosenAlt[irNode];
    if (altId == kNoSnd) continue;
    const SndNode& alt = snd.node(altId);
    const Loc opLoc = machine.unitLoc(alt.unit);
    AgNode op;
    op.kind = AgKind::kOp;
    op.ir = irNode;
    op.unit = alt.unit;
    op.machineOp = alt.machineOp;
    op.unitOpIdx = alt.unitOpIdx;
    // Zero-copy: the spans keep aliasing the SND's pools until the winning
    // candidate detaches them.
    op.covers = alt.covers;
    op.operandIr = alt.operandIr;
    op.defLoc = opLoc;
    const AgId opId = g.append(std::move(op));
    opOf[irNode] = opId;
    if (AgId& slot = availSlot(irNode, opLoc); slot == kNoAg) slot = opId;

    // operandDefs is allocated at full size up front (entries for constant
    // immediates stay kNoAg), then filled as operands resolve. Keep local
    // copies of the spans: resolveValue appends nodes, invalidating
    // references into nodes_ (never the pooled storage they point at).
    const Span<const NodeId> operands = alt.operandIr;
    Span<AgId> defs = g.defPool_.appendFill(operands.size(), kNoAg);
    g.nodes_[opId].operandDefs = defs;
    for (size_t i = 0; i < operands.size(); ++i) {
      const NodeId operand = operands[i];
      if (ir.node(operand).op == Op::kConst && !options.constantsInMemory)
        continue;
      const AgId def = resolveValue(operand, opLoc);
      defs[i] = def;
      g.addDep(def, opId);
    }
  }

  // Output placement. Constant outputs are routed through a constant-pool
  // cell and a register (the pool machinery works per-value even when
  // constantsInMemory is off for operands).
  for (const auto& [name, outId] : ir.outputs()) {
    const DagNode& outNode = ir.node(outId);
    if (options.outputsToMemory) {
      if (outNode.op == Op::kInput && name == outNode.name) {
        // Already resident in data memory under exactly this name.
        g.outputDefs_.emplace_back(name, kNoAg);
        continue;
      }
      // Store the value back to data memory under the output's name. An
      // input-aliased output (y = x) is first loaded into a register (data
      // memory has no memory-to-memory move).
      AgId def = kNoAg;
      if (isLeafOp(outNode.op)) {
        for (size_t rf = 0; rf < machine.regFiles().size() && def == kNoAg;
             ++rf) {
          const Loc dest = Loc::regFile(static_cast<RegFileId>(rf));
          if (xferDb.reachable(machine.dataMemoryLoc(), dest) &&
              xferDb.reachable(dest, machine.dataMemoryLoc()))
            def = resolveValue(outId, dest);
        }
        if (def == kNoAg)
          throw Error("machine '" + machine.name() +
                      "' cannot round-trip a value through a register file");
      } else {
        def = opOf[outId];
      }
      AVIV_CHECK(def != kNoAg);
      const Loc srcLoc = g.nodes_[def].defLoc;
      const auto& routes = xferDb.routes(srcLoc, machine.dataMemoryLoc());
      if (routes.empty())
        throw Error("machine '" + machine.name() +
                    "' cannot store outputs to data memory from " +
                    machine.locName(srcLoc));
      const size_t routeIdx = selectRoute(routes, machine, busUse);
      AgId prev = def;
      for (int pathId : routes[routeIdx].pathIds) {
        const TransferPath& path =
            machine.transfers()[static_cast<size_t>(pathId)];
        busUse[path.bus] += 1;
        AgNode hop;
        hop.kind = AgKind::kTransfer;
        hop.ir = outId;
        hop.pathId = pathId;
        hop.valueSrc = prev;
        hop.defLoc = path.to;
        if (path.to.isMemory()) hop.memVar = name;
        const AgId hopId = g.append(std::move(hop));
        g.addDep(prev, hopId);
        prev = hopId;
      }
      g.outputDefs_.emplace_back(name, kNoAg);
      continue;
    }
    // Outputs stay in registers.
    if (isLeafOp(outNode.op)) {
      // Load the variable into some register file reachable from memory.
      AgId def = kNoAg;
      for (size_t rf = 0; rf < machine.regFiles().size() && def == kNoAg;
           ++rf) {
        const Loc dest = Loc::regFile(static_cast<RegFileId>(rf));
        if (xferDb.reachable(machine.dataMemoryLoc(), dest))
          def = resolveValue(outId, dest);
      }
      if (def == kNoAg)
        throw Error("machine '" + machine.name() +
                    "' has no register file reachable from data memory");
      g.outputDefs_.emplace_back(name, def);
      continue;
    }
    AVIV_CHECK(opOf[outId] != kNoAg);
    g.outputDefs_.emplace_back(name, opOf[outId]);
  }

  g.verify();
  return g;
}

// ---------------------------------------------------------------------
// Spill mutations (Section IV-D / Fig 9)
// ---------------------------------------------------------------------

AssignedGraph::SpillStoreResult AssignedGraph::addSpillStore(
    AgId victim, const TransferDatabase& xferDb) {
  AVIV_CHECK(victim < nodes_.size());
  AVIV_CHECK(nodes_[victim].definesRegister());
  const Loc srcLoc = nodes_[victim].defLoc;
  const Loc dm = machine_->dataMemoryLoc();
  const auto& routes = xferDb.routes(srcLoc, dm);
  if (routes.empty())
    throw Error("machine '" + machine_->name() +
                "' cannot spill: no route from " + machine_->locName(srcLoc) +
                " to data memory");

  SpillStoreResult result;
  result.slot = nextSpillSlot_++;
  AgId prev = victim;
  const auto& route = routes.front();
  for (size_t hop = 0; hop < route.pathIds.size(); ++hop) {
    const int pathId = route.pathIds[hop];
    const TransferPath& path =
        machine_->transfers()[static_cast<size_t>(pathId)];
    AgNode n;
    n.kind = hop + 1 == route.pathIds.size() ? AgKind::kSpillStore
                                             : AgKind::kTransfer;
    n.ir = nodes_[victim].ir;
    n.pathId = pathId;
    n.valueSrc = prev;
    n.defLoc = path.to;
    n.spillSlot = result.slot;
    const AgId id = append(std::move(n));
    addDep(prev, id);
    result.chain.push_back(id);
    prev = id;
  }
  AVIV_CHECK(nodes_[result.chain.back()].defLoc == dm);
  return result;
}

std::vector<AgId> AssignedGraph::addSpillLoad(int slot, Loc destBank,
                                              AgId afterStore, NodeId valueIr,
                                              const TransferDatabase& xferDb) {
  const Loc dm = machine_->dataMemoryLoc();
  const auto& routes = xferDb.routes(dm, destBank);
  if (routes.empty())
    throw Error("machine '" + machine_->name() +
                "' cannot reload a spill into " + machine_->locName(destBank));
  std::vector<AgId> chain;
  AgId prev = kNoAg;
  const auto& route = routes.front();
  for (size_t hop = 0; hop < route.pathIds.size(); ++hop) {
    const int pathId = route.pathIds[hop];
    const TransferPath& path =
        machine_->transfers()[static_cast<size_t>(pathId)];
    AgNode n;
    n.kind = hop == 0 ? AgKind::kSpillLoad : AgKind::kTransfer;
    n.ir = valueIr;
    n.pathId = pathId;
    n.valueSrc = prev;
    n.defLoc = path.to;
    n.spillSlot = hop == 0 ? slot : -1;
    const AgId id = append(std::move(n));
    if (hop == 0)
      addDep(afterStore, id);
    else
      addDep(prev, id);
    chain.push_back(id);
    prev = id;
  }
  AVIV_CHECK(nodes_[chain.back()].defLoc == destBank);
  return chain;
}

void AssignedGraph::retargetConsumer(AgId consumer, AgId oldDef, AgId newDef) {
  AVIV_CHECK(consumer < nodes_.size() && oldDef < nodes_.size() &&
             newDef < nodes_.size());
  AgNode& c = nodes_[consumer];
  bool changed = false;
  for (AgId& def : c.operandDefs) {
    if (def == oldDef) {
      def = newDef;
      changed = true;
    }
  }
  if (c.valueSrc == oldDef) {
    c.valueSrc = newDef;
    changed = true;
  }
  AVIV_CHECK_MSG(changed, "retargetConsumer: consumer does not read oldDef");
  // Unlink the old dependency, link the new one.
  auto& oldSuccs = nodes_[oldDef].succs;
  oldSuccs.erase(std::remove(oldSuccs.begin(), oldSuccs.end(), consumer),
                 oldSuccs.end());
  auto& preds = c.preds;
  preds.erase(std::remove(preds.begin(), preds.end(), oldDef), preds.end());
  addDep(newDef, consumer);
}

void AssignedGraph::deleteNode(AgId id) {
  AVIV_CHECK(id < nodes_.size());
  AgNode& n = nodes_[id];
  AVIV_CHECK_MSG(n.succs.empty(), "deleteNode with live successors: "
                                      << describe(id));
  for (AgId pred : n.preds) {
    auto& succs = nodes_[pred].succs;
    succs.erase(std::remove(succs.begin(), succs.end(), id), succs.end());
  }
  n.preds.clear();
  n.operandDefs = {};
  n.valueSrc = kNoAg;
  n.kind = AgKind::kDeleted;
}

AssignedGraph AssignedGraph::clone() const {
  AssignedGraph c;
  c.ir_ = ir_;
  c.machine_ = machine_;
  c.xferDb_ = xferDb_;
  c.nodes_ = nodes_;  // spans still alias the source pools here...
  c.outputDefs_ = outputDefs_;
  c.constPool_ = constPool_;
  c.nextSpillSlot_ = nextSpillSlot_;
  // ...so re-home every span into the clone's own pools.
  for (AgNode& n : c.nodes_) {
    if (!n.covers.empty()) n.covers = c.payloadPool_.append(n.covers);
    if (!n.operandIr.empty())
      n.operandIr = c.payloadPool_.append(n.operandIr);
    if (!n.operandDefs.empty())
      n.operandDefs = c.defPool_.append(Span<const AgId>(n.operandDefs));
  }
  return c;
}

void AssignedGraph::detachPayloads() {
  for (AgNode& n : nodes_) {
    if (!n.covers.empty()) n.covers = payloadPool_.append(n.covers);
    if (!n.operandIr.empty()) n.operandIr = payloadPool_.append(n.operandIr);
  }
}

// ---------------------------------------------------------------------
// Analyses
// ---------------------------------------------------------------------

namespace {

// Kahn topological order over active nodes, written into `order`. The order
// vector doubles as the FIFO (ids are consumed by advancing a head index),
// which visits nodes in exactly the same sequence as a deque-based queue
// without a second container.
void topoOrderInto(const std::vector<AgNode>& nodes,
                   std::vector<uint32_t>& pending,
                   std::vector<AgId>& order) {
  pending.assign(nodes.size(), 0);
  order.clear();
  order.reserve(nodes.size());
  for (AgId id = 0; id < nodes.size(); ++id) {
    if (nodes[id].deleted()) continue;
    pending[id] = static_cast<uint32_t>(nodes[id].preds.size());
    if (pending[id] == 0) order.push_back(id);
  }
  size_t head = 0;
  while (head < order.size()) {
    const AgId id = order[head++];
    for (AgId succ : nodes[id].succs) {
      if (--pending[succ] == 0) order.push_back(succ);
    }
  }
  size_t active = 0;
  for (const AgNode& n : nodes) active += n.deleted() ? 0 : 1;
  AVIV_CHECK_MSG(order.size() == active, "assigned graph has a cycle");
}

std::vector<AgId> topoOrder(const std::vector<AgNode>& nodes) {
  std::vector<uint32_t> pending;
  std::vector<AgId> order;
  topoOrderInto(nodes, pending, order);
  return order;
}

}  // namespace

std::vector<DynBitset> AssignedGraph::computeDescendants() const {
  std::vector<DynBitset> desc(nodes_.size(), DynBitset(nodes_.size()));
  const auto order = topoOrder(nodes_);
  for (size_t i = order.size(); i-- > 0;) {
    const AgId id = order[i];
    for (AgId succ : nodes_[id].succs) {
      desc[id].set(succ);
      desc[id] |= desc[succ];
    }
  }
  return desc;
}

std::vector<DynBitset>& AssignedGraph::computeDescendantsInto(
    const std::vector<AgId>& order, CoverWorkspace& ws) const {
  const size_t n = nodes_.size();
  if (ws.desc.size() < n) ws.desc.resize(n);
  for (size_t i = 0; i < n; ++i) ws.desc[i].clearAndResize(n);
  for (size_t i = order.size(); i-- > 0;) {
    const AgId id = order[i];
    for (AgId succ : nodes_[id].succs) {
      ws.desc[id].set(succ);
      ws.desc[id] |= ws.desc[succ];
    }
  }
  return ws.desc;
}

void AssignedGraph::orderAndLevelsInto(CoverWorkspace& ws) const {
  topoOrderInto(nodes_, ws.topoPending, ws.topoOrder);
  levelsFromTopInto(ws.topoOrder, ws.levelTop);
}

void AssignedGraph::liveOutInto(DynBitset& out) const {
  out.clearAndResize(nodes_.size());
  for (const auto& [name, def] : outputDefs_)
    if (def != kNoAg) out.set(def);
}

std::vector<int> AssignedGraph::levelsFromTop() const {
  std::vector<int> level;
  levelsFromTopInto(topoOrder(nodes_), level);
  return level;
}

std::vector<int> AssignedGraph::levelsFromBottom() const {
  std::vector<int> level;
  levelsFromBottomInto(topoOrder(nodes_), level);
  return level;
}

void AssignedGraph::levelsFromTopInto(const std::vector<AgId>& order,
                                      std::vector<int>& level) const {
  level.assign(nodes_.size(), 0);
  for (size_t i = order.size(); i-- > 0;) {
    const AgId id = order[i];
    int lvl = 0;
    for (AgId succ : nodes_[id].succs) lvl = std::max(lvl, level[succ] + 1);
    level[id] = lvl;
  }
}

void AssignedGraph::levelsFromBottomInto(const std::vector<AgId>& order,
                                         std::vector<int>& level) const {
  level.assign(nodes_.size(), 0);
  for (const AgId id : order) {
    int lvl = 0;
    for (AgId pred : nodes_[id].preds) lvl = std::max(lvl, level[pred] + 1);
    level[id] = lvl;
  }
}

std::string AssignedGraph::describe(AgId id) const {
  const AgNode& n = node(id);
  const std::string tag = "a" + std::to_string(id) + ":";
  switch (n.kind) {
    case AgKind::kOp:
      return tag + std::string(opName(n.machineOp)) + "@" +
             machine_->unit(n.unit).name + "(" + ir_->describe(n.ir) + ")";
    case AgKind::kTransfer:
    case AgKind::kSpillStore:
    case AgKind::kSpillLoad: {
      const TransferPath& p =
          machine_->transfers()[static_cast<size_t>(n.pathId)];
      std::string kind = n.kind == AgKind::kTransfer
                             ? "xfer"
                             : (n.kind == AgKind::kSpillStore ? "spill"
                                                              : "reload");
      return tag + kind + " " + machine_->locName(p.from) + "->" +
             machine_->locName(p.to);
    }
    case AgKind::kDeleted:
      return tag + "<deleted>";
  }
  return tag + "<?>";
}

void AssignedGraph::verify() const {
  verifyNodes();
  (void)topoOrder(nodes_);  // asserts acyclicity
}

void AssignedGraph::verifyNodes() const {
  for (AgId id = 0; id < nodes_.size(); ++id) {
    const AgNode& n = nodes_[id];
    if (n.deleted()) {
      AVIV_CHECK(n.preds.empty() && n.succs.empty());
      continue;
    }
    // Edge symmetry.
    for (AgId pred : n.preds) {
      AVIV_CHECK(!nodes_[pred].deleted());
      const auto& succs = nodes_[pred].succs;
      AVIV_CHECK(std::find(succs.begin(), succs.end(), id) != succs.end());
    }
    for (AgId succ : n.succs) {
      AVIV_CHECK(!nodes_[succ].deleted());
      const auto& preds = nodes_[succ].preds;
      AVIV_CHECK(std::find(preds.begin(), preds.end(), id) != preds.end());
    }
    if (n.kind == AgKind::kOp) {
      AVIV_CHECK(n.operandDefs.size() == n.operandIr.size());
      for (size_t i = 0; i < n.operandDefs.size(); ++i) {
        const AgId def = n.operandDefs[i];
        if (def == kNoAg) {
          AVIV_CHECK(ir_->node(n.operandIr[i]).op == Op::kConst);
          continue;
        }
        // The operand's value must be present in this op's register file.
        AVIV_CHECK_MSG(nodes_[def].defLoc == n.defLoc,
                       describe(id) << " operand " << i << " defined in "
                                    << machine_->locName(nodes_[def].defLoc));
        const auto& preds = n.preds;
        AVIV_CHECK(std::find(preds.begin(), preds.end(), def) != preds.end());
      }
    }
    if (n.isTransferish()) {
      const TransferPath& p =
          machine_->transfers()[static_cast<size_t>(n.pathId)];
      AVIV_CHECK(n.defLoc == p.to);
      if (n.valueSrc != kNoAg) {
        AVIV_CHECK_MSG(nodes_[n.valueSrc].defLoc == p.from,
                       describe(id) << " reads value from wrong storage");
      } else {
        AVIV_CHECK(p.from.isMemory());
      }
    }
  }
}

}  // namespace aviv
