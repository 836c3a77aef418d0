#include "workload.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "fuzz/genblock.h"
#include "ir/emit.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "support/io.h"
#include "support/rng.h"

namespace avivbench {

using aviv::Rng;

namespace {

// Closed-loop cold capacity of `avivd --jobs 2` on a 4-core x86-64 host;
// sizes cold-gen so one pass over its blocks takes about `seconds`.
constexpr double kColdRequestsPerSecond = 300.0;
// Open-loop offered rate of isolated-mixed, well below its closed-loop
// capacity on the same host.
constexpr double kMixedRate = 300.0;
// Memory-tier entries per isolated worker: smaller than the mixed working
// set, so the LRU evicts and hits are also served from the disk tier.
constexpr int kMixedMemEntries = 64;
// Generated blocks in the warm-hits working set (besides the kernels).
constexpr int kWarmGenerated = 600;

// Generated blocks have kMinOps..kMaxOps operations. Beyond 16 ops the
// covering time of one block reaches a second on arch1/3/4, so a 10 s run's
// throughput would hinge on how many such blocks its seed drew.
constexpr int kMinOps = 6;
constexpr int kMaxOps = 16;
// isolated-mixed keeps its cold blocks smaller: its tail latency should
// show queueing, IPC and the cache tiers, not which large blocks the seed
// drew.
constexpr int kMixedMaxOps = 12;

const char* const kShippedMachines[] = {"arch1", "arch2", "arch3", "arch4",
                                        "dsp16"};
const char* const kZooMachines[] = {"asym", "buffered", "constrained",
                                    "minimal", "tiny", "wide"};
// Generated blocks skip the asym family: about one in two hundred of its
// blocks takes 3-13 s to cover (seen at 11 to 20 ops), which alone would
// decide a run. Its kernels stay in warm-hits and isolated-mixed.
const char* const kNoGenerated = "asym";
// Generated blocks are drawn from a fixed pool: kPoolPerCell blocks per
// (machine, op count) cell, block i of a cell generated from
// poolBlockSeed(machine, ops, i). The seed picks which pool blocks a run
// sends. The pool blocks the compiler rejected when the pool was fixed
// (50 of 110,000, "no feasible schedule found") are listed in
// perfbench/infeasible.txt and never drawn, so the inputs do not depend
// on the build under test and a block it newly rejects fails the run.
constexpr int kPoolPerCell = 1000;
const char* const kInfeasibleFile = "perfbench/infeasible.txt";
const char* const kKernels[] = {"biquad", "dct4", "ex1", "ex2", "ex3",
                                "ex4",    "ex5",  "fig2", "fig6", "matvec2"};
const char* const kProgramMachines[] = {"arch1", "arch2", "arch3", "arch4",
                                        "dsp16"};

struct MachineRef {
  std::string name;
  std::string spec;  // as written in a request line
  aviv::Machine machine;
  bool generated = true;  // generated blocks target this machine
};

std::vector<MachineRef> loadMachines(const std::string& root) {
  std::vector<MachineRef> out;
  for (const char* name : kShippedMachines)
    out.push_back({name, name, aviv::loadMachine(name)});
  for (const char* name : kZooMachines) {
    const std::string path = root + "/machines/zoo/" + name + ".isdl";
    out.push_back({name, path, aviv::parseMachine(aviv::readFile(path), path),
                   std::string(name) != kNoGenerated});
  }
  return out;
}

// How a pool block is named in infeasible.txt: "<machine> <ops> <index>".
std::string poolKey(const std::string& machine, int ops, int index) {
  return machine + " " + std::to_string(ops) + " " + std::to_string(index);
}

uint64_t poolBlockSeed(const std::string& machine, int ops, int index) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : poolKey(machine, ops, index)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return Rng(h).next();
}

std::string poolBlockText(const MachineRef& m, int ops, int index) {
  aviv::BlockGenSpec spec;
  spec.seed = poolBlockSeed(m.name, ops, index);
  spec.minOps = ops;
  spec.maxOps = ops;
  return aviv::emitBlockText(aviv::generateBlock(m.machine, spec));
}

// The pool keys listed in infeasible.txt ('#' starts a comment).
std::set<std::string> loadInfeasible(const std::string& root) {
  std::set<std::string> out;
  std::istringstream in(aviv::readFile(root + "/" + kInfeasibleFile));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line.substr(0, line.find('#')));
    std::string machine;
    int ops = 0, index = 0;
    if (fields >> machine >> ops >> index)
      out.insert(poolKey(machine, ops, index));
  }
  return out;
}

// True when some unit of `machine` implements every machine op of `program`.
bool implementsAll(const aviv::Machine& machine,
                   const aviv::Program& program) {
  std::set<aviv::Op> ops;
  for (const aviv::FunctionalUnit& unit : machine.units())
    for (const aviv::UnitOp& uop : unit.ops) ops.insert(uop.op);
  for (size_t b = 0; b < program.numBlocks(); ++b) {
    const aviv::BlockDag& dag = program.block(b);
    for (aviv::NodeId id = 0; id < dag.size(); ++id) {
      const aviv::Op op = dag.node(id).op;
      if (aviv::isMachineOp(op) && ops.count(op) == 0) return false;
    }
  }
  return true;
}

// One generated block to be: its machine and exact operation count.
struct Slot {
  size_t machine = 0;
  int ops = 0;
};

// Stratified slots: generated-block machines round-robin, op counts
// cycling through [kMinOps, maxOps] per machine round, so the seed
// changes block shapes, not the machine or size mix.
std::vector<Slot> stratified(int count, const std::vector<MachineRef>& machines,
                             int maxOps = kMaxOps) {
  std::vector<size_t> targets;
  for (size_t i = 0; i < machines.size(); ++i)
    if (machines[i].generated) targets.push_back(i);
  const int n = static_cast<int>(targets.size());
  std::vector<Slot> slots;
  for (int i = 0; i < count; ++i)
    slots.push_back({targets[static_cast<size_t>(i % n)],
                     kMinOps + (i / n) % (maxOps - kMinOps + 1)});
  return slots;
}

class LineMaker {
 public:
  LineMaker(Workload& w, const std::vector<MachineRef>& machines,
            const std::string& scratch, uint64_t seed,
            std::set<std::string> infeasible)
      : w_(w), machines_(machines), scratch_(scratch), rng_(seed),
        used_(std::move(infeasible)) {}

  int addLine(const std::string& line) {
    w_.lines.push_back(line);
    return static_cast<int>(w_.lines.size()) - 1;
  }

  // Fills every slot with a pool block not drawn before. Returns the line
  // indices, slot order.
  std::vector<int> fill(const std::vector<Slot>& slots,
                        const std::string& suffix) {
    std::vector<int> out;
    for (const Slot& slot : slots)
      out.push_back(
          addLine(generated(machines_[slot.machine], slot.ops, suffix)));
    return out;
  }

  Rng& rng() { return rng_; }

 private:
  // Writes a pool block for `m` with exactly `ops` operations that is
  // neither infeasible nor drawn before (re-drawing on the rare block whose
  // text repeats another's) and returns its request line.
  std::string generated(const MachineRef& m, int ops,
                        const std::string& suffix) {
    for (;;) {
      const int index = static_cast<int>(rng_.below(kPoolPerCell));
      if (!used_.insert(poolKey(m.name, ops, index)).second) continue;
      const std::string text = poolBlockText(m, ops, index);
      if (!seen_.insert(m.spec + "\n" + text).second) continue;
      const std::string path =
          scratch_ + "/g" + std::to_string(seen_.size()) + ".blk";
      aviv::writeFile(path, text);
      return "machine=" + m.spec + " block=" + path + suffix;
    }
  }

  Workload& w_;
  const std::vector<MachineRef>& machines_;
  std::string scratch_;
  Rng rng_;
  std::set<std::string> used_;  // pool keys: infeasible or already drawn
  std::set<std::string> seen_;  // machine + block text
};

// Request lines for every shipped kernel on every machine that implements
// its ops.
std::vector<std::string> kernelLines(const std::vector<MachineRef>& machines,
                                     const std::string& root,
                                     const std::string& suffix) {
  std::vector<std::string> out;
  for (const char* kernel : kKernels) {
    const std::string path = root + "/blocks/" + kernel + ".blk";
    const aviv::Program program =
        aviv::parseProgram(aviv::readFile(path), path);
    for (const MachineRef& m : machines)
      if (implementsAll(m.machine, program))
        out.push_back("machine=" + m.spec + " block=" + path + suffix);
  }
  return out;
}

void shuffle(std::vector<int>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

}  // namespace

Workload buildWorkload(const std::string& name, uint64_t seed, int seconds,
                       const std::string& root, const std::string& scratch) {
  Workload w;
  w.name = name;
  const std::vector<MachineRef> machines = loadMachines(root);
  LineMaker b(w, machines, scratch, seed * 0x9e3779b97f4a7c15ull + name.size(),
              loadInfeasible(root));

  if (name == "cold-gen") {
    w.sequence = b.fill(
        stratified(static_cast<int>(seconds * kColdRequestsPerSecond),
                   machines),
        "");
    // Sent in a seeded order, so cheap and expensive cells mix.
    shuffle(w.sequence, b.rng());
    return w;
  }

  if (name == "warm-hits") {
    for (const std::string& line : kernelLines(machines, root, ""))
      w.fixedLines.push_back(b.addLine(line));
    (void)b.fill(stratified(kWarmGenerated, machines), "");
    for (int i = 0; i < static_cast<int>(w.lines.size()); ++i)
      w.warm.push_back(i);
    w.sequence = w.warm;
    shuffle(w.sequence, b.rng());
    w.cycle = true;
    // A hit takes about 100 us, so with one request in flight per
    // connection every answer waits on a thread wake-up, and a host that
    // steals CPU time stalls those by milliseconds. Four per connection
    // keep the daemon's threads busy; on a 4-vCPU guest under steal this
    // cut the throughput loss from about 45% to about 20%.
    w.depth = 4;
    return w;
  }

  if (name == "isolated-mixed") {
    const std::string suffix = " verify=all";
    std::vector<int> pool;  // lines a repeat may draw from
    for (const std::string& line : kernelLines(machines, root, suffix))
      w.fixedLines.push_back(b.addLine(line));
    // The 7-block MiniC program, by absolute path.
    for (const char* machine : kProgramMachines)
      w.fixedLines.push_back(b.addLine(std::string("machine=") + machine +
                                       " block=" + root + "/blocks/gcd.c" +
                                       suffix));
    // The send order as pool positions: a seeded fifth of them are new cold
    // blocks (appended to the pool), the rest repeat an earlier pool entry.
    // The cold share is exact, so the seed moves which blocks are new, not
    // how many.
    const int fixed = static_cast<int>(w.fixedLines.size());
    const int total = static_cast<int>(seconds * kMixedRate);
    std::vector<int> isCold(static_cast<size_t>(total), 0);
    std::fill(isCold.begin(), isCold.begin() + total / 5, 1);
    shuffle(isCold, b.rng());
    std::vector<int> positions;
    int cold = 0;
    for (int i = 0; i < total; ++i) {
      if (isCold[static_cast<size_t>(i)] != 0) {
        positions.push_back(fixed + cold++);
      } else {
        positions.push_back(
            static_cast<int>(b.rng().below(static_cast<uint64_t>(fixed + cold))));
      }
    }
    pool = w.fixedLines;
    for (const int line :
         b.fill(stratified(cold, machines, kMixedMaxOps), suffix))
      pool.push_back(line);
    for (const int p : positions)
      w.sequence.push_back(pool[static_cast<size_t>(p)]);
    w.openLoop = true;
    w.rate = kMixedRate;
    w.isolateWorkers = 2;
    w.memEntries = kMixedMemEntries;
    return w;
  }

  throw std::runtime_error("unknown workload '" + name +
                           "' (expected cold-gen, warm-hits, isolated-mixed)");
}

std::vector<PoolBlock> writePool(const std::string& root,
                                 const std::string& scratch) {
  std::vector<PoolBlock> out;
  for (const MachineRef& m : loadMachines(root)) {
    if (!m.generated) continue;
    for (int ops = kMinOps; ops <= kMaxOps; ++ops) {
      for (int index = 0; index < kPoolPerCell; ++index) {
        const std::string path = scratch + "/p" +
                                 std::to_string(out.size()) + ".blk";
        aviv::writeFile(path, poolBlockText(m, ops, index));
        out.push_back({poolKey(m.name, ops, index),
                       "machine=" + m.spec + " block=" + path});
      }
    }
  }
  return out;
}

}  // namespace avivbench
