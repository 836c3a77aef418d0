// Performance microbenchmarks (google-benchmark) for the expensive stages
// of the AVIV flow on synthetic DAGs of growing size, plus the cost of the
// observability hooks. Only questions that perfbench's per-layer metrics
// cannot answer live here: scaling curves, the jobs split of covering, and
// heap traffic per stage. The paper observes that "generating all of the
// maximal cliques is the most time consuming portion of our algorithm" —
// BM_CliqueGeneration vs the rest quantifies that on our implementation,
// and the LevelWindow variants show the Section IV-C.2 remedy.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/assign_explore.h"
#include "core/assigned.h"
#include "core/clique.h"
#include "core/codegen.h"
#include "core/legality.h"
#include "core/parallel_matrix.h"
#include "core/workspace.h"
#include "fuzz/genblock.h"
#include "ir/parser.h"
#include "ir/random_dag.h"
#include "isdl/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "regalloc/peephole.h"
#include "support/thread_pool.h"

// --- heap-allocation accounting ----------------------------------------
// This binary replaces the global allocation functions with counting
// versions, so benchmarks can report allocations/op and heap-bytes/op —
// the arena refactor's target metric (time alone hides small-vector
// churn that only shows up under allocator contention at scale).
static std::atomic<uint64_t> g_heapAllocs{0};
static std::atomic<uint64_t> g_heapBytes{0};

static void* countedAlloc(std::size_t n) {
  g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
  g_heapBytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
  g_heapBytes.fetch_add(n, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

// Snapshot-and-report helper: construct before the timing loop, call
// report() after it to attach allocations/op and heap-KB/op counters.
struct HeapMeter {
  uint64_t allocs0 = g_heapAllocs.load(std::memory_order_relaxed);
  uint64_t bytes0 = g_heapBytes.load(std::memory_order_relaxed);
  void report(benchmark::State& state) const {
    const double iters = static_cast<double>(state.iterations());
    if (iters == 0) return;
    state.counters["allocs/op"] = static_cast<double>(
        g_heapAllocs.load(std::memory_order_relaxed) - allocs0) / iters;
    state.counters["heapKB/op"] = static_cast<double>(
        g_heapBytes.load(std::memory_order_relaxed) - bytes0) / 1024.0 / iters;
  }
};

using namespace aviv;

const Machine& arch1() {
  static const Machine machine = loadMachine("arch1");
  return machine;
}
const MachineDatabases& arch1Dbs() {
  static const MachineDatabases dbs(arch1());
  return dbs;
}

BlockDag syntheticDag(int ops) {
  RandomDagSpec spec;
  spec.numOps = ops;
  spec.numInputs = std::max(2, ops / 3);
  spec.seed = 42;
  return makeRandomDag(spec);
}

// Split-Node DAG build. The heap counters show the flattened span/pool
// storage at work: a build makes a handful of chunk allocations instead of
// one vector per node, so allocations/op grow far slower than node count.
void BM_SplitNodeBuild(benchmark::State& state) {
  const BlockDag dag = syntheticDag(static_cast<int>(state.range(0)));
  const CodegenOptions options;
  const HeapMeter heap;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SplitNodeDag::build(dag, arch1(), arch1Dbs(), options));
  }
  heap.report(state);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SplitNodeBuild)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Complexity();

void BM_AssignmentExploration(benchmark::State& state) {
  const BlockDag dag = syntheticDag(static_cast<int>(state.range(0)));
  const CodegenOptions options;
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, arch1(), arch1Dbs(), options);
  for (auto _ : state) {
    AssignmentExplorer explorer(snd, options);
    benchmark::DoNotOptimize(explorer.explore());
  }
}
BENCHMARK(BM_AssignmentExploration)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256);

void BM_CliqueGeneration(benchmark::State& state) {
  const BlockDag dag = syntheticDag(static_cast<int>(state.range(0)));
  const CodegenOptions options;
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, arch1(), arch1Dbs(), options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  const ParallelismMatrix matrix(graph, -1);
  DynBitset active(graph.size(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        generateMaximalCliques(matrix, active, 1u << 20));
  }
}
BENCHMARK(BM_CliqueGeneration)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_CliqueGenerationLevelWindow(benchmark::State& state) {
  const BlockDag dag = syntheticDag(static_cast<int>(state.range(0)));
  const CodegenOptions options;
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, arch1(), arch1Dbs(), options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  const ParallelismMatrix matrix(graph, /*levelWindow=*/2);
  DynBitset active(graph.size(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        generateMaximalCliques(matrix, active, 1u << 20));
  }
}
BENCHMARK(BM_CliqueGenerationLevelWindow)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256);

// Parallelism-matrix rebuild (paper Fig 7), with the topological order
// and levels it reads, in a warm workspace, as the covering engine runs
// them once per clique round; Args = (ops, level window). Graphs of 128
// ops and more pass 128 nodes, so their rows, masks and descendant sets
// live on the heap: allocs/op shows that a warm workspace reuses them.
void BM_MatrixRebuild(benchmark::State& state) {
  const BlockDag dag = syntheticDag(static_cast<int>(state.range(0)));
  const CodegenOptions options;
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, arch1(), arch1Dbs(), options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  const int window = static_cast<int>(state.range(1));
  CoverWorkspace ws;
  graph.orderAndLevelsInto(ws);
  ws.matrix.rebuild(graph, ws.topoOrder, ws.levelTop, window, ws);
  const HeapMeter heap;
  for (auto _ : state) {
    graph.orderAndLevelsInto(ws);
    ws.matrix.rebuild(graph, ws.topoOrder, ws.levelTop, window, ws);
    benchmark::DoNotOptimize(ws.matrix.row(0).wordData());
  }
  heap.report(state);
  state.counters["nodes"] = static_cast<double>(graph.size());
}
BENCHMARK(BM_MatrixRebuild)
    ->ArgsProduct({{8, 16, 32, 64, 128, 256}, {-1, 2}});

// Legality splitting (paper Section IV-C.3) of one round's maximal
// cliques in a warm workspace, as the covering engine runs it; Arg picks
// the machine: arch1 (nothing to split), zoo/constrained (ISDL
// constraints) and zoo/wide (capacity-2 buses). The clique set is copied
// in each iteration, since enforceLegality consumes it; BM_EnforceLegality
// minus that copy is the legality work.
void BM_EnforceLegality(benchmark::State& state) {
  static const char* const kMachines[] = {"arch1", "zoo/constrained",
                                          "zoo/wide"};
  const char* machineName = kMachines[state.range(0)];
  const Machine machine = loadMachine(machineName);
  const MachineDatabases dbs(machine);
  const BlockDag dag = loadBlock("dct4");
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  CoverWorkspace ws;
  graph.orderAndLevelsInto(ws);
  ws.matrix.rebuild(graph, ws.topoOrder, ws.levelTop,
                    options.cliqueLevelWindow, ws);
  const DynBitset active(graph.size(), true);
  const std::vector<DynBitset> cliques =
      generateMaximalCliques(ws.matrix, active, 1u << 16);
  size_t legal = 0;
  for (auto _ : state) {
    legal = enforceLegality(cliques, graph, dbs.constraints, &ws.legality)
                .size();
    benchmark::DoNotOptimize(legal);
  }
  state.SetLabel(machineName);
  state.counters["cliques"] = static_cast<double>(cliques.size());
  state.counters["legal"] = static_cast<double>(legal);
}
BENCHMARK(BM_EnforceLegality)->Arg(0)->Arg(1)->Arg(2);

// The Section IV-G peephole pass on a covered block, as the driver runs it
// after covering. Arg 0: arch1 ex4 at 2 registers (spills, reloads to
// remove and coalesce); Arg 1: a 16-op generated block on arch3, seed 13
// (30 hoists, 18 reloads removed). Each iteration peepholes a fresh copy of
// the covered graph and schedule, so the pass is this minus that copy.
void BM_PeepholeOptimize(benchmark::State& state) {
  const bool generated = state.range(0) == 1;
  const Machine machine = generated ? loadMachine("arch3")
                                    : loadMachine("arch1").withRegisterCount(2);
  const MachineDatabases dbs(machine);
  const BlockDag dag = generated
                           ? generateBlock(machine, {.seed = 13,
                                                     .minOps = 16,
                                                     .maxOps = 16})
                           : loadBlock("ex4");
  const CoreResult core = coverBlock(dag, machine, dbs, CodegenOptions{});
  PeepholeStats stats;
  for (auto _ : state) {
    AssignedGraph graph = core.graph.clone();
    Schedule schedule = core.schedule;
    peepholeOptimize(graph, schedule, dbs.constraints, &stats);
    benchmark::DoNotOptimize(schedule.instrs.data());
  }
  state.SetLabel(generated ? "arch3 generated" : "arch1 ex4 r2");
  state.counters["hoisted"] = stats.opsHoisted;
  state.counters["reloadsRemoved"] = stats.reloadsRemoved;
}
BENCHMARK(BM_PeepholeOptimize)->Arg(0)->Arg(1);

void BM_FullCoverHeuristicsOn(benchmark::State& state) {
  const BlockDag dag = syntheticDag(static_cast<int>(state.range(0)));
  // Synthetic DAGs mark every sink as an output; store outputs to memory so
  // arbitrary output counts stay register-feasible.
  CodegenOptions options;
  options.outputsToMemory = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coverBlock(dag, arch1(), arch1Dbs(), options));
  }
}
BENCHMARK(BM_FullCoverHeuristicsOn)->Arg(8)->Arg(16)->Arg(32);

// Covering the selected candidate assignments is the dominant cost of
// coverBlock and embarrassingly parallel; Arg = jobs. Results are
// bit-identical across thread counts (the determinism test asserts it);
// this measures the wall-clock payoff.
void BM_CoverSelectedAssignments(benchmark::State& state) {
  const BlockDag dag = syntheticDag(26);
  CodegenOptions options;
  // Synthetic sinks are all outputs; memory placement keeps them feasible.
  options.outputsToMemory = true;
  // Widen the candidate pool so there is enough independent covering work.
  options.assignPruneIncremental = false;
  options.assignBeamWidth = 32;
  options.assignKeepBest = 8;
  options.jobs = static_cast<int>(state.range(0));
  ThreadPool pool(options.jobs);
  const HeapMeter heap;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coverBlock(dag, arch1(), arch1Dbs(), options,
                                        options.jobs > 1 ? &pool : nullptr));
  }
  heap.report(state);
  state.SetLabel("jobs=" + std::to_string(options.jobs));
}
BENCHMARK(BM_CoverSelectedAssignments)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Observability overhead. Disabled is the price every call site pays when
// nobody asked for a trace — the acceptance bar is "one predictable
// branch", i.e. sub-nanosecond and allocation-free. Enabled is the cost of
// actually recording into the per-thread ring.
void BM_TraceEventOverheadDisabled(benchmark::State& state) {
  trace::Tracer::instance().disable();
  for (auto _ : state) {
    trace::Span span("bench", "noop");
    span.arg("i", 1);
    trace::instant("bench", "noop");
  }
}
BENCHMARK(BM_TraceEventOverheadDisabled);

void BM_TraceEventOverheadEnabled(benchmark::State& state) {
  trace::Tracer::instance().enable();
  trace::Tracer::instance().clear();
  for (auto _ : state) {
    trace::Span span("bench", "noop");
    span.arg("i", 1);
    trace::instant("bench", "noop");
  }
  state.SetLabel("events=" +
                 std::to_string(trace::Tracer::instance().retained()) +
                 " overwritten=" +
                 std::to_string(trace::Tracer::instance().overwritten()));
  trace::Tracer::instance().disable();
  trace::Tracer::instance().clear();
}
BENCHMARK(BM_TraceEventOverheadEnabled);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  metrics::Registry::instance().enable();
  metrics::Histogram& hist =
      metrics::Registry::instance().histogram("bench.hist.us");
  int64_t v = 0;
  for (auto _ : state) hist.record(v++ & 0xfff);
  metrics::Registry::instance().disable();
  metrics::Registry::instance().reset();
}
BENCHMARK(BM_MetricsHistogramRecord);

}  // namespace

BENCHMARK_MAIN();
