// Performance microbenchmarks (google-benchmark) for the expensive stages
// of the AVIV flow, on the paper's blocks and on synthetic DAGs of growing
// size. The paper observes that "generating all of the maximal cliques is
// the most time consuming portion of our algorithm" — BM_CliqueGeneration
// vs the rest quantifies that on our implementation, and the LevelWindow
// variants show the Section IV-C.2 remedy.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <vector>

#include "core/assign_explore.h"
#include "core/assigned.h"
#include "core/clique.h"
#include "core/codegen.h"
#include "core/parallel_matrix.h"
#include "core/workspace.h"
#include "driver/codegen.h"
#include "ir/parser.h"
#include "service/cache.h"
#include "service/fingerprint.h"
#include "ir/random_dag.h"
#include "isdl/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

void BM_SplitNodeBuild(benchmark::State& state) {
  const BlockDag dag = syntheticDag(static_cast<int>(state.range(0)));
  const CodegenOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SplitNodeDag::build(dag, arch1(), arch1Dbs(), options));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SplitNodeBuild)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

// Same build, instrumented: with the flattened span/pool storage a build
// makes a handful of chunk allocations instead of one vector per node, so
// allocations/op should grow far slower than node count.
void BM_SplitNodeBuildArena(benchmark::State& state) {
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
BENCHMARK(BM_SplitNodeBuildArena)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Complexity();

void BM_AssignmentExploration(benchmark::State& state) {
  const BlockDag dag = syntheticDag(static_cast<int>(state.range(0)));
  const CodegenOptions options = CodegenOptions::heuristicsOn();
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, arch1(), arch1Dbs(), options);
  for (auto _ : state) {
    AssignmentExplorer explorer(snd, options);
    benchmark::DoNotOptimize(explorer.explore());
  }
}
BENCHMARK(BM_AssignmentExploration)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

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
BENCHMARK(BM_CliqueGenerationLevelWindow)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_FullCoverHeuristicsOn(benchmark::State& state) {
  const BlockDag dag = syntheticDag(static_cast<int>(state.range(0)));
  // Synthetic DAGs mark every sink as an output; store outputs to memory so
  // arbitrary output counts stay register-feasible.
  CodegenOptions options = CodegenOptions::heuristicsOn();
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
  CodegenOptions options = CodegenOptions::heuristicsOn();
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

// The candidate-state cost model head to head: Arg(0) re-homes every
// candidate's payload spans into graph-owned pools right after materialize
// (the pre-refactor per-candidate deep copy); Arg(1) leaves them aliasing
// the Split-Node DAG's pools, as the covering loop now does — only the
// winner pays the detach. Same candidate set, so the time and allocs/op
// deltas are exactly the copy tax.
void BM_CandidateCopyVsDelta(benchmark::State& state) {
  const BlockDag dag = syntheticDag(26);
  CodegenOptions options = CodegenOptions::heuristicsOn();
  options.outputsToMemory = true;
  options.assignPruneIncremental = false;
  options.assignBeamWidth = 32;
  options.assignKeepBest = 8;
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, arch1(), arch1Dbs(), options);
  const std::vector<Assignment> assignments =
      AssignmentExplorer(snd, options).explore();
  const bool copyMode = state.range(0) == 0;
  CoverWorkspace ws;
  const HeapMeter heap;
  for (auto _ : state) {
    for (const Assignment& assignment : assignments) {
      const ArenaScope candidateScope(ws.arena);
      AssignedGraph graph =
          AssignedGraph::materialize(snd, assignment, options, &ws);
      if (copyMode) graph.detachPayloads();
      benchmark::DoNotOptimize(graph.size());
    }
  }
  heap.report(state);
  state.counters["candidates"] =
      benchmark::Counter(static_cast<double>(assignments.size()));
  state.SetLabel(copyMode ? "copy" : "delta");
}
BENCHMARK(BM_CandidateCopyVsDelta)->Arg(0)->Arg(1);

void BM_PaperBlocks(benchmark::State& state) {
  static const char* names[] = {"ex1", "ex2", "ex3", "ex4", "ex5"};
  const BlockDag dag = loadBlock(names[state.range(0)]);
  const CodegenOptions options = CodegenOptions::heuristicsOn();
  for (auto _ : state) {
    benchmark::DoNotOptimize(coverBlock(dag, arch1(), arch1Dbs(), options));
  }
  state.SetLabel(names[state.range(0)]);
}
BENCHMARK(BM_PaperBlocks)->DenseRange(0, 4);

// --- compilation service (DESIGN.md System 23) ---

void BM_FingerprintCompute(benchmark::State& state) {
  const BlockDag dag = loadBlock("ex2");
  const CodegenOptions options = CodegenOptions::heuristicsOn();
  CodegenContext ctx(arch1(), options);
  ctx.setMachineFingerprint(fingerprintMachine(ctx.machine()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compileFingerprint(ctx, dag, options, true, true));
  }
}
BENCHMARK(BM_FingerprintCompute);

CacheEntry benchEntry() {
  // A realistic entry: ex2 compiled for arch1.
  static const CacheEntry entry = [] {
    DriverOptions options;
    options.cache = std::make_shared<ResultCache>(CacheConfig{});
    CodeGenerator generator(arch1(), options);
    (void)generator.compileBlock(loadBlock("ex2"));
    CacheEntry e;
    e.blockName = "ex2";
    e.machineName = "arch1";
    return e;
  }();
  return entry;
}

void BM_CacheLookupMemoryHit(benchmark::State& state) {
  ResultCache cache(CacheConfig{});
  const Hash128 key = Hasher().str("bench").digest();
  cache.store(key, benchEntry());
  for (auto _ : state) benchmark::DoNotOptimize(cache.lookup(key));
}
BENCHMARK(BM_CacheLookupMemoryHit);

void BM_CacheLookupDiskHit(benchmark::State& state) {
  CacheConfig config;
  config.dir = (std::filesystem::temp_directory_path() /
                "aviv_bench_cache")
                   .string();
  config.memoryEntries = 0;  // every hit pays the read + decode + checksum
  ResultCache cache(config);
  const Hash128 key = Hasher().str("bench").digest();
  cache.store(key, benchEntry());
  for (auto _ : state) benchmark::DoNotOptimize(cache.lookup(key));
  std::filesystem::remove_all(config.dir);
}
BENCHMARK(BM_CacheLookupDiskHit);

void BM_CacheLookupMiss(benchmark::State& state) {
  ResultCache cache(CacheConfig{});
  const Hash128 key = Hasher().str("absent").digest();
  for (auto _ : state) benchmark::DoNotOptimize(cache.lookup(key));
}
BENCHMARK(BM_CacheLookupMiss);

// The avivd value proposition: one batch of the five paper kernels, cold
// (every compile does covering work) vs warm (every compile replays from
// the cache). The ratio is the speedup a warm daemon delivers.
void BM_BatchCompileColdVsWarm(benchmark::State& state) {
  static const char* names[] = {"ex1", "ex2", "ex3", "ex4", "ex5"};
  std::vector<BlockDag> dags;
  for (const char* name : names) dags.push_back(loadBlock(name));
  const bool warm = state.range(0) != 0;
  auto cache = std::make_shared<ResultCache>(CacheConfig{});
  DriverOptions options;
  options.core = CodegenOptions::heuristicsOn();
  options.cache = cache;
  if (warm) {
    CodeGenerator generator(arch1(), options);
    for (const BlockDag& dag : dags) (void)generator.compileBlock(dag);
  }
  for (auto _ : state) {
    if (!warm) cache = std::make_shared<ResultCache>(CacheConfig{});
    DriverOptions iter = options;
    iter.cache = cache;
    CodeGenerator generator(arch1(), iter);
    for (const BlockDag& dag : dags)
      benchmark::DoNotOptimize(generator.compileBlock(dag));
  }
  state.SetLabel(warm ? "warm" : "cold");
}
BENCHMARK(BM_BatchCompileColdVsWarm)->Arg(0)->Arg(1);

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
