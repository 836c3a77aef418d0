// avivbench — the repository benchmark: served avivd compiles end to end,
// split by layer.
//
//   avivbench --workload <cold-gen|warm-hits|isolated-mixed> --seed <n>
//             --seconds <s> --trace <0|1> --root <checkout> --avivd <binary>
//   avivbench --list-infeasible <checkout>   (re-derives infeasible.txt)
//
// One run: build the workload's inputs from the seed and replay every
// request in-process as the reference (replay.h), start a Release
// `avivd --listen --jobs 2` several times to time set-up (the last one
// stays), pre-warm when the workload asks for it, drive the timed window
// from one client thread over two connections, account the daemon's CPU
// and peak RSS from /proc, and stop it. Every served answer must be
// byte-identical to the reference, and the reference must pass
// verifyCompiledBlock at kAll; any failure makes the run exit 1. With
// --trace 1 a single-threaded traced replay then splits the requests into
// layers.
//
// Output: one human-readable row of all metrics with sample counts, then,
// as the last line, a JSON object {correct, attempted, failed, metrics}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exact metrics are recorded per (workload, seed, seconds,
// source tree) under .bench_build/exact and must repeat exactly across runs.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "serve.h"
#include "workload.h"

namespace fs = std::filesystem;
using namespace avivbench;

namespace {

// Daemon starts timed per run; setup_s is their median.
constexpr int kSetupSpawns = 24;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string root = ".";
  std::string avivd;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stoi(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--root") {
      a.root = value;
    } else if (key == "--avivd") {
      a.avivd = value;
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.avivd.empty() || a.seconds < 1)
    throw std::runtime_error(
        "usage: avivbench --workload W --seed N --seconds S --trace 0|1 "
        "--root DIR --avivd PATH");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The q-quantile, but never one with fewer than 10 samples beyond it.
double tailQuantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  long idx = static_cast<long>(std::ceil(q * static_cast<double>(n))) - 1;
  idx = std::min(idx, n - 11);
  return v[static_cast<size_t>(std::clamp(idx, 0L, n - 1))];
}

double stealShare(const CpuTicks& from, const CpuTicks& to) {
  const auto steal = static_cast<double>(to.steal - from.steal);
  const auto busy = static_cast<double>(to.busy - from.busy);
  return steal + busy > 0.0 ? steal / (steal + busy) : 0.0;
}

// FNV-1a over the relative path and bytes of every file the daemon's
// answers and the benchmark's inputs are built from, in path order.
uint64_t sourceTreeHash() {
  std::vector<fs::path> files;
  for (const char* dir : {"src", "examples", "machines", "blocks", "perfbench"})
    for (const auto& entry : fs::recursive_directory_iterator(dir))
      if (entry.is_regular_file()) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const char* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(data[i]);
      h *= 1099511628211ull;
    }
  };
  std::vector<char> buf(1 << 16);
  for (const fs::path& file : files) {
    const std::string name = file.generic_string();
    mix(name.c_str(), name.size() + 1);
    std::ifstream in(file, std::ios::binary);
    while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
           in.gcount() > 0)
      mix(buf.data(), static_cast<size_t>(in.gcount()));
  }
  return h;
}

int respawnsFromLog(const std::string& logPath) {
  std::ifstream in(logPath);
  std::string line;
  int respawns = 0;
  while (std::getline(in, line)) {
    const size_t at = line.find(" respawns");
    if (line.rfind("avivd: workers:", 0) != 0 || at == std::string::npos)
      continue;
    const size_t start = line.rfind(' ', at - 1);
    respawns = std::atoi(line.c_str() + start + 1);
  }
  return respawns;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // 0: exact (deterministic), not a measurement
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Records exact metrics under .bench_build/exact; returns false when an
// earlier run with the same key recorded different values.
bool checkExact(const std::string& key, const std::string& values) {
  const fs::path dir = ".bench_build/exact";
  fs::create_directories(dir);
  const fs::path file = dir / (key + ".txt");
  if (fs::exists(file)) {
    std::ifstream in(file);
    std::stringstream old;
    old << in.rdbuf();
    if (old.str() != values) {
      std::fprintf(stderr,
                   "avivbench: exact metrics differ from an earlier run "
                   "(%s):\n--- earlier\n%s--- now\n%s",
                   file.c_str(), old.str().c_str(), values.c_str());
      return false;
    }
    std::fprintf(stderr, "avivbench: exact metrics repeat %s\n", file.c_str());
    return true;
  }
  std::ofstream(file) << values;
  return true;
}

// Replays `lines` untraced on four threads, each with its own replayer and
// cache; returns the outcomes in line order.
std::vector<ReplayOutcome> replayAll(const std::vector<std::string>& lines) {
  std::vector<ReplayOutcome> outs(lines.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    aviv::CacheConfig config;
    config.memoryEntries = 1 << 16;
    Replayer replayer(false, {std::make_shared<aviv::ResultCache>(config)});
    for (size_t i; (i = next.fetch_add(1)) < lines.size();)
      outs[i] = replayer.run(lines[i], static_cast<uint32_t>(i), 0);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return outs;
}

struct Cleanup {
  std::string dir;
  ~Cleanup() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

// Enters the checkout and makes a fresh working directory in it; the
// relative path keeps unix socket names short.
std::string enter(const std::string& rootArg, const std::string& name) {
  const std::string root = fs::absolute(rootArg).lexically_normal();
  if (::chdir(root.c_str()) != 0)
    throw std::runtime_error("cannot enter " + root);
  const std::string work =
      ".bench_build/" + name + "-" + std::to_string(::getpid());
  fs::remove_all(work);
  fs::create_directories(work + "/inputs");
  return work;
}

// Compiles every block of the generated-block pool and prints the ones
// the compiler rejects, as perfbench/infeasible.txt.
int listInfeasible(const std::string& rootArg) {
  const std::string work = enter(rootArg, "pool");
  const Cleanup cleanup{work};
  const std::vector<PoolBlock> pool =
      writePool(fs::current_path().string(), work + "/inputs");
  std::printf(
      "# Generated-block pool entries (machine ops index) that avivd\n"
      "# rejects; workloads never draw them. Derived from the compiler when\n"
      "# the pool was fixed: avivbench --list-infeasible <checkout>\n"
      "# (%zu blocks compiled).\n",
      pool.size());
  constexpr size_t kBatch = 2000;
  for (size_t from = 0; from < pool.size(); from += kBatch) {
    std::vector<std::string> lines;
    for (size_t i = from; i < std::min(pool.size(), from + kBatch); ++i)
      lines.push_back(pool[i].line);
    const std::vector<ReplayOutcome> outs = replayAll(lines);
    for (size_t k = 0; k < outs.size(); ++k)
      if (!outs[k].ok)
        std::printf("%s  # %s\n", pool[from + k].key.c_str(),
                    outs[k].error.c_str());
    std::fflush(stdout);
  }
  return 0;
}

int run(const Args& args) {
  const std::string work = enter(args.root, "run");
  const std::string root = fs::current_path().string();
  const Cleanup cleanup{work};

  // The inputs depend on the seed alone, never on what the compiler
  // accepts: a request it rejects counts as failed. Every line is replayed
  // in-process first as the reference answer.
  const Workload w = buildWorkload(args.workload, args.seed, args.seconds,
                                   root, root + "/" + work + "/inputs");
  const std::vector<ReplayOutcome> reference = replayAll(w.lines);
  const std::string probe =
      "machine=arch1 block=" + root + "/blocks/ex1.blk no-peephole";

  // --- set-up: spawn until the first answer, several times. Half the
  // spawns run before the timed window and half after it, so the median
  // samples the host at two moments rather than one; one untimed spawn
  // first pays for the cold page cache.
  const bool isolated = w.isolateWorkers > 0;
  std::vector<double> setup;
  auto spawn = [&](int k) {
    std::vector<std::string> dargs{"--jobs", "2", "--mem-entries",
                                   std::to_string(w.memEntries)};
    if (isolated)
      dargs.insert(dargs.end(),
                   {"--isolate-workers", std::to_string(w.isolateWorkers),
                    "--cache-dir", work + "/cache" + std::to_string(k)});
    const auto t0 = std::chrono::steady_clock::now();
    Daemon d = startDaemon(args.avivd, dargs,
                           work + "/d" + std::to_string(k) + ".sock",
                           work + "/avivd" + std::to_string(k) + ".log", probe);
    if (k > 0)
      setup.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    return d;
  };
  Daemon daemon;
  struct Stop {
    Daemon& d;
    ~Stop() { stopDaemon(d); }
  } stop{daemon};
  for (int k = 0; k <= kSetupSpawns / 2; ++k) {
    stopDaemon(daemon);
    daemon = spawn(k);
  }

  Served served(w.lines.size());
  LoadResult warm;
  if (!w.warm.empty())
    warm = runLoad(w, w.warm, false, false, 0.0, daemon.socketPath, served);
  const ProcUsage before = procUsage(daemon.pid);
  const LoadResult load =
      runLoad(w, w.sequence, w.openLoop, w.cycle, args.seconds,
              daemon.socketPath, served);
  const ProcUsage after = procUsage(daemon.pid);
  const std::string daemonLog = daemon.logPath;
  const int exitStatus = stopDaemon(daemon);
  for (int k = kSetupSpawns / 2 + 1; k <= kSetupSpawns; ++k) {
    daemon = spawn(k);
    stopDaemon(daemon);
  }
  const int respawns =  // the pool counts its initial spawns as well
      std::max(0, respawnsFromLog(daemonLog) - w.isolateWorkers);

  // --- socket-side accounting.
  int failed = load.lost + load.transportErrors + warm.lost +
               warm.transportErrors;
  int degraded = 0;
  std::vector<double> latency, queue, handler, transit, lag;
  std::vector<std::vector<double>> walls(w.lines.size());  // by line
  std::vector<double> wallAt(w.sequence.size(), 0.0);  // by send position
  for (const LoadResult* r : std::vector<const LoadResult*>{&warm, &load}) {
    for (const Sample& s : r->samples) {
      const bool answered = s.type == net::FrameType::kOk ||
                            s.type == net::FrameType::kHit ||
                            s.type == net::FrameType::kDegraded;
      if (!answered || s.wrongOutput) ++failed;
      if (s.type == net::FrameType::kDegraded) ++degraded;
    }
  }
  for (const Sample& s : load.samples) {
    latency.push_back(s.latencyUs / 1e3);
    queue.push_back(static_cast<double>(s.queueUs));
    handler.push_back(static_cast<double>(s.wallUs));
    transit.push_back(s.sendToRecvUs - static_cast<double>(s.wallUs) -
                      static_cast<double>(s.queueUs));
    lag.push_back(s.lagUs / 1e3);
    walls[static_cast<size_t>(s.line)].push_back(static_cast<double>(s.wallUs));
    if (s.pos < wallAt.size()) wallAt[s.pos] = static_cast<double>(s.wallUs);
  }
  const double completed = static_cast<double>(load.samples.size());

  // --- gate: every served answer against its reference replay.
  auto check = [&](size_t line, const ReplayOutcome& out, const char* who) {
    std::string why;
    if (!out.ok) {
      why = "replay failed: " + out.error;
    } else if (!out.verified) {
      why = out.error;
    } else if (served.instrs[line] >= 0 && out.instrs != served.instrs[line]) {
      why = "instrs " + std::to_string(out.instrs) + " != served " +
            std::to_string(served.instrs[line]);
    } else if (served.instrs[line] >= 0 && out.asmText != served.body[line]) {
      why = "asm differs from the served body";
    }
    if (why.empty()) return;
    ++failed;
    std::fprintf(stderr, "avivbench: %s: %s: %s\n", who,
                 w.lines[line].c_str(), why.c_str());
  };
  for (size_t line = 0; line < w.lines.size(); ++line)
    check(line, reference[line], "reference");

  // --- traced replay (--trace 1), against caches shaped like the
  // daemon's: one shared cache, or one per isolated worker over a shared
  // disk store.
  std::vector<std::shared_ptr<aviv::ResultCache>> caches;
  for (int i = 0; i < std::max(1, w.isolateWorkers); ++i) {
    aviv::CacheConfig config;
    config.memoryEntries = static_cast<size_t>(w.memEntries);
    if (isolated) {
      config.dir = work + "/replay-cache";
      config.sweepMinAgeSeconds = 5.0;
    }
    caches.push_back(std::make_shared<aviv::ResultCache>(config));
  }
  // cold-gen and warm-hits replay their distinct lines (warm-hits after an
  // untraced warming pass, so every traced request is a hit); isolated-
  // mixed replays its whole send order, so stores, hits, disk hits and
  // evictions occur as they do when served.
  std::vector<int> order;
  if (args.trace) {
    std::vector<char> seen(w.lines.size(), 0);
    for (const int line : w.sequence) {
      if (!seen[static_cast<size_t>(line)] || isolated) order.push_back(line);
      seen[static_cast<size_t>(line)] = 1;
    }
    Replayer warmer(false, caches);
    for (const int line : w.warm)
      (void)warmer.run(w.lines[static_cast<size_t>(line)], 0, 0);
  }
  auto cacheTotals = [&caches] {
    aviv::CacheStats sum;
    for (const auto& cache : caches) {
      const aviv::CacheStats one = cache->stats();
      sum.lookups += one.lookups;
      sum.hits += one.hits;
      sum.diskHits += one.diskHits;
      sum.evictions += one.evictions;
    }
    return sum;
  };
  const aviv::CacheStats cacheBefore = cacheTotals();
  Replayer replay(true, caches);
  double wallForTraced = 0.0;
  for (size_t i = 0; i < order.size(); ++i) {
    const auto line = static_cast<size_t>(order[i]);
    check(line,
          replay.run(w.lines[line], static_cast<uint32_t>(i),
                     i % caches.size()),
          "traced replay");
    // The handler wall this replayed request accounts for: the same send
    // position when the whole order is replayed, else the line's median.
    wallForTraced += isolated ? wallAt[i] : median(walls[line]);
  }

  const std::vector<SpanRecord>& spans = replay.spans();
  double ipcUs = 0.0;
  if (isolated && args.trace) {
    std::vector<std::string> kernels;
    for (const int line : w.fixedLines)
      kernels.push_back(w.lines[static_cast<size_t>(line)]);
    ipcUs = replay.measureIpcMicros(kernels, work + "/ipc-cache",
                                    static_cast<uint32_t>(order.size()));
  }

  // --- metrics.
  int64_t codeSize = 0;
  for (size_t line = 0; line < w.lines.size(); ++line)
    if (served.instrs[line] > 0) codeSize += served.instrs[line];
  const double issued = static_cast<double>(load.issued + warm.issued);
  const size_t nLoad = load.samples.size();
  std::vector<Metric> e2e = {
      {"setup_s", median(setup), "s", setup.size()},
      {"latency_p50_ms", median(latency), "ms", nLoad},
      {"latency_p99_ms", tailQuantile(latency, 0.99), "ms", nLoad},
      {"throughput_rps", completed / std::max(load.seconds, 1e-9), "req/s",
       nLoad},
      {"server_cpu_ms_per_req",
       (after.cpuSeconds - before.cpuSeconds) * 1e3 / std::max(completed, 1.0),
       "ms", nLoad},
      {"peak_rss_mb", after.peakRssMb, "MB",
       static_cast<size_t>(after.processes)},
      {"code_size_instrs", static_cast<double>(codeSize), "instrs", 0},
      {"failed_frac", 0.0, "ratio", 0},  // set once every check has run
      {"degraded_frac", degraded / std::max(issued, 1.0), "ratio", 0},
  };

  const double traced = std::max<double>(1.0, static_cast<double>(order.size()));
  const std::vector<double> self = selfMicros(spans);
  auto perReq = [&](Layer layer) {
    return self[static_cast<size_t>(layer)] / traced;
  };
  double coveredUs = 0.0;
  for (const SpanRecord& s : spans)
    if (s.parent >= 0 && spans[static_cast<size_t>(s.parent)].layer ==
                             Layer::kRequest)
      coveredUs += static_cast<double>(s.endNs - s.startNs) / 1e3;
  coveredUs += ipcUs * static_cast<double>(order.size());
  const ReplayCounts& c = replay.counts();
  aviv::CacheStats cs = cacheTotals();  // the replay's own traffic
  cs.lookups -= cacheBefore.lookups;
  cs.hits -= cacheBefore.hits;
  cs.diskHits -= cacheBefore.diskHits;
  cs.evictions -= cacheBefore.evictions;
  const double lookups = std::max<double>(1.0, static_cast<double>(cs.lookups));
  const size_t nSpan = order.size();
  std::vector<Metric> layers = {
      {"core.splitnode_us", perReq(Layer::kSplitNode), "us", nSpan},
      {"core.snd_nodes", c.sndNodes / traced, "count", 0},
      {"core.explore_us", perReq(Layer::kExplore), "us", nSpan},
      {"core.explore.states", c.exploreStates / traced, "count", 0},
      {"core.materialize_us", perReq(Layer::kMaterialize), "us", nSpan},
      {"core.cover_us", perReq(Layer::kCover), "us", nSpan},
      {"core.cover.clique_recursions", c.cliqueRecursions / traced, "count", 0},
      {"core.cover.candidates_evaluated", c.candidatesEvaluated / traced,
       "count", 0},
      {"core.cover.assignments", c.assignmentsCovered / traced, "count", 0},
      {"core.cover.winner_ratio",
       c.assignmentsCovered == 0
           ? 0.0
           : static_cast<double>(c.blocksCovered) /
                 static_cast<double>(c.assignmentsCovered),
       "ratio", 0},
      {"core.cover.spills", c.spills / traced, "count", 0},
      {"regalloc.peephole_us", perReq(Layer::kPeephole), "us", nSpan},
      {"regalloc.alloc_us", perReq(Layer::kAlloc), "us", nSpan},
      {"asmgen.encode_us", perReq(Layer::kEncode), "us", nSpan},
      {"asmgen.rebind_us", perReq(Layer::kRebind), "us", nSpan},
      {"isdl.parse_us", perReq(Layer::kIsdlParse), "us", nSpan},
      {"isdl.databases_us", perReq(Layer::kIsdlDatabases), "us", nSpan},
      {"ir.parse_us", perReq(Layer::kIrParse), "us", nSpan},
      {"service.request_parse_us", perReq(Layer::kRequestParse), "us", nSpan},
      {"service.fingerprint_us", perReq(Layer::kFingerprint), "us", nSpan},
      {"service.cache.lookup_us", perReq(Layer::kCacheLookup), "us", nSpan},
      {"service.cache.store_us", perReq(Layer::kCacheStore), "us", nSpan},
      {"service.cache.hit_ratio", static_cast<double>(cs.hits) / lookups,
       "ratio", 0},
      {"service.cache.disk_hit_ratio",
       static_cast<double>(cs.diskHits) / lookups, "ratio", 0},
      {"service.cache.evictions", cs.evictions / traced, "count", 0},
      {"asmgen.asm_text_us", perReq(Layer::kAsmText), "us", nSpan},
      {"verify.us", perReq(Layer::kVerify), "us", nSpan},
      {"verify.vectors", c.verifyVectors / traced, "count", 0},
      {"proc.ipc_us", ipcUs, "us", isolated ? w.fixedLines.size() : 0},
      {"proc.respawns", respawns / std::max(completed, 1.0), "count", nLoad},
      {"net.queue_wait_p50_us", median(queue), "us", nLoad},
      {"net.queue_wait_p99_us", tailQuantile(queue, 0.99), "us", nLoad},
      {"net.handler_p50_us", median(handler), "us", nLoad},
      {"net.transit_p50_us", median(transit), "us", nLoad},
      {"net.transit_p99_us", tailQuantile(transit, 0.99), "us", nLoad},
      {"net.frame_codec_us", load.codecUs / std::max(completed, 1.0), "us",
       nLoad},
      {"trace.unexplained_frac",
       wallForTraced <= 0.0 ? 0.0
                            : std::max(0.0, 1.0 - coveredUs / wallForTraced),
       "ratio", nSpan},
      {"harness.steal_frac",
       stealShare(load.ticksBegin, load.ticksEnd), "ratio", 2},
      {"harness.gen_lag_p99_ms", w.openLoop ? tailQuantile(lag, 0.99) : 0.0,
       "ms", w.openLoop ? nLoad : 0},
  };

  // --- exact metrics must repeat across runs of the same inputs + binary.
  std::ostringstream exact;
  exact << "code_size_instrs=" << codeSize << "\ndegraded=" << degraded
        << "\n";
  if (args.trace)
    for (const Metric& m : layers)
      if (m.samples == 0)
        exact << m.name << '=' << fmt(m.value) << '\n';
  // Keyed by the source tree, not by the binaries: a rebuild of the same
  // sources, or a copy of the tree at another path, must repeat them.
  char key[160];
  std::snprintf(key, sizeof(key), "%s-s%llu-t%d-%s-%016llx",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? "layers" : "e2e",
                static_cast<unsigned long long>(sourceTreeHash()));
  const bool exactOk = checkExact(key, exact.str());
  if (!exactOk) ++failed;
  for (Metric& m : e2e)
    if (m.name == "failed_frac") m.value = failed / std::max(issued, 1.0);
  if (args.trace)
    writeSpans(".bench_build/spans-" + args.workload + ".tsv", spans);

  // --- report.
  std::printf("avivbench: workload=%s seed=%llu issued=%d distinct=%zu "
              "replayed=%zu daemon-exit=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              load.issued + warm.issued, w.lines.size(), order.size(),
              exitStatus);
  std::string row = "row " + args.workload;
  for (const std::vector<Metric>* list : {&e2e, &layers}) {
    if (list == &layers && !args.trace) break;
    for (const Metric& m : *list) {
      char cell[160];
      std::snprintf(cell, sizeof(cell), " %s=%.4g%s", m.name.c_str(), m.value,
                    m.unit.c_str());
      row += cell;
      if (m.samples > 0) row += "(n=" + std::to_string(m.samples) + ")";
    }
  }
  std::printf("%s\n", row.c_str());

  const bool correct = failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(load.issued + warm.issued);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : args.trace ? layers : e2e) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 3 && std::string(argv[1]) == "--list-infeasible")
      return listInfeasible(argv[2]);
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avivbench: %s\n", e.what());
    return 2;
  }
}
