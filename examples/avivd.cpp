// avivd — the AVIV compile daemon: one warm process serving many compiles
// (DESIGN.md System 23; server mode §6.7). Two front ends over the same
// request grammar and dispatch (src/service/request.h):
//
//   avivd <requests.txt|->  [options]          batch mode
//   avivd --listen <spec>   [options]          compile server (docs/server.md)
//
// Request line grammar (whitespace-separated tokens; '#' starts a comment,
// blank lines are skipped):
//
//   machine=<name|path.isdl> block=<name|path.blk|path.c> [heuristics=on|off]
//   [const-pool] [outputs-mem] [no-peephole] [regs=N] [timeout=SEC]
//   [verify=off|sampled|all]
//
// `machine` resolves shipped names via the machine directory; `block`
// resolves shipped names via the block directory, or takes a path to a
// .blk/.c file. `timeout` bounds the request's covering flow in wall-clock
// seconds (overriding --default-timeout): a request whose budget expires
// degrades to the sequential baseline and reports `degraded` instead of
// failing. Example batch:
//
//   machine=arch1 block=ex1
//   machine=arch2 block=biquad heuristics=off timeout=0.5
//   machine=dsp16 block=fir.blk const-pool
//
// Malformed request lines are reported (with their 1-based line number) and
// skipped; the rest of the batch still compiles. A batch whose request
// lines are ALL malformed reports a parse-errors summary and exits 2 — a
// config generator emitting garbage must not look like a successful run.
// A request that fails — compile error, injected fault, anything — only
// fails that request: the daemon never dies mid-batch. SIGINT/SIGTERM
// request a graceful shutdown: in-flight requests drain, pending ones
// report `skipped (shutdown)`, the cache manifest is flushed, and the
// process exits 130.
//
// Both front ends hand each request line to one dispatch
// (DaemonConfig::dispatch): in-process through serveRequestLine, or through
// the isolated worker pool — either way a typed net::NetResponse.
//
// Server mode (--listen unix:/path.sock | --listen host:port): serves the
// same grammar over the length-prefixed binary framing in src/net/frame.h,
// one request line per frame. Responses are typed (ok/hit/degraded/
// quarantined/error/retry-after) and carry wall/queue timings. Admission
// control sheds with RETRY_AFTER when --queue-cap requests are already
// waiting; SIGINT/SIGTERM drains: admitted requests finish, their responses
// flush, then the listener closes and the daemon exits 0. tools/loadgen is
// the matching load-generator client.
//
// Options (both modes unless noted):
//   --cache-dir <dir>    on-disk result-cache directory (shared with avivc);
//                        without it the cache is in-memory only
//   --no-cache           disable the result cache entirely
//   --mem-entries <n>    memory-tier capacity in entries (default 1024)
//   --jobs <n>           worker threads compiling requests concurrently
//   --repeat <n>         batch: run the whole batch n times in this process
//                        (pass 2+ should be all cache hits)
//   --expect-all-hits    batch: exit nonzero unless the cache is on and no
//                        request of the final pass compiled a block cold
//                        (degraded and quarantined requests excluded: their
//                        results are deliberately never cached)
//   --default-timeout <sec>  covering budget for requests without their own
//                        timeout= token (0 = unlimited)
//   --retries <n>        retry a request hit by a transient fault up to n
//                        times with exponential backoff (default 2)
//   --verify <m>         default differential-verification mode for requests
//                        without their own verify= token: off (default),
//                        sampled, or all (src/verify, DESIGN.md §6.5)
//   --quarantine-dir <d> where verification failures write repro bundles
//   --failpoints <spec>  activate fault-injection points, same grammar as
//                        the AVIV_FAILPOINTS env var: name[:prob[:count]],
//                        comma-separated (see src/support/failpoint.h)
//   --failpoint-seed <n> seed for probabilistic fail-point draws, so a
//                        randomized soak run is reproducible from its seed
//   --isolate-workers <n>  compile in n supervised, crash-isolated worker
//                        processes (src/proc): a SIGSEGV, OOM, or hang
//                        takes down one worker, never the daemon; the
//                        request is retried once on a healthy worker
//   --worker-deadline-ms <n>  hard per-request ceiling before a worker is
//                        SIGKILLed (default 30000; 0 = none)
//   --worker-rss-mb <n>  per-worker RLIMIT_AS cap in MB (0 = inherit)
//   --worker-cpu-s <n>   per-worker RLIMIT_CPU cap in seconds (0 = inherit)
//   --crash-dir <dir>    write every worker crash as a standalone repro
//                        bundle under this directory (replayable with
//                        `fuzz_gen --replay <bundle>`)
//   --crash-loop-k <n>   crash-loop breaker: n crashes of one request line
//                        within the window blacklist it to an in-process
//                        baseline compile (default 3)
//   --print-asm          batch: print each result's assembly after its
//                        status line
//   --stats-json <file>  write the daemon's phase-telemetry tree as JSON
//   --trace-out <file>   flight-recorder tracing: write the retained events
//                        as Chrome trace-event JSON at exit (and on the
//                        SIGINT drain)
//   --metrics-json <file> metrics registry: write aggregated
//                        counters/histograms after every pass and on the
//                        SIGINT drain
//   --listen <spec>      server: accept framed requests on unix:/path or
//                        host:port (port 0 = kernel-assigned, printed)
//   --queue-cap <n>      server: admitted-but-unstarted request bound before
//                        shedding with RETRY_AFTER (default 256)
//   --backend <b>        server: event backend auto|epoll|poll
//   --drain-timeout-ms <n>  server: grace for stalled peers at shutdown
//
// Batch status lines (streamed as requests complete; order varies with
// --jobs):
//   req 3: ok block=ex1 machine=arch1 blocks=1 instrs=7 cache=hit
//     wall=12.4ms queue=0.1ms
//   req 4: degraded block=biquad machine=arch2 blocks=1 instrs=9 cache=miss
//     wall=503.0ms queue=0.2ms
//   req 5: error <message>
//   req 6: skipped (shutdown)
//   req 7: quarantined block=fir machine=dsp16 blocks=1 instrs=12 cache=miss
//     wall=88.1ms queue=0.3ms
// (each status is one line; wall= is the request's compile wall time,
// queue= how long it waited for a ThreadPool slot after the pass started)
// `quarantined` means output verification caught a miscompile: the emitted
// result is the verified baseline, a repro artifact was quarantined, and —
// like degraded requests — nothing was cached, so --expect-all-hits
// excludes it.
// Summary lines (per pass):
//   avivd: pass 1: 10 requests, 9 ok, 1 degraded, 0 quarantined, 0 failed,
//   0 skipped
//   avivd: cache: 10 lookups, 0 hits, 10 misses, 0 corrupt, 0 evictions
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "net/server.h"
#include "obs/metrics.h"
#include "proc/pool.h"
#include "obs/trace.h"
#include "service/cache.h"
#include "service/request.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/strings.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace {

using namespace aviv;

// Graceful-shutdown flag, flipped by the SIGINT/SIGTERM handler. Batch
// workers poll it before starting a request; server mode additionally gets
// a byte on the event loop's wake pipe so the poll cuts short.
volatile std::sig_atomic_t g_shutdownRequested = 0;
volatile int g_serverWakeFd = -1;

extern "C" void handleShutdownSignal(int) {
  g_shutdownRequested = 1;
  const int fd = g_serverWakeFd;
  if (fd >= 0) {
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

struct DaemonConfig {
  RequestDefaults defaults;
  RequestExecConfig exec;
  int jobs = 1;
  std::string statsJson;
  std::string metricsJson;
  std::string traceOut;
  // --isolate-workers: requests run in supervised worker processes
  // (src/proc) instead of in-process; null = classic in-process dispatch.
  std::shared_ptr<proc::WorkerPool> pool;

  // The one request dispatch both front ends share. In-process telemetry
  // merges into `tel`; isolated workers keep theirs.
  net::NetResponse dispatch(const std::string& line, bool wantAsm,
                            TelemetryNode& tel) const {
    if (pool != nullptr) return pool->execute(line, wantAsm);
    RequestExecConfig config = exec;
    config.wantAsm = wantAsm;
    return serveRequestLine(line, defaults, config, tel);
  }
};

// Per-pass delta of the pool's supervision counters, printed like the
// cache summary line.
void printPoolSummary(const proc::WorkerPool& pool,
                      const proc::PoolStats& before) {
  const proc::PoolStats now = pool.stats();
  std::printf(
      "avivd: workers: %llu crashes, %llu deadline-kills, "
      "%llu heartbeat-kills, %llu respawns, %llu crash-retried, "
      "%llu crash-failed, %llu breaker-opens, %llu breaker-served, "
      "%llu repro-bundles\n",
      static_cast<unsigned long long>(now.crashes - before.crashes),
      static_cast<unsigned long long>(now.deadlineKills -
                                      before.deadlineKills),
      static_cast<unsigned long long>(now.heartbeatKills -
                                      before.heartbeatKills),
      static_cast<unsigned long long>(now.respawns - before.respawns),
      static_cast<unsigned long long>(now.crashRetried -
                                      before.crashRetried),
      static_cast<unsigned long long>(now.crashFailed - before.crashFailed),
      static_cast<unsigned long long>(now.breakerOpens -
                                      before.breakerOpens),
      static_cast<unsigned long long>(now.breakerServed -
                                      before.breakerServed),
      static_cast<unsigned long long>(now.reproBundles -
                                      before.reproBundles));
}

// Cache counters accumulated since `before`, one summary line.
void printCacheSummary(const CacheStats& now, const CacheStats& before) {
  std::printf(
      "avivd: cache: %lld lookups, %lld hits, %lld misses, %lld corrupt, "
      "%lld write-errors, %lld io-retries, %lld evictions\n",
      static_cast<long long>(now.lookups - before.lookups),
      static_cast<long long>(now.hits - before.hits),
      static_cast<long long>(now.misses - before.misses),
      static_cast<long long>(now.corrupt - before.corrupt),
      static_cast<long long>(now.writeErrors - before.writeErrors),
      static_cast<long long>(now.ioRetries - before.ioRetries),
      static_cast<long long>(now.evictions - before.evictions));
}

void dumpMetricsTo(const std::string& path) {
  if (!path.empty()) writeFile(path, metrics::Registry::instance().toJson());
}

void dumpTraceTo(const std::string& path) {
  if (!path.empty())
    writeFile(path, trace::Tracer::instance().exportJson());
}

// --- batch mode -----------------------------------------------------------

int runBatch(const DaemonConfig& daemon, const std::string& batchPath,
             int repeat, bool expectAllHits, bool printAsm) {
  // Read and validate the whole batch up front. A malformed line is
  // reported with its 1-based line:column and skipped — one typo must not
  // take down the rest of the batch. Valid lines are kept raw: dispatch
  // (in-process or an isolated worker) parses for itself.
  std::string batchText;
  if (batchPath == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    batchText = buffer.str();
  } else {
    batchText = readFile(batchPath);
  }
  std::vector<std::string> lines;
  int parseErrors = 0;
  {
    std::istringstream in(batchText);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
      ++lineNo;
      const std::string_view stripped = trim(line);
      if (stripped.empty() || stripped[0] == '#') continue;
      const RequestParse parse =
          parseRequestLine(stripped, lineNo, daemon.defaults);
      if (parse.ok()) {
        lines.emplace_back(stripped);
      } else {
        ++parseErrors;
        std::printf("avivd: request line %s: %s (skipped)\n",
                    parse.diagnostic.loc.str().c_str(),
                    parse.diagnostic.message.c_str());
      }
    }
  }
  if (lines.empty()) {
    if (parseErrors > 0) {
      // Every request line was malformed: this is a broken batch, not a
      // successful no-op — summarize and exit distinctly nonzero.
      std::printf(
          "avivd: parse-errors: all %d request line%s malformed, "
          "0 requests run\n",
          parseErrors, parseErrors == 1 ? "" : "s");
      std::fflush(stdout);
      return 2;
    }
    throw Error("batch contains no valid requests");
  }

  TelemetryNode root("avivd");
  ThreadPool pool(daemon.jobs);
  std::mutex outMu;
  bool allOk = true;
  // kOk answers of the final pass: requests that compiled at least one
  // block cold. Degraded and quarantined answers are their own types —
  // their results are deliberately never cached.
  size_t finalPassCold = 0;
  bool shutdown = false;
  const std::shared_ptr<ResultCache>& cache = daemon.exec.cache;

  for (int pass = 1; pass <= repeat && !shutdown; ++pass) {
    TelemetryNode& passTel = root.child("pass:" + std::to_string(pass));
    // Pre-create one disjoint telemetry subtree per request before the
    // fan-out (TelemetryNode is not thread-safe).
    std::vector<TelemetryNode*> requestTel;
    requestTel.reserve(lines.size());
    for (size_t i = 0; i < lines.size(); ++i)
      requestTel.push_back(&passTel.child("req:" + std::to_string(i)));

    const CacheStats before = cache != nullptr ? cache->stats() : CacheStats{};
    const proc::PoolStats poolBefore =
        daemon.pool != nullptr ? daemon.pool->stats() : proc::PoolStats{};
    size_t okCount = 0;
    size_t coldCount = 0;
    size_t degradedCount = 0;
    size_t quarantinedCount = 0;
    size_t skippedCount = 0;
    // Queue time = how long the request waited for a ThreadPool slot
    // after the pass fan-out began; wall time = the request itself (under
    // --isolate-workers the supervisor-side time, crash retries included).
    const WallTimer passTimer;
    pool.parallelFor(lines.size(), [&](size_t i, int) {
      const double queueMs = passTimer.seconds() * 1e3;
      if (g_shutdownRequested != 0) {
        // Drain mode: in-flight requests finish, pending ones skip.
        std::lock_guard<std::mutex> lock(outMu);
        ++skippedCount;
        std::printf("req %zu: skipped (shutdown)\n", i);
        std::fflush(stdout);
        return;
      }
      trace::Span reqSpan("avivd", "req:", std::to_string(i));
      const WallTimer reqTimer;
      const net::NetResponse response =
          daemon.dispatch(lines[i], printAsm, *requestTel[i]);
      const double wallMs = reqTimer.seconds() * 1e3;
      if (metrics::on())
        metrics::Registry::instance()
            .histogram("avivd.request.us")
            .record(static_cast<int64_t>(wallMs * 1e3));
      std::lock_guard<std::mutex> lock(outMu);
      const char* status = "error";
      switch (response.type) {
        case net::FrameType::kQuarantined:
          ++quarantinedCount;
          status = "quarantined";
          break;
        case net::FrameType::kDegraded:
          ++degradedCount;
          status = "degraded";
          break;
        case net::FrameType::kOk:
          ++coldCount;
          [[fallthrough]];
        case net::FrameType::kHit:
          ++okCount;
          status = "ok";
          break;
        default:
          break;
      }
      std::printf("req %zu: %s %s wall=%.1fms queue=%.1fms\n%s", i, status,
                  response.detail.c_str(), wallMs, queueMs,
                  response.body.c_str());
      std::fflush(stdout);
    });

    std::printf(
        "avivd: pass %d: %zu requests, %zu ok, %zu degraded, "
        "%zu quarantined, %zu failed, %zu skipped\n",
        pass, lines.size(), okCount, degradedCount, quarantinedCount,
        lines.size() - okCount - degradedCount - quarantinedCount -
            skippedCount,
        skippedCount);
    if (parseErrors > 0)
      std::printf("avivd: pass %d: %d parse-errors\n", pass, parseErrors);
    if (cache != nullptr) {
      const CacheStats now = cache->stats();
      printCacheSummary(now, before);
      recordServiceStats(now, root.child("service"));
    }
    if (daemon.pool != nullptr) printPoolSummary(*daemon.pool, poolBefore);
    finalPassCold = coldCount;
    if (okCount + degradedCount + quarantinedCount != lines.size())
      allOk = false;
    // Periodic metrics flush: one aggregated dump per pass, so a long
    // --repeat run exposes progress without waiting for exit.
    dumpMetricsTo(daemon.metricsJson);
    if (g_shutdownRequested != 0) shutdown = true;
  }

  if (shutdown) {
    // Graceful shutdown: in-flight work has drained; persist what we can
    // and exit with the conventional interrupted status.
    if (cache != nullptr) cache->flushManifest();
    if (!daemon.statsJson.empty())
      writeFile(daemon.statsJson, root.toJson() + "\n");
    dumpMetricsTo(daemon.metricsJson);
    dumpTraceTo(daemon.traceOut);
    std::printf("avivd: shutdown requested, exiting\n");
    return 130;
  }
  if (!daemon.statsJson.empty())
    writeFile(daemon.statsJson, root.toJson() + "\n");
  dumpMetricsTo(daemon.metricsJson);
  dumpTraceTo(daemon.traceOut);
  if (!allOk) return 1;
  if (expectAllHits && (cache == nullptr || finalPassCold > 0)) {
    std::fprintf(stderr,
                 "avivd: --expect-all-hits: %sfinal pass had %zu cold "
                 "request%s (degraded and quarantined requests excluded)\n",
                 cache == nullptr ? "cache disabled; " : "", finalPassCold,
                 finalPassCold == 1 ? "" : "s");
    return 2;
  }
  return 0;
}

// --- server mode ----------------------------------------------------------

int runServer(const DaemonConfig& daemon, const std::string& listenSpec,
              int queueCap, const std::string& backendName,
              int drainTimeoutMs) {
  net::ServerConfig config;
  config.listen = net::parseEndpoint(listenSpec);
  config.queueCapacity = queueCap;
  if (drainTimeoutMs > 0) config.drainTimeoutMs = drainTimeoutMs;
  if (backendName == "epoll") {
    config.backend = net::EventLoop::Backend::kEpoll;
  } else if (backendName == "poll") {
    config.backend = net::EventLoop::Backend::kPoll;
  } else if (backendName != "auto") {
    throw Error("--backend expects auto|epoll|poll, got '" + backendName +
                "'");
  }

  TelemetryNode root("avivd");
  TelemetryNode& serverTel = root.child("server");
  std::mutex telMu;
  ThreadPool pool(daemon.jobs);

  // The handler runs on ThreadPool workers: one dispatch per request,
  // then its telemetry joins the server's tree.
  auto handler = [&](const net::NetRequest& request) {
    TelemetryNode local("req");
    net::NetResponse response =
        daemon.dispatch(request.line, request.wantAsm, local);
    std::lock_guard<std::mutex> lock(telMu);
    serverTel.merge(local);
    return response;
  };

  net::CompileServer server(config, pool, handler);
  const net::Endpoint bound = server.start();
  g_serverWakeFd = server.wakeupFd();
  std::printf("avivd: listening on %s (queue-cap %d, jobs %d)\n",
              bound.str().c_str(), config.queueCapacity, daemon.jobs);
  std::fflush(stdout);

  server.serve(&g_shutdownRequested);
  g_serverWakeFd = -1;

  const net::ServerStats stats = server.stats();
  std::printf(
      "avivd: server: %lld conns, %lld requests, %lld ok, %lld hits, "
      "%lld degraded, %lld quarantined, %lld errors, %lld shed, "
      "%lld responses, %lld dropped, %lld crash-retried\n",
      static_cast<long long>(stats.accepted),
      static_cast<long long>(stats.requests),
      static_cast<long long>(stats.ok), static_cast<long long>(stats.hits),
      static_cast<long long>(stats.degraded),
      static_cast<long long>(stats.quarantined),
      static_cast<long long>(stats.errors),
      static_cast<long long>(stats.shed),
      static_cast<long long>(stats.responses),
      static_cast<long long>(stats.droppedResponses),
      static_cast<long long>(stats.crashRetried));
  if (daemon.pool != nullptr)
    printPoolSummary(*daemon.pool, proc::PoolStats{});
  if (daemon.exec.cache != nullptr) {
    const CacheStats cs = daemon.exec.cache->stats();
    printCacheSummary(cs, CacheStats{});
    daemon.exec.cache->flushManifest();
    recordServiceStats(cs, root.child("service"));
  }
  if (!daemon.statsJson.empty())
    writeFile(daemon.statsJson, root.toJson() + "\n");
  dumpMetricsTo(daemon.metricsJson);
  dumpTraceTo(daemon.traceOut);
  std::printf("avivd: drained, exiting\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliFlags flags(argc, argv);
    const std::string listenSpec = flags.getString("listen", "");
    if (listenSpec.empty() ? flags.positional().size() != 1
                           : !flags.positional().empty())
      throw Error(
          "usage: avivd <requests.txt|-> [--cache-dir DIR] [--no-cache] "
          "[--mem-entries N] [--jobs N] [--repeat N] [--expect-all-hits] "
          "[--default-timeout SEC] [--retries N] [--failpoints SPEC] "
          "[--failpoint-seed N] "
          "[--verify off|sampled|all] [--quarantine-dir DIR] "
          "[--print-asm] [--stats-json out.json] [--trace-out out.json] "
          "[--metrics-json out.json]\n"
          "       avivd --listen <unix:PATH|HOST:PORT> [--queue-cap N] "
          "[--backend auto|epoll|poll] [--drain-timeout-ms N] "
          "[common options]\n"
          "       common: --isolate-workers N [--worker-deadline-ms N] "
          "[--worker-rss-mb N] [--worker-cpu-s N] [--crash-dir DIR] "
          "[--crash-loop-k N] — compile in supervised, crash-isolated "
          "worker processes");
    DaemonConfig daemon;
    const std::string cacheDir = flags.getString("cache-dir", "");
    const bool noCache = flags.getBool("no-cache", false);
    const auto memEntries =
        static_cast<size_t>(flags.getInt("mem-entries", 1024));
    daemon.jobs = static_cast<int>(flags.getInt("jobs", 1));
    const int repeat = static_cast<int>(flags.getInt("repeat", 1));
    const bool expectAllHits = flags.getBool("expect-all-hits", false);
    daemon.defaults.timeoutSeconds = flags.getDouble("default-timeout", 0.0);
    daemon.exec.retries = static_cast<int>(flags.getInt("retries", 2));
    const std::string verifyMode = flags.getString("verify", "off");
    if (verifyMode == "sampled") {
      daemon.defaults.verify.level = VerifyLevel::kSampled;
    } else if (verifyMode == "all") {
      daemon.defaults.verify.level = VerifyLevel::kAll;
    } else if (verifyMode != "off") {
      throw Error("--verify expects off|sampled|all, got '" + verifyMode +
                  "'");
    }
    daemon.defaults.verify.quarantineDir =
        flags.getString("quarantine-dir", "");
    const std::string failpoints = flags.getString("failpoints", "");
    const auto failpointSeed =
        static_cast<uint64_t>(flags.getInt("failpoint-seed", 0));
    const bool printAsm = flags.getBool("print-asm", false);
    daemon.statsJson = flags.getString("stats-json", "");
    daemon.traceOut = flags.getString("trace-out", "");
    daemon.metricsJson = flags.getString("metrics-json", "");
    const int queueCap = static_cast<int>(flags.getInt("queue-cap", 256));
    const std::string backendName = flags.getString("backend", "auto");
    const int drainTimeoutMs =
        static_cast<int>(flags.getInt("drain-timeout-ms", 0));
    const int isolateWorkers =
        static_cast<int>(flags.getInt("isolate-workers", 0));
    const int workerDeadlineMs =
        static_cast<int>(flags.getInt("worker-deadline-ms", 30000));
    const auto workerRssMb =
        static_cast<uint64_t>(flags.getInt("worker-rss-mb", 0));
    const auto workerCpuS =
        static_cast<uint64_t>(flags.getInt("worker-cpu-s", 0));
    const std::string crashDir = flags.getString("crash-dir", "");
    const int crashLoopK = static_cast<int>(flags.getInt("crash-loop-k", 3));
    flags.finish();
    if (!failpoints.empty())
      FailPoints::instance().configure(failpoints, failpointSeed);
    if (!daemon.traceOut.empty()) trace::Tracer::instance().enable();
    if (!daemon.metricsJson.empty()) metrics::Registry::instance().enable();

    std::signal(SIGINT, handleShutdownSignal);
    std::signal(SIGTERM, handleShutdownSignal);
    std::signal(SIGPIPE, SIG_IGN);

    if (!noCache) {
      CacheConfig cacheConfig;
      cacheConfig.dir = cacheDir;
      cacheConfig.memoryEntries = memEntries;
      daemon.exec.cache = std::make_shared<ResultCache>(cacheConfig);
    }

    if (isolateWorkers > 0) {
      // Crash isolation: compile in supervised worker processes. Built
      // after the cache so its startup sweep has already run — workers
      // opening the same store sweep age-gated only.
      proc::PoolConfig poolConfig;
      poolConfig.workers = isolateWorkers;
      poolConfig.hardDeadlineMs = workerDeadlineMs;
      poolConfig.crashLoopK = crashLoopK;
      poolConfig.crashDir = crashDir;
      poolConfig.env.defaults = daemon.defaults;
      poolConfig.env.cacheDir = cacheDir;
      poolConfig.env.cacheEnabled = !noCache;
      poolConfig.env.memEntries = memEntries;
      poolConfig.env.transientRetries = daemon.exec.retries;
      poolConfig.env.rssLimitBytes = workerRssMb << 20;
      poolConfig.env.cpuLimitSeconds = workerCpuS;
      if (daemon.exec.cache != nullptr) {
        // A worker SIGKILLed mid-store leaves a torn *.tmp in the shared
        // disk store; re-sweep (age-gated: live sibling writers keep
        // their in-progress temps) after every crash, not just startup.
        const std::shared_ptr<ResultCache> cache = daemon.exec.cache;
        poolConfig.onCrash = [cache] { cache->sweepStaleTemps(5.0); };
      }
      daemon.pool = std::make_shared<proc::WorkerPool>(poolConfig);
      std::printf(
          "avivd: %d isolated compile worker%s (deadline %dms, rss-cap "
          "%lluMB, cpu-cap %llus)\n",
          isolateWorkers, isolateWorkers == 1 ? "" : "s", workerDeadlineMs,
          static_cast<unsigned long long>(workerRssMb),
          static_cast<unsigned long long>(workerCpuS));
      std::fflush(stdout);
    }

    if (!listenSpec.empty())
      return runServer(daemon, listenSpec, queueCap, backendName,
                       drainTimeoutMs);
    return runBatch(daemon, flags.positional()[0], repeat, expectAllHits,
                    printAsm);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avivd: %s\n", e.what());
    return 1;
  }
}
