// Unit tests for the shared avivd request grammar (service/request.h):
// token semantics, defaults and overrides, and located diagnostics — every
// malformed line must report the 1-based line number it came from and the
// 1-based column of the token that failed — plus the one outcome -> typed
// response mapping (toResponse) and the serveRequestLine dispatch.
#include "service/request.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "ir/parser.h"
#include "isdl/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/cache.h"
#include "service/fingerprint.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/strings.h"
#include "support/telemetry.h"

namespace aviv {
namespace {

RequestDefaults defaults() { return RequestDefaults{}; }

TEST(Request, ParsesMinimalLine) {
  const RequestParse parse =
      parseRequestLine("machine=arch1 block=ex1", 3, defaults());
  ASSERT_TRUE(parse.ok());
  EXPECT_EQ(parse.request->line, 3);
  EXPECT_EQ(parse.request->machineSpec, "arch1");
  EXPECT_EQ(parse.request->blockSpec, "ex1");
  EXPECT_EQ(parse.request->regsOverride, 0);
  // Daemon parallelism is across requests, never within one.
  EXPECT_EQ(parse.request->options.core.jobs, 1);
}

TEST(Request, ParsesEveryToken) {
  const RequestParse parse = parseRequestLine(
      "machine=m.isdl block=b.blk heuristics=off const-pool outputs-mem "
      "no-peephole regs=16 timeout=2.5 verify=all",
      1, defaults());
  ASSERT_TRUE(parse.ok());
  const ParsedRequest& request = *parse.request;
  EXPECT_EQ(request.machineSpec, "m.isdl");
  EXPECT_EQ(request.blockSpec, "b.blk");
  EXPECT_TRUE(request.options.core.constantsInMemory);
  EXPECT_TRUE(request.options.core.outputsToMemory);
  EXPECT_FALSE(request.options.runPeephole);
  EXPECT_EQ(request.regsOverride, 16);
  EXPECT_DOUBLE_EQ(request.options.core.timeLimitSeconds, 2.5);
  EXPECT_EQ(request.options.verify.level, VerifyLevel::kAll);
}

TEST(Request, DefaultsApplyWhenTokensAbsent) {
  RequestDefaults d;
  d.timeoutSeconds = 7.0;
  d.verify.level = VerifyLevel::kSampled;
  const RequestParse parse =
      parseRequestLine("machine=arch1 block=ex1", 1, d);
  ASSERT_TRUE(parse.ok());
  EXPECT_DOUBLE_EQ(parse.request->options.core.timeLimitSeconds, 7.0);
  EXPECT_EQ(parse.request->options.verify.level, VerifyLevel::kSampled);
}

TEST(Request, TokensOverrideDefaults) {
  RequestDefaults d;
  d.timeoutSeconds = 7.0;
  d.verify.level = VerifyLevel::kAll;
  const RequestParse parse = parseRequestLine(
      "machine=arch1 block=ex1 timeout=0.25 verify=off", 1, d);
  ASSERT_TRUE(parse.ok());
  EXPECT_DOUBLE_EQ(parse.request->options.core.timeLimitSeconds, 0.25);
  EXPECT_EQ(parse.request->options.verify.level, VerifyLevel::kOff);
}

TEST(Request, TimeoutSurvivesHeuristicsToken) {
  // heuristics= picks the base CodegenOptions; timeout= and jobs must
  // survive regardless of token order.
  const RequestParse parse = parseRequestLine(
      "machine=arch1 block=ex1 timeout=1.5 heuristics=off", 1, defaults());
  ASSERT_TRUE(parse.ok());
  EXPECT_DOUBLE_EQ(parse.request->options.core.timeLimitSeconds, 1.5);
  EXPECT_EQ(parse.request->options.core.jobs, 1);
}

TEST(Request, HeuristicsOnIsTheStructDefault) {
  // "Heuristics on" exists once: a request without the token and one with
  // heuristics=on both key like CodegenOptions{} with the session timeout.
  RequestDefaults d;
  d.timeoutSeconds = 3.0;
  CodegenOptions expected;
  expected.timeLimitSeconds = 3.0;
  const Hash128 want = fingerprintOptions(expected, true, true);
  auto keyOf = [&](const char* line) {
    const RequestParse parse = parseRequestLine(line, 1, d);
    if (!parse.ok()) {
      ADD_FAILURE() << line << ": " << parse.diagnostic.message;
      return Hash128{};
    }
    return fingerprintOptions(parse.request->options.core, true, true);
  };
  EXPECT_EQ(keyOf("machine=arch1 block=ex1"), want);
  EXPECT_EQ(keyOf("machine=arch1 block=ex1 heuristics=on"), want);
  EXPECT_NE(keyOf("machine=arch1 block=ex1 heuristics=off"), want);
}

TEST(Request, HeuristicsTokenOrderDoesNotMatter) {
  // An option token before heuristics= must not be dropped: both orders
  // key and compile the same (outputs-mem changes ex2/arch1's code size).
  auto fields = [](const CodegenOptions& options) {
    std::vector<std::string> out;
    options.forEachFingerprintField([&](const char* name, auto value) {
      out.push_back(std::string(name) + "=" + std::to_string(value));
    });
    return out;
  };
  auto instrs = [](const ParsedRequest& request) {
    TelemetryNode tel("test");
    const RequestOutcome outcome =
        executeRequest(request, RequestExecConfig{}, tel);
    EXPECT_TRUE(outcome.ok) << outcome.error;
    const size_t at = outcome.statusDetail.find(" instrs=");
    EXPECT_NE(at, std::string::npos) << outcome.statusDetail;
    return outcome.statusDetail.substr(
        at, outcome.statusDetail.find(' ', at + 1) - at);
  };
  for (const char* heuristics : {"heuristics=off", "heuristics=on"}) {
    const std::string base = "machine=arch1 block=ex2 ";
    const RequestParse before = parseRequestLine(
        base + "outputs-mem const-pool " + heuristics, 1, defaults());
    const RequestParse after = parseRequestLine(
        base + heuristics + " outputs-mem const-pool", 1, defaults());
    ASSERT_TRUE(before.ok()) << before.diagnostic.message;
    ASSERT_TRUE(after.ok()) << after.diagnostic.message;
    EXPECT_TRUE(before.request->options.core.outputsToMemory) << heuristics;
    EXPECT_TRUE(before.request->options.core.constantsInMemory) << heuristics;
    EXPECT_EQ(fields(before.request->options.core),
              fields(after.request->options.core))
        << heuristics;
    EXPECT_EQ(instrs(*before.request), instrs(*after.request)) << heuristics;
  }
}

TEST(Request, CommentsAndTrailingTokensIgnored) {
  const RequestParse parse = parseRequestLine(
      "machine=arch1 block=ex1 # regs=999 nonsense after comment", 1,
      defaults());
  ASSERT_TRUE(parse.ok());
  EXPECT_EQ(parse.request->regsOverride, 0);
}

TEST(Request, UnknownTokenReportsLineAndColumn) {
  //                         1-based column of "bogus=1": 25
  const RequestParse parse = parseRequestLine(
      "machine=arch1 block=ex1 bogus=1", 7, defaults());
  ASSERT_FALSE(parse.ok());
  EXPECT_EQ(parse.diagnostic.loc.line, 7u);
  EXPECT_EQ(parse.diagnostic.loc.column, 25u);
  EXPECT_NE(parse.diagnostic.message.find("unknown request token 'bogus=1'"),
            std::string::npos);
}

TEST(Request, MissingMachineOrBlockFails) {
  const RequestParse noBlock =
      parseRequestLine("machine=arch1", 2, defaults());
  ASSERT_FALSE(noBlock.ok());
  EXPECT_EQ(noBlock.diagnostic.loc.line, 2u);
  EXPECT_NE(noBlock.diagnostic.message.find("machine=... and block=..."),
            std::string::npos);
  EXPECT_FALSE(parseRequestLine("block=ex1", 1, defaults()).ok());
  EXPECT_FALSE(parseRequestLine("", 1, defaults()).ok());
}

TEST(Request, MalformedTimeoutLocated) {
  const RequestParse bad = parseRequestLine(
      "machine=arch1 block=ex1 timeout=fast", 4, defaults());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.diagnostic.loc.line, 4u);
  EXPECT_EQ(bad.diagnostic.loc.column, 25u);
  EXPECT_NE(bad.diagnostic.message.find("timeout expects seconds"),
            std::string::npos);
  const RequestParse negative = parseRequestLine(
      "machine=arch1 block=ex1 timeout=-1", 4, defaults());
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.diagnostic.message.find("timeout must be >= 0"),
            std::string::npos);
}

TEST(Request, MalformedVerifyAndHeuristicsAndRegs) {
  EXPECT_FALSE(parseRequestLine("machine=a block=b verify=maybe", 1,
                                defaults())
                   .ok());
  EXPECT_FALSE(parseRequestLine("machine=a block=b heuristics=fast", 1,
                                defaults())
                   .ok());
  EXPECT_FALSE(
      parseRequestLine("machine=a block=b regs=many", 1, defaults()).ok());
  const RequestParse outOfRange =
      parseRequestLine("machine=a block=b regs=9999", 1, defaults());
  ASSERT_FALSE(outOfRange.ok());
  EXPECT_NE(outOfRange.diagnostic.message.find("[1, 4096]"),
            std::string::npos);
}

TEST(Request, LeadingWhitespaceShiftsColumns) {
  const RequestParse parse =
      parseRequestLine("   machine=arch1 junk", 1, defaults());
  ASSERT_FALSE(parse.ok());
  EXPECT_EQ(parse.diagnostic.loc.column, 18u);  // "junk" starts at column 18
}

TEST(Request, ExecuteCompilesAndReportsCacheState) {
  const RequestParse parse =
      parseRequestLine("machine=arch1 block=ex1", 1, defaults());
  ASSERT_TRUE(parse.ok());
  RequestExecConfig config;  // no cache
  TelemetryNode tel("test");
  const RequestOutcome outcome =
      executeRequest(*parse.request, config, tel);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(outcome.blocks, 1u);
  EXPECT_EQ(outcome.cachedBlocks, 0u);
  EXPECT_FALSE(outcome.allCached());
  EXPECT_NE(outcome.statusDetail.find("cache=off"), std::string::npos);
  EXPECT_TRUE(outcome.asmText.empty());  // wantAsm defaults off
}

TEST(Request, ExecuteWantAsmProducesAssembly) {
  const RequestParse parse =
      parseRequestLine("machine=arch1 block=ex1", 1, defaults());
  ASSERT_TRUE(parse.ok());
  RequestExecConfig config;
  config.wantAsm = true;
  TelemetryNode tel("test");
  const RequestOutcome outcome =
      executeRequest(*parse.request, config, tel);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_FALSE(outcome.asmText.empty());
}

TEST(Request, ExecuteIsolatesFailuresIntoOutcome) {
  const RequestParse parse =
      parseRequestLine("machine=no_such_machine block=ex1", 1, defaults());
  ASSERT_TRUE(parse.ok());  // resolution happens at execute time
  RequestExecConfig config;
  TelemetryNode tel("test");
  const RequestOutcome outcome =
      executeRequest(*parse.request, config, tel);
  EXPECT_FALSE(outcome.ok);
  EXPECT_FALSE(outcome.error.empty());
}

// The whole-request dispatch runs under the shared transient-retry policy
// (support/retry.h): two injected dispatch faults are retried to success
// and reported; a third consecutive fault is the request's error.
TEST(Request, TransientDispatchFaultsAreRetriedThenReported) {
  const RequestParse parse =
      parseRequestLine("machine=arch1 block=ex1", 1, defaults());
  ASSERT_TRUE(parse.ok());
  RequestExecConfig config;

  FailPoints::instance().configure("avivd-dispatch:1:2");
  TelemetryNode retried("test");
  const RequestOutcome ok = executeRequest(*parse.request, config, retried);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_NE(ok.statusDetail.find(" retries=2"), std::string::npos)
      << ok.statusDetail;
  EXPECT_EQ(retried.counter("dispatchRetries"), 2);

  FailPoints::instance().configure("avivd-dispatch:1:3");
  TelemetryNode exhausted("test");
  const RequestOutcome failed =
      executeRequest(*parse.request, config, exhausted);
  FailPoints::instance().clear();
  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("avivd-dispatch"), std::string::npos)
      << failed.error;
  EXPECT_EQ(exhausted.counter("dispatchRetries"), 2);
}

// A successful outcome over `blocks` blocks, `cached` of them from cache.
RequestOutcome compiled(size_t blocks, size_t cached) {
  RequestOutcome outcome;
  outcome.ok = true;
  outcome.blocks = blocks;
  outcome.cachedBlocks = cached;
  outcome.statusDetail = "block=ex1 machine=arch1";
  outcome.asmText = "  nop\n";
  return outcome;
}

TEST(Request, ToResponseErrorCarriesTheMessage) {
  RequestOutcome outcome;
  outcome.error = "no such machine";
  outcome.asmText = "stale";
  const net::NetResponse response = toResponse(outcome);
  EXPECT_EQ(response.type, net::FrameType::kError);
  EXPECT_EQ(response.detail, "no such machine");
  EXPECT_TRUE(response.body.empty());
  EXPECT_EQ(response.crashRetries, 0);
}

TEST(Request, ToResponseQuarantineBeatsDegraded) {
  RequestOutcome outcome = compiled(1, 0);
  outcome.degraded = true;
  outcome.quarantined = true;
  EXPECT_EQ(toResponse(outcome).type, net::FrameType::kQuarantined);
}

TEST(Request, ToResponseDegraded) {
  RequestOutcome outcome = compiled(1, 1);  // degraded beats cached
  outcome.degraded = true;
  EXPECT_EQ(toResponse(outcome).type, net::FrameType::kDegraded);
}

TEST(Request, ToResponseAllBlocksCachedIsHit) {
  EXPECT_EQ(toResponse(compiled(3, 3)).type, net::FrameType::kHit);
}

TEST(Request, ToResponseAnyColdBlockIsOkAndCarriesTheAssembly) {
  const RequestOutcome outcome = compiled(1, 0);
  const net::NetResponse response = toResponse(outcome);
  EXPECT_EQ(response.type, net::FrameType::kOk);
  EXPECT_EQ(response.detail, outcome.statusDetail);
  EXPECT_EQ(response.body, outcome.asmText);
  EXPECT_EQ(toResponse(compiled(3, 2)).type, net::FrameType::kOk);
}

TEST(Request, ServeRequestLineAnswersMalformedLineWithTheDiagnostic) {
  RequestExecConfig config;
  TelemetryNode tel("test");
  const net::NetResponse response = serveRequestLine(
      "machine=arch1 block=ex1 bogus=1", defaults(), config, tel);
  EXPECT_EQ(response.type, net::FrameType::kError);
  EXPECT_NE(response.detail.find("unknown request token 'bogus=1'"),
            std::string::npos)
      << response.detail;
}

TEST(Request, ServeRequestLineCompilesColdWithoutACache) {
  RequestExecConfig config;
  config.wantAsm = true;
  TelemetryNode tel("test");
  const net::NetResponse response =
      serveRequestLine("machine=arch1 block=ex1", defaults(), config, tel);
  EXPECT_EQ(response.type, net::FrameType::kOk) << response.detail;
  EXPECT_NE(response.detail.find("cache=off"), std::string::npos);
  EXPECT_FALSE(response.body.empty());
}

// --- the per-process machine memo -------------------------------------

namespace fs = std::filesystem;

// A scratch directory for machine files, removed with the test.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (fs::temp_directory_path() /
             ("aviv_request_test_" + std::to_string(::getpid()) + "_" + tag +
              "_" + std::to_string(++counter)))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  // Writes `text` to <dir>/<name> and returns its path.
  [[nodiscard]] std::string write(const std::string& name,
                                  const std::string& text) const {
    const std::string path = path_ + "/" + name;
    writeFile(path, text);
    return path;
  }

 private:
  std::string path_;
};

// Turns the metrics registry on for one test and restores it afterwards.
class MetricsOn {
 public:
  MetricsOn() : was_(metrics::on()) { metrics::Registry::instance().enable(); }
  ~MetricsOn() {
    if (!was_) metrics::Registry::instance().disable();
  }

 private:
  bool was_;
};

int64_t memoCount(const char* name) {
  return metrics::Registry::instance().counter(name).value();
}

std::string replaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  for (size_t pos = 0; (pos = text.find(from, pos)) != std::string::npos;
       pos += to.size())
    text.replace(pos, from.size(), to);
  return text;
}

net::NetResponse serveAsm(const std::string& line,
                          const std::shared_ptr<ResultCache>& cache = {},
                          const RequestDefaults& lineDefaults = defaults(),
                          TelemetryNode* telOut = nullptr) {
  RequestExecConfig config;
  config.cache = cache;
  config.wantAsm = true;
  TelemetryNode tel("test");
  return serveRequestLine(line, lineDefaults, config,
                          telOut != nullptr ? *telOut : tel);
}

// The memo keys on the file's bytes, which every request re-reads: an edit
// between two requests in one process is served, never the old machine.
TEST(Request, MachineMemoServesAnEditedMachineFile) {
  const TempDir dir("edit");
  const std::string arch2 = readFile(machinePath("arch2"));
  const std::string path = dir.write("m.isdl", arch2);
  const std::string line = "machine=" + path + " block=ex1";

  const net::NetResponse before = serveAsm(line);
  ASSERT_EQ(before.type, net::FrameType::kOk) << before.detail;
  EXPECT_NE(before.body.find("RF2.r0"), std::string::npos) << before.body;

  const std::string renamed = replaceAll(arch2, "RF2", "RX2");
  (void)dir.write("m.isdl", renamed);
  const net::NetResponse after = serveAsm(line);
  ASSERT_EQ(after.type, net::FrameType::kOk) << after.detail;
  EXPECT_EQ(after.body.find("RF2"), std::string::npos) << after.body;
  EXPECT_EQ(after.body, replaceAll(before.body, "RF2", "RX2"));
  // The same bytes under another path resolve to the same output.
  EXPECT_EQ(after.body,
            serveAsm("machine=" + dir.write("copy.isdl", renamed) +
                     " block=ex1")
                .body);
}

TEST(Request, MachineMemoKeepsRegsOverrideSeparate) {
  const MetricsOn metricsOn;
  const net::NetResponse plain = serveAsm("machine=arch2 block=ex1");
  const net::NetResponse two = serveAsm("machine=arch2 block=ex1 regs=2");
  ASSERT_EQ(plain.type, net::FrameType::kOk) << plain.detail;
  ASSERT_EQ(two.type, net::FrameType::kOk) << two.detail;
  EXPECT_NE(plain.body, two.body);

  // Both are resolved now: a second round is two memo hits, same bytes.
  const int64_t hits = memoCount("service.machineMemoHits");
  const int64_t misses = memoCount("service.machineMemoMisses");
  EXPECT_EQ(serveAsm("machine=arch2 block=ex1 regs=2").body, two.body);
  EXPECT_EQ(serveAsm("machine=arch2 block=ex1").body, plain.body);
  EXPECT_EQ(memoCount("service.machineMemoHits") - hits, 2);
  EXPECT_EQ(memoCount("service.machineMemoMisses") - misses, 0);
}

// A resolve that throws is never memoized, and answers with exactly the
// message the parser or validator produced for those bytes.
TEST(Request, MachineMemoNeverKeepsAFailedResolve) {
  const TempDir dir("broken");
  const std::string arch2 = readFile(machinePath("arch2"));
  const std::string path = dir.write("m.isdl", "machine Broken { regfile }");
  const std::string line = "machine=" + path + " block=ex1";

  std::string parseMessage;
  try {
    (void)parseMachine(readFile(path));
  } catch (const Error& e) {
    parseMessage = e.what();
  }
  ASSERT_FALSE(parseMessage.empty());
  const net::NetResponse unparsable = serveAsm(line);
  EXPECT_EQ(unparsable.type, net::FrameType::kError);
  EXPECT_EQ(unparsable.detail, parseMessage);

  // Parses, but fails validation (the covering engine needs latency 1).
  (void)dir.write("m.isdl", replaceAll(arch2, "op MUL \"mul\";",
                                       "op MUL \"mul\" latency 2;"));
  std::string validateMessage;
  try {
    (void)CodeGenerator(parseMachine(readFile(path)));
  } catch (const Error& e) {
    validateMessage = e.what();
  }
  ASSERT_FALSE(validateMessage.empty());
  for (int attempt = 0; attempt < 2; ++attempt) {
    const net::NetResponse invalid = serveAsm(line);
    EXPECT_EQ(invalid.type, net::FrameType::kError);
    EXPECT_EQ(invalid.detail, validateMessage);
  }

  (void)dir.write("m.isdl", arch2);
  const net::NetResponse fixed = serveAsm(line);
  EXPECT_EQ(fixed.type, net::FrameType::kOk) << fixed.detail;
  EXPECT_EQ(fixed.body, serveAsm("machine=arch2 block=ex1").body);
}

TEST(Request, MachineMemoConcurrentHitsAreByteIdentical) {
  CacheConfig cacheConfig;
  const auto cache = std::make_shared<ResultCache>(cacheConfig);
  const std::string line = "machine=arch1 block=fig2";
  const net::NetResponse cold = serveAsm(line, cache);
  ASSERT_EQ(cold.type, net::FrameType::kOk) << cold.detail;

  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::vector<std::vector<net::NetResponse>> answers(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r)
        answers[static_cast<size_t>(t)].push_back(serveAsm(line, cache));
    });
  for (std::thread& thread : threads) thread.join();
  for (const auto& perThread : answers)
    for (const net::NetResponse& answer : perThread) {
      EXPECT_EQ(answer.type, net::FrameType::kHit) << answer.detail;
      EXPECT_EQ(answer.body, cold.body);
    }
}

TEST(Request, MachineMemoEvictsPastCapacityAndStillServesCorrectly) {
  const MetricsOn metricsOn;
  const TempDir dir("evict");
  const std::string arch2 = readFile(machinePath("arch2"));
  // Distinct bytes per file; the machine name lands in the listing header.
  std::vector<std::string> lines;
  for (size_t i = 0; i < kMachineMemoCapacity + 2; ++i) {
    const std::string name = "Arch2v" + std::to_string(i);
    lines.push_back("machine=" +
                    dir.write(name + ".isdl",
                              replaceAll(arch2, "machine Arch2",
                                         "machine " + name)) +
                    " block=ex1");
  }
  const int64_t evictions = memoCount("service.machineMemoEvictions");
  std::vector<std::string> bodies;
  for (const std::string& line : lines) {
    const net::NetResponse answer = serveAsm(line);
    ASSERT_EQ(answer.type, net::FrameType::kOk) << answer.detail;
    bodies.push_back(answer.body);
  }
  EXPECT_GE(memoCount("service.machineMemoEvictions") - evictions, 2);

  // The oldest entries were evicted: they resolve again, to the same code.
  const int64_t misses = memoCount("service.machineMemoMisses");
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(serveAsm(lines[i]).body, bodies[i]);
    EXPECT_NE(bodies[i].find("Arch2v" + std::to_string(i) + " "),
              std::string::npos);
  }
  EXPECT_EQ(memoCount("service.machineMemoMisses") - misses, 2);
}

// --- the per-process block memo ---------------------------------------

std::shared_ptr<ResultCache> memoryCache() {
  return std::make_shared<ResultCache>(CacheConfig{});
}

// Runs `serve` with the tracer recording and returns the exported trace.
std::string traceOf(const std::function<void()>& serve) {
  trace::Tracer& tracer = trace::Tracer::instance();
  const bool was = trace::on();
  tracer.enable();
  tracer.clear();
  serve();
  const std::string json = tracer.exportJson();
  if (!was) tracer.disable();
  tracer.clear();
  return json;
}

// The request path's one parse site spans every block parse it runs.
bool parsesBlock(const std::string& traceJson) {
  return traceJson.find("block.parse:") != std::string::npos;
}

// A memo hit on a standalone block is served by its digest: no parse, the
// hit's telemetry only, and the bytes the parsed path produces.
TEST(Request, BlockMemoHitServesWithoutParsing) {
  const MetricsOn metricsOn;
  const auto cache = memoryCache();
  const std::string line = "machine=arch3 block=ex4";
  const net::NetResponse parsedPath = serveAsm(line);  // no cache
  ASSERT_EQ(parsedPath.type, net::FrameType::kOk) << parsedPath.detail;

  net::NetResponse cold;
  EXPECT_TRUE(parsesBlock(traceOf([&] { cold = serveAsm(line, cache); })));
  ASSERT_EQ(cold.type, net::FrameType::kOk) << cold.detail;

  const int64_t hits = memoCount("service.blockMemoHits");
  const int64_t lookups = cache->stats().lookups;
  net::NetResponse warm;
  TelemetryNode tel("test");
  const std::string warmTrace =
      traceOf([&] { warm = serveAsm(line, cache, defaults(), &tel); });
  EXPECT_FALSE(parsesBlock(warmTrace)) << warmTrace;
  EXPECT_NE(warmTrace.find("cache.hit:ex4"), std::string::npos);
  EXPECT_EQ(memoCount("service.blockMemoHits") - hits, 1);
  EXPECT_EQ(cache->stats().lookups - lookups, 1);
  ASSERT_EQ(warm.type, net::FrameType::kHit) << warm.detail;
  EXPECT_EQ(warm.body, parsedPath.body);
  EXPECT_EQ(warm.body, cold.body);
  ASSERT_EQ(tel.children().size(), 1u);
  const TelemetryNode* block = tel.findChild("block:ex4");
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->counter("cacheHits"), 1);
  EXPECT_TRUE(block->children().empty());
}

// The memo keys on the file's bytes, which every request re-reads: an
// edited block is compiled and served, never the old block's entry.
TEST(Request, BlockMemoServesAnEditedBlockFile) {
  const TempDir dir("block-edit");
  const auto cache = memoryCache();
  const std::string ex1 = readFile(blockPath("ex1"));
  const std::string line = "machine=arch1 block=" + dir.write("b.blk", ex1);
  const net::NetResponse before = serveAsm(line, cache);
  ASSERT_EQ(before.type, net::FrameType::kOk) << before.detail;
  EXPECT_EQ(serveAsm(line, cache).type, net::FrameType::kHit);

  const std::string edited = replaceAll(ex1, "(d + t) - b", "(d + t) - a");
  ASSERT_NE(edited, ex1);
  (void)dir.write("b.blk", edited);
  const net::NetResponse after = serveAsm(line, cache);
  ASSERT_EQ(after.type, net::FrameType::kOk) << after.detail;
  EXPECT_NE(after.body, before.body);
  EXPECT_EQ(after.body,
            serveAsm("machine=arch1 block=" + dir.write("copy.blk", edited))
                .body);
  EXPECT_EQ(serveAsm(line, cache).body, after.body);
}

// The memo key covers every byte, the last (in the hash's tail word)
// included: a file whose only edit is its final byte misses the memo and
// is parsed again. The edit leaves the DAG as it was, so the result cache
// still hits.
TEST(Request, BlockMemoMissesWhenOnlyTheLastByteChanges) {
  const MetricsOn metricsOn;
  const TempDir dir("block-last-byte");
  const auto cache = memoryCache();
  std::string text = readFile(blockPath("ex1"));
  ASSERT_EQ(text.back(), '\n');
  const std::string line = "machine=arch1 block=" + dir.write("b.blk", text);
  const net::NetResponse cold = serveAsm(line, cache);
  ASSERT_EQ(cold.type, net::FrameType::kOk) << cold.detail;
  ASSERT_EQ(serveAsm(line, cache).type, net::FrameType::kHit);

  text.back() = ' ';
  (void)dir.write("b.blk", text);
  const int64_t hits = memoCount("service.blockMemoHits");
  const int64_t misses = memoCount("service.blockMemoMisses");
  net::NetResponse edited;
  EXPECT_TRUE(parsesBlock(traceOf([&] { edited = serveAsm(line, cache); })));
  EXPECT_EQ(memoCount("service.blockMemoHits") - hits, 0);
  EXPECT_EQ(memoCount("service.blockMemoMisses") - misses, 1);
  ASSERT_EQ(edited.type, net::FrameType::kHit) << edited.detail;
  EXPECT_EQ(edited.body, cold.body);
}

// A parse that throws is never memoized, and answers with exactly the
// message the parser produced for those bytes.
TEST(Request, BlockMemoNeverKeepsAFailedParse) {
  const MetricsOn metricsOn;
  const TempDir dir("block-broken");
  const auto cache = memoryCache();
  const std::string path =
      dir.write("b.blk", "block broken {\n  input a;\n  output y;\n  y = a +;\n}\n");
  const std::string line = "machine=arch1 block=" + path;
  std::string parseMessage;
  try {
    (void)parseProgram(readFile(path), path);
  } catch (const Error& e) {
    parseMessage = e.what();
  }
  ASSERT_FALSE(parseMessage.empty());

  const int64_t hits = memoCount("service.blockMemoHits");
  const int64_t misses = memoCount("service.blockMemoMisses");
  for (int attempt = 0; attempt < 2; ++attempt) {
    const net::NetResponse answer = serveAsm(line, cache);
    EXPECT_EQ(answer.type, net::FrameType::kError);
    EXPECT_EQ(answer.detail, parseMessage);
  }
  EXPECT_EQ(memoCount("service.blockMemoHits") - hits, 0);
  EXPECT_EQ(memoCount("service.blockMemoMisses") - misses, 2);

  // Fixed, the block parses once and is memoized from then on.
  (void)dir.write("b.blk", readFile(blockPath("ex1")));
  const net::NetResponse fixed = serveAsm(line, cache);
  ASSERT_EQ(fixed.type, net::FrameType::kOk) << fixed.detail;
  EXPECT_EQ(fixed.body, serveAsm("machine=arch1 block=ex1").body);
  EXPECT_EQ(serveAsm(line, cache).type, net::FrameType::kHit);
  EXPECT_EQ(memoCount("service.blockMemoHits") - hits, 1);
}

// The memo is machine-independent: the same block on a second machine is a
// memo hit and a result-cache miss, compiled cold after one lookup.
TEST(Request, BlockMemoHitWithACacheMissCompiles) {
  const MetricsOn metricsOn;
  const auto cache = memoryCache();
  ASSERT_EQ(serveAsm("machine=arch1 block=biquad", cache).type,
            net::FrameType::kOk);
  const int64_t hits = memoCount("service.blockMemoHits");
  const int64_t lookups = cache->stats().lookups;
  const std::string line = "machine=arch4 block=biquad";
  net::NetResponse other;
  EXPECT_TRUE(parsesBlock(traceOf([&] { other = serveAsm(line, cache); })));
  ASSERT_EQ(other.type, net::FrameType::kOk) << other.detail;
  EXPECT_EQ(memoCount("service.blockMemoHits") - hits, 1);
  EXPECT_EQ(cache->stats().lookups - lookups, 1);
  EXPECT_EQ(other.body, serveAsm(line).body);
  EXPECT_EQ(serveAsm(line, cache).type, net::FrameType::kHit);
}

// A verifying line on an entry stored without the verified bit still
// verifies it (parsing the block, which the verifier needs) and upgrades
// the entry, after which the hit is served by digest alone.
TEST(Request, BlockMemoHitOnAnUnverifiedEntryVerifiesAndUpgrades) {
  const auto cache = memoryCache();
  RequestDefaults sampled;
  sampled.verify.level = VerifyLevel::kSampled;
  sampled.verify.sampleRate = 0.0;  // never drawn: stores unverified entries
  const std::string line = "machine=arch2 block=fig6";
  const net::NetResponse cold = serveAsm(line, cache, sampled);
  ASSERT_EQ(cold.type, net::FrameType::kOk) << cold.detail;
  EXPECT_EQ(serveAsm(line, cache, sampled).type, net::FrameType::kHit);

  const auto verifyRuns = [](const TelemetryNode& tel) -> int64_t {
    const TelemetryNode* block = tel.findChild("block:fig6");
    const TelemetryNode* verify =
        block == nullptr ? nullptr : block->findChild("verify");
    return verify == nullptr ? 0 : verify->counter("blocksChecked");
  };
  const int64_t lookups = cache->stats().lookups;
  TelemetryNode first("test");
  net::NetResponse upgraded;
  EXPECT_TRUE(parsesBlock(traceOf([&] {
    upgraded = serveAsm(line + " verify=all", cache, sampled, &first);
  })));
  ASSERT_EQ(upgraded.type, net::FrameType::kHit) << upgraded.detail;
  EXPECT_EQ(upgraded.body, cold.body);
  EXPECT_EQ(verifyRuns(first), 1);
  EXPECT_EQ(cache->stats().lookups - lookups, 1);

  TelemetryNode second("test");
  net::NetResponse verified;
  EXPECT_FALSE(parsesBlock(traceOf([&] {
    verified = serveAsm(line + " verify=all", cache, sampled, &second);
  })));
  ASSERT_EQ(verified.type, net::FrameType::kHit) << verified.detail;
  EXPECT_EQ(verified.body, cold.body);
  EXPECT_EQ(verifyRuns(second), 0);
}

// A program of several blocks is never memoized: every request parses it.
TEST(Request, MultiBlockProgramsAlwaysParse) {
  const MetricsOn metricsOn;
  const auto cache = memoryCache();
  const std::string line = "machine=arch1 block=" + blockDir() + "/gcd.c";
  const net::NetResponse cold = serveAsm(line, cache);
  ASSERT_EQ(cold.type, net::FrameType::kOk) << cold.detail;
  const int64_t hits = memoCount("service.blockMemoHits");
  for (int attempt = 0; attempt < 2; ++attempt) {
    net::NetResponse warm;
    EXPECT_TRUE(parsesBlock(traceOf([&] { warm = serveAsm(line, cache); })));
    EXPECT_EQ(warm.type, net::FrameType::kHit) << warm.detail;
    EXPECT_EQ(warm.body, cold.body);
  }
  EXPECT_EQ(memoCount("service.blockMemoHits") - hits, 0);
}

TEST(Request, BlockMemoConcurrentHitsAreByteIdentical) {
  const auto cache = memoryCache();
  // Two specs for the same bytes: two memo entries, one cache entry.
  const std::vector<std::string> lines = {
      "machine=arch4 block=ex5",
      "machine=arch4 block=" + blockPath("ex5")};
  const net::NetResponse cold = serveAsm(lines[0], cache);
  ASSERT_EQ(cold.type, net::FrameType::kOk) << cold.detail;

  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::vector<std::vector<net::NetResponse>> answers(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r)
        answers[static_cast<size_t>(t)].push_back(
            serveAsm(lines[static_cast<size_t>(t + r) % 2], cache));
    });
  for (std::thread& thread : threads) thread.join();
  for (const auto& perThread : answers)
    for (const net::NetResponse& answer : perThread) {
      EXPECT_EQ(answer.type, net::FrameType::kHit) << answer.detail;
      EXPECT_EQ(answer.body, cold.body);
    }
}

TEST(Request, BlockMemoEvictsPastCapacityAndStillServesCorrectly) {
  const MetricsOn metricsOn;
  const TempDir dir("block-evict");
  const auto cache = memoryCache();
  const std::string ex1 = readFile(blockPath("ex1"));
  // Two distinct blocks (the block name lands in the listing header) ...
  std::vector<std::string> lines;
  std::vector<std::string> bodies;
  for (int i = 0; i < 2; ++i) {
    const std::string name = "ex1v" + std::to_string(i);
    lines.push_back(
        "machine=arch1 block=" +
        dir.write(name + ".blk", replaceAll(ex1, "block ex1", "block " + name)));
    const net::NetResponse answer = serveAsm(lines.back(), cache);
    ASSERT_EQ(answer.type, net::FrameType::kOk) << answer.detail;
    EXPECT_NE(answer.body.find(name), std::string::npos);
    bodies.push_back(answer.body);
  }
  // ... then a full memo of newer keys: one file under distinct specs.
  const int64_t evictions = memoCount("service.blockMemoEvictions");
  (void)dir.write("filler.blk", ex1);
  std::string prefix = dir.path() + "/";
  for (size_t i = 0; i < kBlockMemoCapacity; ++i, prefix += "./")
    ASSERT_NE(serveAsm("machine=arch1 block=" + prefix + "filler.blk", cache)
                  .type,
              net::FrameType::kError);
  EXPECT_GE(memoCount("service.blockMemoEvictions") - evictions, 2);

  // The two blocks were evicted: they parse again, to the same code.
  const int64_t misses = memoCount("service.blockMemoMisses");
  for (size_t i = 0; i < 2; ++i) {
    const net::NetResponse again = serveAsm(lines[i], cache);
    EXPECT_EQ(again.type, net::FrameType::kHit) << again.detail;
    EXPECT_EQ(again.body, bodies[i]);
  }
  EXPECT_EQ(memoCount("service.blockMemoMisses") - misses, 2);
}

// A block spec naming a directory is a read failure, not an empty block.
TEST(Request, DirectoryBlockSpecAnswersAnErrorNamingThePath) {
  const TempDir dir("block-dir");
  const std::string path = dir.path() + "/x.blk";
  fs::create_directories(path);
  for (const auto& cache : {std::shared_ptr<ResultCache>(), memoryCache()}) {
    const net::NetResponse answer =
        serveAsm("machine=arch1 block=" + path, cache);
    EXPECT_EQ(answer.type, net::FrameType::kError);
    EXPECT_EQ(answer.detail, "cannot read file: " + path);
  }
}

}  // namespace
}  // namespace aviv
