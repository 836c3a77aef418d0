// Unit tests for the shared avivd request grammar (service/request.h):
// token semantics, defaults and overrides, and located diagnostics — every
// malformed line must report the 1-based line number it came from and the
// 1-based column of the token that failed — plus the one outcome -> typed
// response mapping (toResponse) and the serveRequestLine dispatch.
#include "service/request.h"

#include <gtest/gtest.h>

#include <string>

#include "support/failpoint.h"
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
  // heuristics= swaps the whole CodegenOptions struct; timeout= and jobs
  // must survive regardless of token order.
  const RequestParse parse = parseRequestLine(
      "machine=arch1 block=ex1 timeout=1.5 heuristics=off", 1, defaults());
  ASSERT_TRUE(parse.ok());
  EXPECT_DOUBLE_EQ(parse.request->options.core.timeLimitSeconds, 1.5);
  EXPECT_EQ(parse.request->options.core.jobs, 1);
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

}  // namespace
}  // namespace aviv
