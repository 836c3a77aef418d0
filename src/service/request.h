// Shared request-line grammar and dispatch for the avivd front ends. One
// request — "machine=arch1 block=ex1 timeout=0.5 ..." — describes a single
// compile against the session cache. The batch-file daemon and the socket
// server (src/net, DESIGN.md §6.7) both speak this grammar, so parsing and
// execution live here, once, behind a unit-testable API, instead of inside
// examples/avivd.cpp.
//
// Grammar (whitespace-separated tokens; '#' starts a comment):
//
//   machine=<name|path.isdl> block=<name|path.blk|path.c> [heuristics=on|off]
//   [const-pool] [outputs-mem] [no-peephole] [regs=N] [timeout=SEC]
//   [verify=off|sampled|all]
//
// parseRequestLine is pure: text in, ParsedRequest or a located Diagnostic
// out (1-based line from the caller, 1-based column of the offending
// token). executeRequest runs one parsed request to completion with
// per-request isolation: every failure mode — resolve, compile, injected
// fault — lands in RequestOutcome::error; nothing escapes to kill a warm
// daemon. Transient faults re-run the whole request under the one retry
// policy (support/retry.h); a retried success appends " retries=N" to its
// status detail (crash-retried requests additionally carry " crashed=K",
// appended by the src/proc supervisor). The target machine resolves
// through a per-process memo keyed by the machine file's bytes, which are
// re-read on every request (kMachineMemoCapacity, DESIGN.md §6.3). A
// standalone block's cache hit is served by the digest a second memo keeps
// per block file, again keyed by bytes re-read on every request, so it
// never parses the block (kBlockMemoCapacity), and its listing is rendered
// straight from the shared cache entry, without a copy of the image.
// toResponse maps an outcome onto the wire's typed answer, and
// serveRequestLine chains all three — the one dispatch every avivd path
// (batch, server, isolated worker) runs.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "driver/codegen.h"
#include "net/frame.h"
#include "support/error.h"
#include "support/telemetry.h"

namespace aviv {

class ResultCache;  // src/service/cache.h

// Distinct resolved machines one process keeps for its requests (LRU;
// DESIGN.md §6.3). A constant, not a setting: a deployment serves a handful
// of machine files (perfbench sends 11).
inline constexpr size_t kMachineMemoCapacity = 32;
// Distinct block files (spec + bytes) whose digest one process keeps, so a
// warm hit on a standalone block skips the parse (LRU; DESIGN.md §6.3).
// The default --mem-entries: a working set the result cache's memory tier
// holds is one the memo holds too.
inline constexpr size_t kBlockMemoCapacity = 1024;

struct ParsedRequest {
  int line = 0;  // 1-based line number in the batch (0 = network request)
  std::string machineSpec;
  std::string blockSpec;
  int regsOverride = 0;  // > 0: resize every register file
  DriverOptions options;
};

// Per-session defaults a request line can override with its own tokens.
struct RequestDefaults {
  double timeoutSeconds = 0.0;  // covering budget; 0 = unlimited
  VerifyOptions verify;
};

// Outcome of parseRequestLine: exactly one of `request` (ok() == true) or
// `diagnostic` is meaningful. The diagnostic's SourceLoc carries the
// caller's 1-based line number and the 1-based column of the token that
// failed, so batch mode can report "request line 7: ..." and tests can
// assert locations directly.
struct RequestParse {
  std::shared_ptr<const ParsedRequest> request;
  Diagnostic diagnostic;

  [[nodiscard]] bool ok() const { return request != nullptr; }
};

[[nodiscard]] RequestParse parseRequestLine(std::string_view text, int line,
                                            const RequestDefaults& defaults);

struct RequestOutcome {
  bool ok = false;
  bool degraded = false;  // ok, but at least one block fell back to baseline
  // ok, but verification caught a miscompile in at least one block (the
  // result is the verified baseline; a repro artifact was quarantined).
  bool quarantined = false;
  std::string error;
  std::string statusDetail;  // "block=... machine=... blocks=N instrs=N cache=..."
  std::string asmText;       // filled when RequestExecConfig::wantAsm
  size_t blocks = 0;
  size_t cachedBlocks = 0;

  // True when every compiled block was served from the result cache.
  [[nodiscard]] bool allCached() const {
    return blocks > 0 && cachedBlocks == blocks;
  }
};

struct RequestExecConfig {
  std::shared_ptr<ResultCache> cache;  // null disables caching
  bool wantAsm = false;
};

// Runs one request start to finish; never throws. Telemetry from the
// compile merges into `tel` (callers hand each concurrent request a
// disjoint node — TelemetryNode is not thread-safe).
[[nodiscard]] RequestOutcome executeRequest(const ParsedRequest& request,
                                            const RequestExecConfig& config,
                                            TelemetryNode& tel);

// The one outcome -> frame-type mapping: kError (detail = the error), else
// kQuarantined (beats degraded), kDegraded, kHit (every block cached),
// kOk (at least one block compiled cold). body = the assembly text, moved
// out of the outcome (callers hand over a temporary).
[[nodiscard]] net::NetResponse toResponse(RequestOutcome outcome);

// parseRequestLine (line 0: not a line of a file) -> executeRequest ->
// toResponse. A malformed line answers kError carrying the parse
// diagnostic's message. Never throws.
[[nodiscard]] net::NetResponse serveRequestLine(
    std::string_view line, const RequestDefaults& defaults,
    const RequestExecConfig& exec, TelemetryNode& tel);

}  // namespace aviv
