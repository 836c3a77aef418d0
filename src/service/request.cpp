#include "service/request.h"

#include <cctype>
#include <list>
#include <map>
#include <mutex>
#include <vector>

#include "frontend/minic.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "obs/metrics.h"
#include "service/cache.h"
#include "support/failpoint.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/retry.h"
#include "support/strings.h"

namespace aviv {

namespace {

// The process's resolved machines (DESIGN.md §6.3): (machine spec, regs
// override, hash of the machine file's bytes) -> one shared, immutable
// ResolvedMachine, so parse, validation, the databases and the machine
// fingerprint run once per distinct file instead of once per request. LRU
// over kMachineMemoCapacity entries behind one mutex; the critical section
// is a map lookup and a shared_ptr copy, resolving runs outside it. Only
// successful resolves are inserted, so a broken file is re-read and
// re-diagnosed on every request until it is fixed.
class MachineMemo {
 public:
  struct Key {
    std::string spec;
    int regsOverride = 0;
    Hash128 fileHash;

    auto operator<=>(const Key&) const = default;
  };

  std::shared_ptr<const ResolvedMachine> find(const Key& key) {
    std::shared_ptr<const ResolvedMachine> found;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = index_.find(key);
      if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        found = it->second->second;
      }
    }
    count(found != nullptr ? "service.machineMemoHits"
                           : "service.machineMemoMisses");
    return found;
  }

  // Inserts `machine` under `key` and returns it, or, when a racing miss
  // inserted first, returns that entry (built from the same bytes, so
  // equal).
  std::shared_ptr<const ResolvedMachine> insert(
      const Key& key, std::shared_ptr<const ResolvedMachine> machine) {
    bool evicted = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = index_.find(key);
      if (it != index_.end()) return it->second->second;
      lru_.emplace_front(key, machine);
      index_.emplace(key, lru_.begin());
      if (lru_.size() > kMachineMemoCapacity) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        evicted = true;
      }
    }
    if (evicted) count("service.machineMemoEvictions");
    return machine;
  }

 private:
  using Lru =
      std::list<std::pair<Key, std::shared_ptr<const ResolvedMachine>>>;

  static void count(const char* name) {
    if (metrics::on()) metrics::Registry::instance().counter(name).add(1);
  }

  std::mutex mu_;
  Lru lru_;  // most recently used first
  std::map<Key, Lru::iterator> index_;
};

MachineMemo& machineMemo() {
  static MachineMemo memo;
  return memo;
}

// The request's machine, from the memo or resolved now. The file is read
// and hashed on every request, so an edited file is never served from the
// memo. A miss parses with the source names loadMachine / parseMachine give
// their diagnostics; the parser validates, and the regs override stays
// within the validated limits, so every failure is the parser's, raised
// before the block is read, as it always was.
std::shared_ptr<const ResolvedMachine> resolveMachine(
    const ParsedRequest& request) {
  const std::string& spec = request.machineSpec;
  const bool isPath = endsWith(spec, ".isdl");
  const std::string text = readFile(isPath ? spec : machinePath(spec));
  const MachineMemo::Key key{spec, request.regsOverride,
                             Hasher().str(text).digest()};
  MachineMemo& memo = machineMemo();
  if (auto hit = memo.find(key)) return hit;
  Machine machine =
      isPath ? parseMachine(text) : parseMachine(text, spec + ".isdl");
  if (request.regsOverride > 0)
    machine = machine.withRegisterCount(request.regsOverride);
  return memo.insert(
      key, std::make_shared<const ResolvedMachine>(std::move(machine)));
}

Program resolveProgram(const std::string& spec) {
  if (endsWith(spec, ".c")) return parseMiniC(readFile(spec)).program;
  if (endsWith(spec, ".blk")) return parseProgram(readFile(spec), spec);
  const std::string path = blockPath(spec);
  return parseProgram(readFile(path), path);
}

// One whitespace-separated token plus the 1-based column it starts at.
struct Token {
  std::string text;
  uint32_t column = 1;
};

RequestOutcome runOnce(const ParsedRequest& request,
                       const RequestExecConfig& config, TelemetryNode& tel) {
  RequestOutcome result;
  // Fault-injection site standing in for any transient dispatch failure
  // (worker wedged, resource briefly unavailable). Fires before compile
  // work so the retry loop re-runs the whole request.
  FailPoints::instance().maybeThrow("avivd-dispatch");
  const std::shared_ptr<const ResolvedMachine> resolved =
      resolveMachine(request);
  const Machine& machine = resolved->machine;
  const Program program = resolveProgram(request.blockSpec);
  DriverOptions options = request.options;
  options.cache = config.cache;
  CodeGenerator generator(resolved, options);

  int instrs = 0;
  std::string asmText;
  if (program.numBlocks() > 1) {
    const CompiledProgram compiled = generator.compileProgram(program);
    instrs = compiled.totalInstructions();
    result.blocks = compiled.blocks.size();
    for (const CompiledBlock& block : compiled.blocks) {
      if (block.fromCache) ++result.cachedBlocks;
      if (block.degraded) result.degraded = true;
      if (block.quarantined) result.quarantined = true;
      if (config.wantAsm) asmText += block.image.asmText(machine) + "\n";
    }
  } else {
    SymbolTable symbols;
    const CompiledBlock block =
        generator.compileBlock(program.block(0), symbols);
    instrs = block.numInstructions();
    result.blocks = 1;
    if (block.fromCache) ++result.cachedBlocks;
    if (block.degraded) result.degraded = true;
    if (block.quarantined) result.quarantined = true;
    if (config.wantAsm) asmText = block.image.asmText(machine) + "\n";
  }
  tel.merge(generator.telemetry());

  const char* cacheState =
      config.cache == nullptr                ? "off"
      : result.cachedBlocks == result.blocks ? "hit"
      : result.cachedBlocks == 0             ? "miss"
                                             : "partial";
  result.ok = true;
  result.asmText = std::move(asmText);
  result.statusDetail = "block=" + request.blockSpec +
                        " machine=" + machine.name() +
                        " blocks=" + std::to_string(result.blocks) +
                        " instrs=" + std::to_string(instrs) +
                        " cache=" + cacheState;
  return result;
}

}  // namespace

RequestParse parseRequestLine(std::string_view text, int line,
                              const RequestDefaults& defaults) {
  RequestParse parse;
  auto fail = [&](uint32_t column, const std::string& message) {
    parse.request = nullptr;
    parse.diagnostic.loc = SourceLoc{static_cast<uint32_t>(line), column};
    parse.diagnostic.message = message;
    return parse;
  };

  ParsedRequest request;
  request.line = line;
  request.options.core = CodegenOptions::heuristicsOn();
  request.options.core.timeLimitSeconds = defaults.timeoutSeconds;
  request.options.verify = defaults.verify;

  // Hand-rolled tokenizer so every diagnostic can carry the 1-based column
  // of the token it rejects.
  std::vector<Token> tokens;
  for (size_t i = 0; i < text.size();) {
    if (std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
      continue;
    }
    const size_t start = i;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) == 0)
      ++i;
    Token token;
    token.text = std::string(text.substr(start, i - start));
    token.column = static_cast<uint32_t>(start + 1);
    if (token.text[0] == '#') break;  // comment: ignore the rest of the line
    tokens.push_back(std::move(token));
  }

  for (const Token& token : tokens) {
    const size_t eq = token.text.find('=');
    const std::string key = token.text.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : token.text.substr(eq + 1);
    if (key == "machine") {
      request.machineSpec = value;
    } else if (key == "block") {
      request.blockSpec = value;
    } else if (key == "heuristics") {
      if (value != "on" && value != "off")
        return fail(token.column,
                    "heuristics expects on|off, got '" + value + "'");
      const int jobs = request.options.core.jobs;
      const double timeout = request.options.core.timeLimitSeconds;
      request.options.core = value == "off" ? CodegenOptions::heuristicsOff()
                                            : CodegenOptions::heuristicsOn();
      request.options.core.jobs = jobs;
      request.options.core.timeLimitSeconds = timeout;
    } else if (key == "timeout") {
      try {
        request.options.core.timeLimitSeconds = std::stod(value);
      } catch (const std::exception&) {
        return fail(token.column, "timeout expects seconds, got '" + value +
                                      "'");
      }
      if (request.options.core.timeLimitSeconds < 0)
        return fail(token.column, "timeout must be >= 0, got '" + value + "'");
    } else if (key == "const-pool") {
      request.options.core.constantsInMemory = true;
    } else if (key == "outputs-mem") {
      request.options.core.outputsToMemory = true;
    } else if (key == "no-peephole") {
      request.options.runPeephole = false;
    } else if (key == "verify") {
      if (value == "off") {
        request.options.verify.level = VerifyLevel::kOff;
      } else if (value == "sampled") {
        request.options.verify.level = VerifyLevel::kSampled;
      } else if (value == "all") {
        request.options.verify.level = VerifyLevel::kAll;
      } else {
        return fail(token.column,
                    "verify expects off|sampled|all, got '" + value + "'");
      }
    } else if (key == "regs") {
      try {
        request.regsOverride = std::stoi(value);
      } catch (const std::exception&) {
        return fail(token.column,
                    "regs expects an integer, got '" + value + "'");
      }
      if (request.regsOverride < 1 || request.regsOverride > 4096)
        return fail(token.column,
                    "regs must be in [1, 4096], got '" + value + "'");
    } else {
      return fail(token.column, "unknown request token '" + token.text + "'");
    }
  }
  if (request.machineSpec.empty() || request.blockSpec.empty())
    return fail(1, "request needs machine=... and block=...");
  request.options.core.jobs = 1;  // daemon parallelism is across requests
  parse.request = std::make_shared<const ParsedRequest>(std::move(request));
  return parse;
}

RequestOutcome executeRequest(const ParsedRequest& request,
                              const RequestExecConfig& config,
                              TelemetryNode& tel) {
  int retries = 0;
  try {
    RequestOutcome outcome = retryTransient(
        [&] { return runOnce(request, config, tel); },
        [&] {
          ++retries;
          tel.addCounter("dispatchRetries", 1);
        });
    if (retries > 0)
      outcome.statusDetail += " retries=" + std::to_string(retries);
    return outcome;
  } catch (const std::exception& e) {
    RequestOutcome failed;
    failed.error = e.what();
    return failed;
  }
}

net::NetResponse toResponse(const RequestOutcome& outcome) {
  net::NetResponse response;
  if (!outcome.ok) {
    response.detail = outcome.error;
    return response;
  }
  response.type = outcome.quarantined   ? net::FrameType::kQuarantined
                  : outcome.degraded    ? net::FrameType::kDegraded
                  : outcome.allCached() ? net::FrameType::kHit
                                        : net::FrameType::kOk;
  response.detail = outcome.statusDetail;
  response.body = outcome.asmText;
  return response;
}

net::NetResponse serveRequestLine(std::string_view line,
                                  const RequestDefaults& defaults,
                                  const RequestExecConfig& exec,
                                  TelemetryNode& tel) {
  const RequestParse parse = parseRequestLine(line, 0, defaults);
  if (!parse.ok()) {
    net::NetResponse response;
    response.detail = parse.diagnostic.message;
    return response;
  }
  return toResponse(executeRequest(*parse.request, exec, tel));
}

}  // namespace aviv
