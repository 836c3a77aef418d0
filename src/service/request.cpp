#include "service/request.h"

#include <cctype>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "frontend/minic.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/cache.h"
#include "service/fingerprint.h"
#include "support/failpoint.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/retry.h"
#include "support/strings.h"

namespace aviv {

namespace {

// One small LRU memo behind one mutex: the request path's per-process
// memos (DESIGN.md §6.3). The critical section is a map lookup and a value
// copy; the work a miss pays for runs outside it. Values are immutable once
// inserted, and only successful work is inserted, so a broken file is
// re-read and re-diagnosed on every request until it is fixed. Each memo
// counts its hits, misses and evictions under its own metric names.
template <typename Key, typename Value>
class LruMemo {
 public:
  struct CounterNames {
    const char* hits;
    const char* misses;
    const char* evictions;
  };

  LruMemo(size_t capacity, CounterNames names)
      : capacity_(capacity), names_(names) {}

  std::optional<Value> find(const Key& key) {
    std::optional<Value> found;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = index_.find(key);
      if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.use);
        found = it->second.value;
      }
    }
    count(found.has_value() ? names_.hits : names_.misses);
    return found;
  }

  // Inserts `value` under `key` and returns it, or, when a racing miss
  // inserted first, returns that entry (built from the same bytes, so
  // equal).
  Value insert(const Key& key, Value value) {
    bool evicted = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto [it, inserted] = index_.try_emplace(key, Slot{value, {}});
      if (!inserted) return it->second.value;
      lru_.push_front(&it->first);
      it->second.use = lru_.begin();
      if (lru_.size() > capacity_) {
        index_.erase(index_.find(*lru_.back()));
        lru_.pop_back();
        evicted = true;
      }
    }
    if (evicted) count(names_.evictions);
    return value;
  }

 private:
  // Each key is stored once, in its map node; the recency list points at
  // it (map nodes never move).
  using Lru = std::list<const Key*>;
  struct Slot {
    Value value;
    typename Lru::iterator use;
  };

  static void count(const char* name) {
    if (metrics::on()) metrics::Registry::instance().counter(name).add(1);
  }

  const size_t capacity_;
  const CounterNames names_;
  std::mutex mu_;
  Lru lru_;  // most recently used first
  std::map<Key, Slot> index_;
};

// The process's resolved machines: (contentHash of the machine file's
// bytes, regs override, machine spec) -> one shared, immutable
// ResolvedMachine, so parse, validation, the databases and the machine
// fingerprint run once per distinct file instead of once per request. The
// hash comes first, so a map compare settles before the spec strings.
struct MachineKey {
  Hash128 fileHash;
  int regsOverride = 0;
  std::string spec;

  auto operator<=>(const MachineKey&) const = default;
};
using MachineMemo = LruMemo<MachineKey, std::shared_ptr<const ResolvedMachine>>;

MachineMemo& machineMemo() {
  static MachineMemo memo(
      kMachineMemoCapacity,
      {"service.machineMemoHits", "service.machineMemoMisses",
       "service.machineMemoEvictions"});
  return memo;
}

// The process's parsed blocks, reduced to what a cache hit needs:
// (contentHash of the block file's bytes, block spec) -> the block's
// fingerprintDag digest and name. Only single-block programs are inserted;
// the memo holds no Program, DAG or token.
struct BlockKey {
  Hash128 fileHash;
  std::string spec;

  auto operator<=>(const BlockKey&) const = default;
};
struct BlockDigest {
  Hash128 dag;
  std::string name;
};
using BlockMemo = LruMemo<BlockKey, BlockDigest>;

BlockMemo& blockMemo() {
  static BlockMemo memo(kBlockMemoCapacity,
                        {"service.blockMemoHits", "service.blockMemoMisses",
                         "service.blockMemoEvictions"});
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
  const MachineKey key{contentHash(text), request.regsOverride, spec};
  MachineMemo& memo = machineMemo();
  if (auto hit = memo.find(key)) return *hit;
  Machine machine =
      isPath ? parseMachine(text) : parseMachine(text, spec + ".isdl");
  if (request.regsOverride > 0)
    machine = machine.withRegisterCount(request.regsOverride);
  return memo.insert(
      key, std::make_shared<const ResolvedMachine>(std::move(machine)));
}

// The request's block file: the path it names, its bytes (read on every
// request, so an edit is never served from the memo) and the memo key.
struct BlockFile {
  std::string path;
  std::string text;
  BlockKey key;
};

BlockFile readBlockFile(const std::string& spec) {
  const bool isPath = endsWith(spec, ".c") || endsWith(spec, ".blk");
  BlockFile file;
  file.path = isPath ? spec : blockPath(spec);
  file.text = readFile(file.path);
  file.key = {contentHash(file.text), spec};
  return file;
}

Program parseBlockFile(const BlockFile& file) {
  trace::Span span("service", "block.parse:", file.key.spec);
  if (endsWith(file.path, ".c")) return parseMiniC(file.text).program;
  return parseProgram(file.text, file.path);
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
  const BlockFile file = readBlockFile(request.blockSpec);
  std::optional<Program> program;  // parsed at most once, only when needed
  auto parsed = [&]() -> const Program& {
    if (!program) program = parseBlockFile(file);
    return *program;
  };
  // A standalone block is looked up in the result cache by its digest
  // first: from the memo without parsing, or from the parse on a memo
  // miss. Without a cache there is nothing to look up.
  std::optional<BlockDigest> digest;
  if (config.cache != nullptr) {
    digest = blockMemo().find(file.key);
    if (!digest && parsed().numBlocks() == 1) {
      const BlockDag& ir = parsed().block(0);
      digest = blockMemo().insert(file.key, {fingerprintDag(ir), ir.name()});
    }
  }
  DriverOptions options = request.options;
  options.cache = config.cache;
  CodeGenerator generator(resolved, options);

  SymbolTable symbols;
  CacheProbe probe;
  std::optional<CachedBlock> hit;
  if (digest)
    hit = generator.compileCachedBlock(digest->name, digest->dag, symbols,
                                       probe);
  std::optional<CompiledBlock> single;
  if (!hit && parsed().numBlocks() == 1)
    single = generator.compileBlock(parsed().block(0), symbols, &probe);

  int instrs = 0;
  std::string asmText;
  auto appendListing = [&](const CodeImage& image,
                           const std::vector<int>* symbolAddrs) {
    if (!config.wantAsm) return;
    image.appendAsmText(asmText, machine, symbolAddrs);
    asmText += '\n';
  };
  auto addBlock = [&](const CompiledBlock& block) {
    ++result.blocks;
    if (block.fromCache) ++result.cachedBlocks;
    if (block.degraded) result.degraded = true;
    if (block.quarantined) result.quarantined = true;
    appendListing(block.image, nullptr);
  };
  if (hit) {
    // Rendered from the shared cache entry, without a copy of its image.
    instrs = hit->entry->image.numInstructions();
    result.blocks = 1;
    result.cachedBlocks = 1;
    appendListing(hit->entry->image, &hit->symbolAddrs);
  } else if (single) {
    instrs = single->numInstructions();
    addBlock(*single);
  } else {
    const CompiledProgram compiled = generator.compileProgram(parsed());
    instrs = compiled.totalInstructions();
    for (const CompiledBlock& block : compiled.blocks) addBlock(block);
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
  request.options.verify = defaults.verify;
  // heuristics= picks the base covering configuration; the other covering
  // tokens apply on top of it after the loop, whatever their order.
  bool heuristicsOff = false;
  double timeout = defaults.timeoutSeconds;
  bool constantsInMemory = false;
  bool outputsToMemory = false;

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
      heuristicsOff = value == "off";
    } else if (key == "timeout") {
      try {
        timeout = std::stod(value);
      } catch (const std::exception&) {
        return fail(token.column, "timeout expects seconds, got '" + value +
                                      "'");
      }
      if (timeout < 0)
        return fail(token.column, "timeout must be >= 0, got '" + value + "'");
    } else if (key == "const-pool") {
      constantsInMemory = true;
    } else if (key == "outputs-mem") {
      outputsToMemory = true;
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
  CodegenOptions& core = request.options.core;
  core = heuristicsOff ? CodegenOptions::heuristicsOff() : CodegenOptions{};
  core.timeLimitSeconds = timeout;
  core.constantsInMemory = constantsInMemory;
  core.outputsToMemory = outputsToMemory;
  core.jobs = 1;  // daemon parallelism is across requests
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

net::NetResponse toResponse(RequestOutcome outcome) {
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
  response.body = std::move(outcome.asmText);
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
