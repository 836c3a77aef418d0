#include "service/request.h"

#include <cctype>
#include <chrono>
#include <thread>
#include <vector>

#include "frontend/minic.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "service/cache.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/strings.h"

namespace aviv {

namespace {

Machine resolveMachine(const std::string& spec) {
  if (endsWith(spec, ".isdl")) return parseMachine(readFile(spec));
  return loadMachine(spec);
}

Program resolveProgram(const std::string& spec) {
  if (endsWith(spec, ".c")) return parseMiniC(readFile(spec)).program;
  if (endsWith(spec, ".blk")) return parseProgram(readFile(spec), spec);
  const std::string path = blockPath(spec);
  return parseProgram(readFile(path), path);
}

Machine materializeMachine(const ParsedRequest& request) {
  Machine machine = resolveMachine(request.machineSpec);
  if (request.regsOverride > 0)
    machine = machine.withRegisterCount(request.regsOverride);
  return machine;
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
  const Machine machine = materializeMachine(request);
  const Program program = resolveProgram(request.blockSpec);
  DriverOptions options = request.options;
  options.cache = config.cache;
  CodeGenerator generator(machine, options);

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
  RequestOutcome result;
  for (int attempt = 0;; ++attempt) {
    try {
      RequestOutcome outcome = runOnce(request, config, tel);
      outcome.retries = attempt;
      if (attempt > 0)
        outcome.statusDetail += " retries=" + std::to_string(attempt);
      return outcome;
    } catch (const TransientError& e) {
      if (attempt >= config.retries) {
        result.error = e.what();
        result.retries = attempt;
        return result;
      }
      tel.addCounter("dispatchRetries", 1);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          1.0 * static_cast<double>(1 << attempt)));
    } catch (const std::exception& e) {
      result.error = e.what();
      result.retries = attempt;
      return result;
    }
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
