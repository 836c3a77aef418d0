// In-process replay of served requests, split into layers. The replayer
// runs one request line through the same public functions, in the same
// order, as the avivd request path (service/request.cpp ->
// driver/codegen.cpp -> core/codegen.cpp), with codegen's
// outputs-to-memory retry and the covering winner tie-break mirrored, and
// times each call as a span. Nothing inside src/ is instrumented: spans
// wrap calls from the outside, and counts come from the stats structs the
// calls return.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/cache.h"

namespace avivbench {

enum class Layer : uint8_t {
  kRequest,  // root span of one replayed request
  kRequestParse,
  kIsdlParse,
  kIsdlDatabases,
  kIrParse,
  kFingerprint,
  kCacheLookup,
  kCacheStore,
  kSplitNode,
  kExplore,
  kMaterialize,
  kCover,
  kPeephole,
  kAlloc,
  kEncode,
  kRebind,
  kVerify,
  kAsmText,
  kPoolExecute,  // WorkerPool::execute (IPC measurement)
  kInProcess,    // executeRequest for the same line (IPC measurement)
  kCount,
};

[[nodiscard]] const char* layerName(Layer layer);

struct SpanRecord {
  Layer layer = Layer::kRequest;
  int32_t parent = -1;  // index into the span list; -1 for a root
  uint32_t request = 0;
  int64_t startNs = 0;
  int64_t endNs = 0;
};

// Deterministic work counts, summed over replayed requests.
struct ReplayCounts {
  uint64_t sndNodes = 0;
  uint64_t exploreStates = 0;
  uint64_t cliqueRecursions = 0;
  uint64_t candidatesEvaluated = 0;
  uint64_t assignmentsCovered = 0;  // candidate coverings that completed
  uint64_t blocksCovered = 0;       // covering winners
  uint64_t spills = 0;              // spills in the winning coverings
  uint64_t verifyVectors = 0;
};

struct ReplayOutcome {
  bool ok = false;
  std::string error;
  std::string asmText;  // what avivd returns as the response body
  int instrs = 0;       // what avivd reports as instrs=
  bool hit = false;     // every block served from the replay cache
  // The covering flow left the mirrored path (deadline, internal error,
  // resource ceiling); the result came from executeRequest instead.
  bool degraded = false;
  // Every block of the result passed verifyCompiledBlock at kAll against
  // the reference interpreter (checked outside any span).
  bool verified = false;
};

class Replayer {
 public:
  // `caches` mirrors the daemon's result caches: one shared cache for an
  // in-process daemon, one per worker for --isolate-workers.
  Replayer(bool traced, std::vector<std::shared_ptr<aviv::ResultCache>> caches);
  ~Replayer();

  // Replays one request line against caches[cacheIndex].
  ReplayOutcome run(const std::string& line, uint32_t request,
                    size_t cacheIndex);

  // Mean per-request wall time of WorkerPool::execute minus executeRequest
  // over warm repeats of `lines` (one isolated worker, in-process cache).
  double measureIpcMicros(const std::vector<std::string>& lines,
                          const std::string& cacheDir, uint32_t firstRequest);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const;
  [[nodiscard]] const ReplayCounts& counts() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Per-layer self time (span minus its children), summed in microseconds
// and indexed by Layer.
[[nodiscard]] std::vector<double> selfMicros(
    const std::vector<SpanRecord>& spans);

// Writes spans as tab-separated "request layer parent start_ns end_ns".
void writeSpans(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace avivbench
