// Seeded workload construction for avivbench. A workload is a list of
// distinct request lines (the files they name are written under a scratch
// directory and passed by absolute path) plus the order the client sends
// them in. Everything is a pure function of (workload name, seed, seconds),
// independent of the compiler: the same arguments always produce
// byte-identical inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace avivbench {

struct Workload {
  std::string name;
  // Distinct request lines; a request is identified by its index here.
  std::vector<std::string> lines;
  // Lines sent untimed after set-up (cache pre-warming), by index.
  std::vector<int> warm;
  // Timed send order, by index. A closed loop without `cycle` sends it
  // once; with `cycle` it wraps around until the time budget is spent. An
  // open loop sends entry i at t0 + i / rate.
  std::vector<int> sequence;
  bool openLoop = false;
  bool cycle = false;
  int depth = 1;      // closed loop: requests in flight per connection
  double rate = 0.0;  // open loop: offered requests per second
  // avivd --isolate-workers (0: compile in the daemon's own threads). An
  // isolated daemon also gets a private --cache-dir.
  int isolateWorkers = 0;
  // avivd --mem-entries: result-cache memory tier, per process.
  int memEntries = 1024;
  // Fixed (not generated) lines: the shipped kernels and programs.
  std::vector<int> fixedLines;
};

// Builds the named workload ("cold-gen", "warm-hits", "isolated-mixed").
// `root` is the repository checkout (machines/, blocks/), `scratch` an
// existing empty directory the generated block files are written into.
// Throws on an unknown name.
[[nodiscard]] Workload buildWorkload(const std::string& name, uint64_t seed,
                                     int seconds, const std::string& root,
                                     const std::string& scratch);

// One block of the generated-block pool: its infeasible.txt key
// ("<machine> <ops> <index>") and a request line for it.
struct PoolBlock {
  std::string key;
  std::string line;
};

// Writes every block of the generated-block pool under `scratch` (about
// 110,000 files) and returns them, for re-deriving infeasible.txt.
[[nodiscard]] std::vector<PoolBlock> writePool(const std::string& root,
                                               const std::string& scratch);

}  // namespace avivbench
