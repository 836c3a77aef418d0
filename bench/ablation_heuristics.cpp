// Ablation study over AVIV's heuristics (our extension of Section VI's
// "heuristics can be turned off" discussion):
//   1. assignment pruning on/off and prune slack,
//   2. number of assignments explored in detail (keep-best),
//   3. clique level-window width,
//   4. covering lookahead on/off,
//   5. register-aware assignment cost (the paper's "ongoing work").
// Reports code size and CPU time per configuration across the benchmark
// blocks on arch1.
#include <cstdio>

#include "bench_common.h"

namespace {

using namespace aviv;
using namespace aviv::bench;

struct Config {
  std::string name;
  CodegenOptions options;
};

void runSweep(const std::string& title, const std::vector<Config>& configs,
              int regs = 4) {
  std::printf("%s\n", title.c_str());
  std::vector<std::string> headers = {"Configuration"};
  const std::vector<std::string> blocks = {"ex1", "ex2", "ex3", "ex4", "ex5"};
  for (const std::string& block : blocks) headers.push_back(block);
  headers.push_back("total time (s)");
  TextTable table(headers);

  const Machine machine = loadMachine("arch1").withRegisterCount(regs);
  const MachineDatabases dbs(machine);
  for (const Config& config : configs) {
    std::vector<std::string> row = {config.name};
    double total = 0;
    for (const std::string& block : blocks) {
      const BlockDag dag = loadBlock(block);
      WallTimer timer;
      const CoreResult result = coverBlock(dag, machine, dbs, config.options);
      total += timer.seconds();
      std::string cell = std::to_string(result.schedule.numInstructions());
      if (result.stats.cover.spillsInserted > 0)
        cell += "+" + std::to_string(result.stats.cover.spillsInserted) + "sp";
      row.push_back(cell);
    }
    row.push_back(formatFixed(total, 3));
    table.addRow(std::move(row));
  }
  std::printf("%s\n", table.str().c_str());
}

}  // namespace

int main() {
  try {
    std::printf("Ablation — AVIV heuristic knobs (code size per block; "
                "arch1, 4 regs unless noted)\n\n");

    {
      std::vector<Config> configs;
      Config pruned{"prune=min (paper)", CodegenOptions{}};
      Config slack1{"prune=min+1", CodegenOptions{}};
      slack1.options.assignPruneSlack = 1.0;
      Config off{"prune off (exhaustive)", CodegenOptions::heuristicsOff()};
      configs.push_back(pruned);
      configs.push_back(slack1);
      configs.push_back(off);
      runSweep("(1) Assignment-search pruning", configs);
    }
    {
      std::vector<Config> configs;
      for (int keep : {1, 4, 16}) {
        Config c{"keep-best=" + std::to_string(keep), CodegenOptions{}};
        c.options.assignKeepBest = keep;
        configs.push_back(c);
      }
      runSweep("(2) Assignments explored in detail", configs);
    }
    {
      std::vector<Config> configs;
      for (int window : {0, 1, 2, 4, -1}) {
        Config c{window < 0 ? "level window off"
                            : "level window=" + std::to_string(window),
                 CodegenOptions{}};
        c.options.cliqueLevelWindow = window;
        configs.push_back(c);
      }
      runSweep("(3) Clique level-window heuristic (Section IV-C.2)", configs);
    }
    {
      std::vector<Config> configs;
      Config on{"lookahead on (paper)", CodegenOptions{}};
      Config off{"lookahead off", CodegenOptions{}};
      off.options.coverLookahead = false;
      configs.push_back(on);
      configs.push_back(off);
      runSweep("(4) Covering tie-break lookahead (Section IV-D)", configs);
    }
    {
      std::vector<Config> configs;
      Config off{"register-blind (paper)", CodegenOptions{}};
      Config on{"register-aware (paper's ongoing work)", CodegenOptions{}};
      on.options.registerAwareAssignment = true;
      configs.push_back(off);
      configs.push_back(on);
      runSweep("(5) Register-aware assignment cost, 2 regs per file "
               "(spills shown as +Nsp)",
               configs, /*regs=*/2);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_heuristics: %s\n", e.what());
    return 1;
  }
}
