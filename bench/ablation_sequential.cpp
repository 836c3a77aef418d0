// Concurrent vs phase-ordered code generation — the paper's central
// argument ("decisions made in one phase have a profound effect on the
// other phases"). Compares AVIV's concurrent covering against the
// phase-ordered sequential baseline (local instruction selection, then list
// scheduling, then spills) on every block x machine combination, plus the
// exact optimum where the search completes.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace aviv;
  using namespace aviv::bench;
  try {
    std::printf("Concurrent (AVIV) vs phase-ordered (sequential baseline) "
                "code size (native register counts)\n\n");
    TextTable table({"Machine", "Block", "AVIV", "Sequential", "Optimal",
                     "Sequential penalty"});
    double avivTotal = 0;
    double seqTotal = 0;
    for (const char* machineName : {"arch1", "arch2", "arch4", "dsp16"}) {
      const Machine machine = loadMachine(machineName);
      const MachineDatabases dbs(machine);
      for (const char* block : {"ex1", "ex2", "ex3", "ex4", "ex5"}) {
        const BlockDag dag = loadBlock(block);
        const CoreResult aviv = coverBlock(dag, machine, dbs, CodegenOptions{});
        std::string seqCell = "infeasible";
        int seqInstr = -1;
        try {
          const BaselineResult seq =
              sequentialCodegen(dag, machine, dbs, CodegenOptions{});
          seqInstr = seq.schedule.numInstructions();
          seqCell = std::to_string(seqInstr);
          if (seq.spillsInserted > 0)
            seqCell += "+" + std::to_string(seq.spillsInserted) + "sp";
        } catch (const Error&) {
        }
        OptimalOptions optimalOptions;
        optimalOptions.incumbent = aviv.schedule.numInstructions();
        optimalOptions.timeLimitSeconds = 60;
        const OptimalResult optimal =
            optimalCodeSize(dag, machine, dbs, optimalOptions);
        std::string optimalCell =
            optimal.instructions < 0 ? "n/a"
                                     : std::to_string(optimal.instructions);
        if (!optimal.proven) optimalCell += "*";

        std::string penalty = "n/a";
        if (seqInstr > 0) {
          avivTotal += aviv.schedule.numInstructions();
          seqTotal += seqInstr;
          const double pct = 100.0 *
                             (seqInstr - aviv.schedule.numInstructions()) /
                             aviv.schedule.numInstructions();
          penalty = (pct >= 0 ? "+" : "") + formatFixed(pct, 0) + "%";
        }
        table.addRow({machineName, block,
                      std::to_string(aviv.schedule.numInstructions()),
                      seqCell, optimalCell, penalty});
      }
    }
    std::printf("%s", table.str().c_str());
    if (avivTotal > 0) {
      std::printf("\nAggregate: sequential emits %.1f%% more instructions "
                  "than AVIV across the suite.\n",
                  100.0 * (seqTotal - avivTotal) / avivTotal);
    }
    std::printf("(* = optimal search hit its time limit; spills shown as "
                "+Nsp)\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_sequential: %s\n", e.what());
    return 1;
  }
}
