// Shared helpers for the experiment-reproduction benches (Tables I/II,
// Figures 2-9, ablations).
#pragma once

#include <cstdio>
#include <string>

#include "baseline/optimal.h"
#include "baseline/sequential.h"
#include "core/codegen.h"
#include "driver/codegen.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/timer.h"

namespace aviv::bench {

// One Table I / Table II row.
struct TableRow {
  std::string label;        // Ex1..Ex7
  std::string block;        // underlying .blk name
  int regsPerFile = 4;

  size_t irNodes = 0;
  size_t sndNodes = 0;
  int spills = 0;
  int optimalInstr = -1;    // "By Hand" stand-in (exact search)
  bool optimalProven = false;
  int avivInstr = 0;        // heuristics on (full driver incl. peephole)
  double avivSeconds = 0;
  int hoffInstr = -1;       // heuristics off (parenthesized column)
  double hoffSeconds = 0;
  bool hoffTimedOut = false;
};

// Runs one experiment row: AVIV with heuristics, optionally heuristics-off,
// and the exact optimal search primed with AVIV's result. `jobs` > 1 covers
// candidate assignments on a thread pool (bit-identical results). When
// `telemetryOut` is given, each run's phase-telemetry subtree is merged into
// it under "<label>" / "<label>-heur-off" (serialize with toJson for
// --stats-json).
inline TableRow runTableRow(const std::string& label, const std::string& block,
                            const Machine& machineTemplate, int regs,
                            bool runHeuristicsOff, double hoffTimeLimit,
                            double optimalTimeLimit, int jobs = 1,
                            TelemetryNode* telemetryOut = nullptr) {
  TableRow row;
  row.label = label;
  row.block = block;
  row.regsPerFile = regs;

  const BlockDag dag = loadBlock(block);
  const Machine machine = machineTemplate.withRegisterCount(regs);
  const MachineDatabases dbs(machine);

  // Heuristics on: the full pipeline (incl. peephole), like the paper's
  // main column.
  {
    DriverOptions options;
    options.core.jobs = jobs;
    CodeGenerator generator(machine, options);
    WallTimer timer;
    const CompiledBlock compiled = generator.compileBlock(dag);
    row.avivSeconds = timer.seconds();
    row.avivInstr = compiled.numInstructions();
    const CoreStats& stats = compiled.core.stats;
    row.irNodes = stats.irNodes;
    row.sndNodes = stats.sndNodes;
    row.spills = stats.cover.spillsInserted;
    if (telemetryOut != nullptr)
      telemetryOut->child(label).merge(
          *generator.telemetry().findChild("block:" + dag.name()));
  }

  // Heuristics off (exhaustive assignment enumeration, no level window).
  if (runHeuristicsOff) {
    DriverOptions options;
    options.core = CodegenOptions::heuristicsOff();
    options.core.timeLimitSeconds = hoffTimeLimit;
    options.core.jobs = jobs;
    CodeGenerator generator(machine, options);
    WallTimer timer;
    const CompiledBlock compiled = generator.compileBlock(dag);
    row.hoffSeconds = timer.seconds();
    row.hoffInstr = compiled.numInstructions();
    row.hoffTimedOut = compiled.core.stats.timedOut;
    if (telemetryOut != nullptr) {
      const TelemetryNode* blockTel =
          generator.telemetry().findChild("block:" + dag.name());
      telemetryOut->child(label + "-heur-off").merge(*blockTel);
    }
  }

  // "By Hand" column: exact optimal search primed with AVIV's result.
  {
    OptimalOptions options;
    options.incumbent = row.hoffInstr > 0
                            ? std::min(row.avivInstr, row.hoffInstr)
                            : row.avivInstr;
    options.timeLimitSeconds = optimalTimeLimit;
    const OptimalResult result = optimalCodeSize(dag, machine, dbs, options);
    row.optimalInstr = result.instructions;
    row.optimalProven = result.proven;
  }
  return row;
}

inline void printTable(const std::string& title,
                       const std::vector<TableRow>& rows, bool withHoff) {
  std::printf("%s\n", title.c_str());
  TextTable table({"Basic Block", "Original DAG #Nodes",
                   "Split-Node DAG #Nodes", "#Registers per RegFile",
                   "#Spills Inserted", "#Instr Optimal (\"By Hand\")",
                   withHoff ? "#Instr Aviv (heur-off)" : "#Instr Aviv",
                   withHoff ? "CPU Time secs (heur-off)" : "CPU Time secs"});
  for (const TableRow& row : rows) {
    std::string optimal = row.optimalInstr < 0
                              ? "n/a"
                              : std::to_string(row.optimalInstr);
    if (!row.optimalProven) optimal += "*";
    std::string instr = std::to_string(row.avivInstr);
    std::string time = formatFixed(row.avivSeconds, 3);
    if (withHoff && row.hoffInstr >= 0) {
      instr += " (" + std::to_string(row.hoffInstr) +
               (row.hoffTimedOut ? "^" : "") + ")";
      time += " (" + formatFixed(row.hoffSeconds, 1) + ")";
    }
    table.addRow({row.label, std::to_string(row.irNodes),
                  std::to_string(row.sndNodes),
                  std::to_string(row.regsPerFile),
                  std::to_string(row.spills), optimal, instr, time});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "Legend: parentheses = heuristics turned off; * = optimal search hit "
      "its time limit (best found shown); ^ = heuristics-off hit its time "
      "limit.\n\n");
}

}  // namespace aviv::bench
