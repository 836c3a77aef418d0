// Exact search-work budget: for every shipped block × shipped machine, the
// covering search's deterministic work counters (clique recursions, clique
// ∩ ready sets scored, candidates covered to completion, candidates cut by
// the bound — totals over all candidates) must equal tests/golden/
// work_budget.txt. The counters are jobs-invariant and free of wall-clock
// noise, so any change that makes the search do more (or less) work fails
// here; an intended change regenerates the file (see tests/golden/README).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/codegen.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "obs/metrics.h"

namespace aviv {
namespace {

namespace fs = std::filesystem;

// Reads the search totals from the metrics registry, which coverBlock
// feeds with every candidate's clique recursions and scored sets.
std::string budgetLine(const std::string& block, const std::string& machine) {
  const Machine m = loadMachine(machine);
  const MachineDatabases dbs(m);
  auto& registry = metrics::Registry::instance();
  registry.reset();
  std::ostringstream line;
  line << block << ' ' << machine;
  try {
    const CoreResult result = coverBlock(loadBlock(block), m, dbs,
                                         CodegenOptions::heuristicsOn());
    line << " cliqueRecursions="
         << registry.counter("search.cliqueRecursions").value()
         << " candidatesEvaluated="
         << registry.counter("search.candidatesEvaluated").value()
         << " assignmentsCovered=" << result.stats.assignmentsCovered
         << " candidatesCut=" << result.stats.search.candidatesCut;
  } catch (const Error&) {
    line << " error";
  }
  return line.str();
}

TEST(WorkBudget, CountersMatchGoldenBudget) {
  const bool metricsWereOn = metrics::on();
  metrics::Registry::instance().enable();
  std::string actual =
      "# block machine: covering search work, totals over all candidates\n";
  for (const char* block : {"biquad", "dct4", "ex1", "ex2", "ex3", "ex4",
                            "ex5", "fig2", "fig6", "matvec2"})
    for (const char* machine :
         {"arch1", "arch2", "arch3", "arch4", "dsp16", "zoo/asym",
          "zoo/buffered", "zoo/constrained", "zoo/minimal", "zoo/tiny",
          "zoo/wide"})
      actual += budgetLine(block, machine) + "\n";
  if (!metricsWereOn) metrics::Registry::instance().disable();

  const fs::path path = fs::path(AVIV_GOLDEN_DIR) / "work_budget.txt";
  std::ifstream in(path);
  std::ostringstream expected;
  expected << in.rdbuf();
  if (actual == expected.str()) return;
  const fs::path out = fs::current_path() / "work_budget.actual.txt";
  std::ofstream(out) << actual;
  ADD_FAILURE() << "search work differs from " << path
                << "; the counters this build produces are in " << out
                << " (copy it over the golden file if the change is "
                   "intended)";
  std::istringstream a(actual);
  std::istringstream e(expected.str());
  std::string lineA;
  std::string lineE;
  while (std::getline(a, lineA)) {
    if (!std::getline(e, lineE)) lineE.clear();
    EXPECT_EQ(lineA, lineE);
  }
}

}  // namespace
}  // namespace aviv
