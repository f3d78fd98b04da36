//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates paper Table 1: difference in the total number of executed
/// checkpoints, WARio and WARio+Expander vs Ratchet.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

using namespace wario;
using namespace wario::bench;

int main(int argc, char **argv) {
  initHarness(argc, argv);
  std::printf("Table 1: executed checkpoints vs Ratchet\n\n");

  // WARIO_STRATEGIES=1 appends the checkpoint-strategy columns
  // (docs/STRATEGIES.md); default output is strategy-free.
  std::vector<CheckpointStrategy> Strats;
  if (strategiesEnabled())
    Strats = {CheckpointStrategy::Differential,
              CheckpointStrategy::Speculative};

  std::vector<std::string> Heads = {"WARio", "WARio+Expander"};
  for (CheckpointStrategy S : Strats)
    Heads.push_back(strategyColName(S));
  Heads.push_back("(paper WARio)");
  printRow("benchmark", Heads, 14, 16);

  // Paper's reported WARio column, for shape comparison.
  const std::map<std::string, const char *> Paper = {
      {"coremark", "-36.6%"}, {"sha", "-88.6%"},      {"crc", "-33.5%"},
      {"aes", "-74.5%"},      {"dijkstra", "-18.7%"}, {"picojpeg", "-33.6%"},
  };

  // Prewarm the matrix in one parallel sweep.
  std::vector<MatrixCell> Cells;
  for (const Workload &W : allWorkloads()) {
    for (Environment E : {Environment::Ratchet, Environment::WarioComplete,
                          Environment::WarioExpander})
      Cells.push_back(cell(W.Name, E));
    for (CheckpointStrategy S : Strats)
      Cells.push_back(strategyCell(W.Name, S));
  }
  runMatrix(Cells);

  double SumW = 0, SumWE = 0;
  std::map<CheckpointStrategy, double> SumS;
  for (const Workload &W : allWorkloads()) {
    double R = double(
        cachedRun(W.Name, Environment::Ratchet)->Emu.CheckpointsExecuted);
    double Wa = double(cachedRun(W.Name, Environment::WarioComplete)
                           ->Emu.CheckpointsExecuted);
    double We = double(cachedRun(W.Name, Environment::WarioExpander)
                           ->Emu.CheckpointsExecuted);
    double DW = 100.0 * (Wa - R) / R;
    double DWE = 100.0 * (We - R) / R;
    SumW += DW;
    SumWE += DWE;
    std::vector<std::string> Vals = {fmtPct(DW, true), fmtPct(DWE, true)};
    for (CheckpointStrategy S : Strats) {
      double C = double(globalCache()
                            .run(strategyCell(W.Name, S))
                            ->Emu.CheckpointsExecuted);
      double DS = 100.0 * (C - R) / R;
      SumS[S] += DS;
      Vals.push_back(fmtPct(DS, true));
    }
    Vals.push_back(Paper.at(W.Name));
    printRow(W.Name, Vals, 14, 16);
  }
  unsigned N = unsigned(allWorkloads().size());
  std::printf("%s\n",
              std::string(14 + 16 * (3 + Strats.size()), '-').c_str());
  std::vector<std::string> Avg = {fmtPct(SumW / N, true),
                                  fmtPct(SumWE / N, true)};
  for (CheckpointStrategy S : Strats)
    Avg.push_back(fmtPct(SumS[S] / N, true));
  Avg.push_back("-47.6%");
  printRow("average", Avg, 14, 16);
  return 0;
}
