//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-consistency verification campaign (not a paper figure; the
/// checker behind every number in EXPERIMENTS.md). For each workload,
/// compile once under the default WARio pipeline through the staged
/// result cache, then drive the fault injector over the compiled module:
/// exhaustive region-boundary placement, seeded stratified sampling, and
/// adversarial placement (pre-commit / post-store). Every campaign must
/// come back CONSISTENT.
///
/// Ends with the negative control that proves the checker has teeth: CRC
/// recompiled with the middle-end hitting-set resolution skipped
/// (PipelineOptions::ResolveMiddleEndWars = false, WarIsFatal = false)
/// must be caught diverging, with the crash point minimized.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "verify/FaultInjector.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace wario;
using namespace wario::bench;
using namespace wario::verify;

namespace {

/// One compile, many injected runs: the machine module comes from the
/// staged cache (shared with every other regenerator in this process);
/// only the injected emulations are new work. All modes of one workload
/// run as a combined campaign — one golden recording, crash points
/// deduplicated across modes before the fan-out — which changes nothing
/// about the reports, only the wall clock.
std::vector<CrashReport> campaigns(const std::string &Workload,
                                   const PipelineOptions &PO,
                                   const std::vector<CampaignMode> &Modes,
                                   unsigned MaxPoints, bool WarFatal = true,
                                   uint64_t MaxCycles = 0) {
  // Holding the shared_ptr pins the machine module for the campaign even
  // if the byte-budgeted global cache evicts the entry meanwhile.
  std::shared_ptr<const CompileResult> CR =
      globalCache().compileCell(Workload, PO);
  FaultInjectorOptions FI;
  FI.Samples = 48;
  FI.MaxPoints = MaxPoints;
  FI.BaseEO.CollectRegionSizes = false;
  FI.BaseEO.WarIsFatal = WarFatal;
  if (MaxCycles) // Weakened builds can corrupt loop state into runaway
    FI.BaseEO.MaxCycles = MaxCycles; // loops; cap them into run-errors.
  FI.Workload = Workload;
  if (PO.Strat == CheckpointStrategy::Idempotent)
    FI.Config = PO.ResolveMiddleEndWars ? environmentName(PO.Env)
                                        : "wario-weakened";
  else
    FI.Config = PO.DiffFullRollback && PO.SpecLogWars
                    ? strategyColName(PO.Strat)
                    : std::string(strategyColName(PO.Strat)) + "-weakened";
  std::vector<CrashReport> Reports;
  timedCampaign([&] { Reports = runCrashCampaigns(CR->MM, FI, Modes); });
  return Reports;
}

/// Campaign statistics (what the snapshot/replay engine executed) go to
/// stderr so the report stream (stdout) stays byte-comparable across
/// engine generations.
void logCampaignStats(const CrashReport &R) {
  std::fprintf(stderr,
               "[verify_crash] %s/%s: %u mode points collapsed into %u "
               "distinct (%u shared); %u physical runs, %u resumed, %u "
               "spliced; %u snapshots (%.1f MiB)\n",
               R.Workload.c_str(), R.Config.c_str(),
               R.UnionPoints + R.SharedPoints, R.UnionPoints, R.SharedPoints,
               R.PhysicalRuns, R.ResumedRuns, R.SplicedRuns, R.Snapshots,
               double(R.SnapshotBytes) / (1024.0 * 1024.0));
}

std::string cellText(const CrashReport &R) {
  if (!R.Ok)
    return "ERROR";
  return std::to_string(R.PointsTested) + "/" +
         std::to_string(R.Divergences.size());
}

} // namespace

int main(int argc, char **argv) {
  initHarness(argc, argv);

  std::printf("Crash-consistency fault injection — default WARio pipeline\n");
  std::printf("(cells are points-tested/divergences; every cell must end "
              "in /0)\n\n");
  printRow("benchmark", {"boundaries", "stratified", "adversarial"});

  bool AllClean = true;
  for (const Workload &W : allWorkloads()) {
    PipelineOptions PO; // Environment::WarioComplete, paper defaults.
    std::vector<std::string> Cells;
    std::vector<CrashReport> Rs = campaigns(
        W.Name, PO,
        {CampaignMode::RegionBoundaries, CampaignMode::Stratified,
         CampaignMode::Adversarial},
        /*MaxPoints=*/192);
    for (const CrashReport &R : Rs) {
      Cells.push_back(cellText(R));
      if (!R.clean()) {
        AllClean = false;
        std::fprintf(stderr, "%s", R.format().c_str());
      }
    }
    logCampaignStats(Rs.front());
    printRow(W.Name, Cells);
  }

  std::printf("\nNegative control — crc with the middle-end hitting-set "
              "resolution skipped:\n");
  PipelineOptions Weak;
  Weak.ResolveMiddleEndWars = false;
  CrashReport Neg = campaigns("crc", Weak, {CampaignMode::Adversarial},
                              /*MaxPoints=*/192, /*WarFatal=*/false)
                        .front();
  logCampaignStats(Neg);
  if (!Neg.Ok || Neg.Divergences.empty()) {
    std::fprintf(stderr, "negative control NOT detected — the injector has "
                         "no teeth\n%s",
                 Neg.format().c_str());
    return 1;
  }
  const Divergence &D = Neg.Divergences.front();
  std::printf("detected: %u of %u crash points diverge; first minimized to "
              "cycle %llu (region %d, %s)\n",
              unsigned(Neg.Divergences.size()), Neg.PointsTested,
              (unsigned long long)D.MinimalCycle, D.RegionId,
              divergenceKindName(D.Kind));

  // WARIO_STRATEGIES=1 appends one full campaign per rollback strategy
  // (docs/STRATEGIES.md), each with its own negative control; default
  // output is strategy-free.
  if (strategiesEnabled()) {
    for (CheckpointStrategy S : {CheckpointStrategy::Differential,
                                 CheckpointStrategy::Speculative}) {
      std::printf("\nCrash-consistency fault injection — %s strategy\n\n",
                  strategyColName(S));
      printRow("benchmark", {"boundaries", "stratified", "adversarial"});
      for (const Workload &W : allWorkloads()) {
        PipelineOptions PO;
        PO.Strat = S;
        std::vector<std::string> Cells;
        std::vector<CrashReport> Rs = campaigns(
            W.Name, PO,
            {CampaignMode::RegionBoundaries, CampaignMode::Stratified,
             CampaignMode::Adversarial},
            /*MaxPoints=*/192);
        for (const CrashReport &R : Rs) {
          Cells.push_back(cellText(R));
          if (!R.clean()) {
            AllClean = false;
            std::fprintf(stderr, "%s", R.format().c_str());
          }
        }
        logCampaignStats(Rs.front());
        printRow(W.Name, Cells);
      }

      PipelineOptions SWeak;
      SWeak.Strat = S;
      const char *Knob;
      if (S == CheckpointStrategy::Differential) {
        SWeak.DiffFullRollback = false;
        Knob = "rollback journal dropped (DiffFullRollback = false)";
      } else {
        SWeak.SpecLogWars = false;
        Knob = "WAR undo logging skipped (SpecLogWars = false)";
      }
      // coremark, not crc: crc keeps its hot state in registers (which
      // the checkpoints restore), so a skipped NVM rollback is often
      // invisible there; coremark's in-memory list/matrix state makes
      // the weakened runtimes diverge densely.
      std::printf("\nNegative control — coremark under %s with %s:\n",
                  strategyColName(S), Knob);
      CrashReport SNeg =
          campaigns("coremark", SWeak, {CampaignMode::Adversarial},
                    /*MaxPoints=*/192, /*WarFatal=*/false,
                    /*MaxCycles=*/40'000'000)
              .front();
      logCampaignStats(SNeg);
      if (!SNeg.Ok || SNeg.Divergences.empty()) {
        std::fprintf(stderr, "negative control NOT detected — the injector "
                             "has no teeth\n%s",
                     SNeg.format().c_str());
        return 1;
      }
      const Divergence &SD = SNeg.Divergences.front();
      std::printf("detected: %u of %u crash points diverge; first minimized "
                  "to cycle %llu (region %d, %s)\n",
                  unsigned(SNeg.Divergences.size()), SNeg.PointsTested,
                  (unsigned long long)SD.MinimalCycle, SD.RegionId,
                  divergenceKindName(SD.Kind));
    }
  }

  if (!AllClean) {
    std::fprintf(stderr, "\ncrash-consistency campaign found divergences "
                         "under the default pipeline\n");
    return 1;
  }
  return 0;
}
