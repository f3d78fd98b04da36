//===----------------------------------------------------------------------===//
///
/// \file
/// The rollback-strategy matrix columns (label: `strategy`): differential
/// and speculative checkpointing (docs/STRATEGIES.md) must survive the
/// same crash campaigns as the WAR-breaking pipeline, their weakened
/// negative-control builds must be provably caught, and their goldens
/// must differ from WARio's exactly where the strategy model predicts —
/// fewer checkpoints and no spill checkpoints under differential, logged
/// stores under speculative — while computing identical results.
///
/// WARIO_CI_FAST=1 trims the positive campaigns to one workload (the CI
/// strategy job); the negative controls always run on coremark, whose
/// in-memory list/matrix state is the densest detector of a broken
/// rollback (crc keeps its hot state in checkpoint-restored registers,
/// so a skipped NVM rollback is often invisible there).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "verify/FaultInjector.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

using namespace wario;
using namespace wario::bench;
using namespace wario::verify;

namespace {

bool fastMode() {
  if (const char *F = std::getenv("WARIO_CI_FAST"))
    return F[0] == '1' && F[1] == '\0';
  return false;
}

/// Workloads for the positive (must-be-clean) campaigns.
std::vector<std::string> campaignWorkloads() {
  if (fastMode())
    return {"crc"};
  return {"crc", "sha", "coremark"};
}

PipelineOptions strategyPO(CheckpointStrategy S) {
  PipelineOptions PO; // Environment::WarioComplete, paper defaults.
  PO.Strat = S;
  return PO;
}

/// Compiles through the process-wide staged cache (shared with the bench
/// regenerators and the other bench-harness tests).
std::shared_ptr<const CompileResult> build(const std::string &Workload,
                                           const PipelineOptions &PO) {
  return globalCache().compileCell(Workload, PO);
}

std::shared_ptr<const RunResult> run(const std::string &Workload,
                                     CheckpointStrategy S,
                                     PowerSchedule Power =
                                         PowerSchedule::continuous()) {
  MatrixCell C = strategyCell(Workload, S);
  C.EO.CollectRegionSizes = false;
  C.EO.Power = Power;
  return globalCache().run(C);
}

class StrategyTest : public ::testing::TestWithParam<CheckpointStrategy> {};

TEST_P(StrategyTest, CrashCampaignsAreClean) {
  CheckpointStrategy S = GetParam();
  for (const std::string &W : campaignWorkloads()) {
    std::shared_ptr<const CompileResult> CR = build(W, strategyPO(S));
    ASSERT_TRUE(CR->Error.empty()) << W << ": " << CR->Error;
    FaultInjectorOptions FI;
    FI.Samples = 48;
    FI.MaxPoints = 96;
    FI.BaseEO.CollectRegionSizes = false;
    FI.Workload = W;
    FI.Config = strategyColName(S);
    std::vector<CrashReport> Rs = runCrashCampaigns(
        CR->MM, FI,
        {CampaignMode::RegionBoundaries, CampaignMode::Stratified,
         CampaignMode::Adversarial});
    for (const CrashReport &R : Rs) {
      ASSERT_TRUE(R.Ok) << W << ": " << R.Error;
      EXPECT_TRUE(R.clean()) << R.format();
      EXPECT_GT(R.PointsTested, 0u) << W;
    }
  }
}

TEST_P(StrategyTest, WeakenedRollbackIsCaught) {
  // The negative control that proves the campaigns above have teeth: a
  // build whose rollback machinery is deliberately broken must diverge.
  CheckpointStrategy S = GetParam();
  PipelineOptions Weak = strategyPO(S);
  if (S == CheckpointStrategy::Differential)
    Weak.DiffFullRollback = false; // Reboot drops the page journal.
  else
    Weak.SpecLogWars = false; // WAR writes execute without undo logging.

  std::shared_ptr<const CompileResult> CR = build("coremark", Weak);
  ASSERT_TRUE(CR->Error.empty()) << CR->Error;
  FaultInjectorOptions FI;
  FI.MaxPoints = 192;
  FI.BaseEO.CollectRegionSizes = false;
  FI.BaseEO.WarIsFatal = false;
  // Corrupted loop state can run away; cap it into run-error divergences.
  FI.BaseEO.MaxCycles = 40'000'000;
  FI.Workload = "coremark";
  FI.Config = std::string(strategyColName(S)) + "-weakened";
  CrashReport R =
      runCrashCampaigns(CR->MM, FI, {CampaignMode::Adversarial}).front();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.Divergences.empty())
      << "weakened " << strategyColName(S)
      << " build survived the adversarial campaign — the negative "
         "control has no teeth";
}

TEST_P(StrategyTest, GoldensDifferFromWarioWhereTheModelPredicts) {
  CheckpointStrategy S = GetParam();
  for (const std::string &W : campaignWorkloads()) {
    std::shared_ptr<const RunResult> RW =
        run(W, CheckpointStrategy::Idempotent);
    std::shared_ptr<const RunResult> RS = run(W, S);
    ASSERT_TRUE(RW->Error.empty()) << W << ": " << RW->Error;
    ASSERT_TRUE(RS->Error.empty()) << W << ": " << RS->Error;

    // Same program, same answer — the strategies change *when* state
    // commits, never *what* the program computes.
    EXPECT_EQ(RW->Emu.ReturnValue, RS->Emu.ReturnValue) << W;
    EXPECT_EQ(RW->Emu.Output, RS->Emu.Output) << W;

    // Without WAR-breaking placement, the middle end only inserts
    // region-bounding checkpoints — strictly fewer than WARio's
    // hitting-set placement on every workload.
    EXPECT_LT(RS->Emu.Causes.MiddleEndWar, RW->Emu.Causes.MiddleEndWar)
        << W;

    if (S == CheckpointStrategy::Differential) {
      // The page journal subsumes register-spill WAR breaking: the back
      // end emits no spill checkpoints, and total checkpoints (and
      // cycles) drop below WARio's.
      EXPECT_EQ(RS->Emu.Causes.BackendSpill, 0u) << W;
      EXPECT_LT(RS->Emu.CheckpointsExecuted, RW->Emu.CheckpointsExecuted)
          << W;
      EXPECT_LT(RS->Emu.TotalCycles, RW->Emu.TotalCycles) << W;
    }
  }
}

TEST_P(StrategyTest, SpeculativeMarksStoresDifferentialDoesNot) {
  CheckpointStrategy S = GetParam();
  std::shared_ptr<const CompileResult> CR = build("crc", strategyPO(S));
  ASSERT_TRUE(CR->Error.empty()) << CR->Error;
  if (S == CheckpointStrategy::Speculative)
    EXPECT_GT(CR->Pipeline.MiddleEnd.StoresMarked, 0u)
        << "speculative must undo-log its unresolved WAR writes";
  else
    EXPECT_EQ(CR->Pipeline.MiddleEnd.StoresMarked, 0u)
        << "differential never marks stores — the page journal covers "
           "all of them";
}

TEST_P(StrategyTest, EngineChoiceNeverChangesResults) {
  // Both engines run the strategy runtimes (page journal, undo log), so
  // the whole result — counters, output, final NVM image — must match.
  CheckpointStrategy S = GetParam();
  MatrixCell A = strategyCell("crc", S);
  A.EO.CollectRegionSizes = false;
  A.EO.Engine = EngineKind::Interp;
  MatrixCell B = A;
  B.EO.Engine = EngineKind::Threaded;
  std::shared_ptr<const RunResult> RA = globalCache().run(A);
  std::shared_ptr<const RunResult> RB = globalCache().run(B);
  ASSERT_TRUE(RA->Error.empty()) << RA->Error;
  ASSERT_TRUE(RB->Error.empty()) << RB->Error;
  EXPECT_TRUE(RA->Emu == RB->Emu);
}

TEST_P(StrategyTest, IntermittentPowerReachesTheContinuousAnswer) {
  // Rollback correctness end to end: under a power schedule that forces
  // many reboots, the strategy must still reach the continuous-power
  // answer (re-execution plus journal rollback is invisible in the
  // result).
  CheckpointStrategy S = GetParam();
  std::shared_ptr<const RunResult> Cont = run("crc", S);
  std::shared_ptr<const RunResult> Inter =
      run("crc", S, PowerSchedule::fixed(100'000));
  ASSERT_TRUE(Cont->Error.empty()) << Cont->Error;
  ASSERT_TRUE(Inter->Error.empty()) << Inter->Error;
  EXPECT_GT(Inter->Emu.PowerFailures, 0u);
  EXPECT_EQ(Cont->Emu.ReturnValue, Inter->Emu.ReturnValue);
  EXPECT_EQ(Cont->Emu.Output, Inter->Emu.Output);
}

TEST_P(StrategyTest, SnapshotReplayMatchesColdCampaigns) {
  // The snapshot/resume engine must not see the strategy journals: they
  // are empty at every region-fresh recording point, so resumed and cold
  // campaign reports are byte-identical.
  CheckpointStrategy S = GetParam();
  std::shared_ptr<const CompileResult> CR = build("crc", strategyPO(S));
  ASSERT_TRUE(CR->Error.empty()) << CR->Error;
  FaultInjectorOptions FI;
  FI.Samples = 24;
  FI.MaxPoints = 48;
  FI.BaseEO.CollectRegionSizes = false;
  FI.Workload = "crc";
  FI.Config = strategyColName(S);
  CrashReport Snap =
      runCrashCampaigns(CR->MM, FI, {CampaignMode::Stratified}).front();
  FI.UseSnapshots = false;
  CrashReport Cold =
      runCrashCampaigns(CR->MM, FI, {CampaignMode::Stratified}).front();
  ASSERT_TRUE(Snap.Ok) << Snap.Error;
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_EQ(Snap.format(), Cold.format());
  EXPECT_TRUE(Snap.clean()) << Snap.format();
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategyTest,
                         ::testing::Values(CheckpointStrategy::Differential,
                                           CheckpointStrategy::Speculative),
                         [](const auto &Info) {
                           return Info.param ==
                                          CheckpointStrategy::Differential
                                      ? "Differential"
                                      : "Speculative";
                         });

} // namespace
