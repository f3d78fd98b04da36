//===----------------------------------------------------------------------===//
///
/// \file
/// Snapshot/restore engine tests (labels: `snapshot`, `asan`): for every
/// workload and a stratified set of crash and stop points, a run resumed
/// from a recorded snapshot chain (Emulator::replay) must produce an
/// EmulatorResult byte-identical — field-wise operator==, including the
/// final NVM image, output, event trace, and every counter — to a cold
/// run under the same options. Also covers: record() being result-
/// identical to run(), tail splicing, scratch reuse across modules,
/// incompatible-chain fallback, and combined-campaign report identity
/// (the cross-mode crash-point dedup must be invisible in the reports).
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "emu/Snapshot.h"
#include "frontend/Frontend.h"
#include "verify/FaultInjector.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace wario;

namespace {

MModule buildWorkload(const std::string &Name) {
  DiagnosticEngine Diags;
  auto M = buildWorkloadIR(getWorkload(Name), Diags);
  EXPECT_TRUE(M) << Name << ": " << Diags.formatAll();
  if (!M)
    return MModule{};
  PipelineOptions PO; // WarioComplete, paper defaults.
  return compile(*M, PO);
}

/// A power schedule that fails exactly once, at \p CrashCycle, then
/// stays up (the fault injector's schedule shape).
PowerSchedule singleCrash(uint64_t CrashCycle) {
  return PowerSchedule::trace({CrashCycle, UINT64_MAX}, "single-crash");
}

/// Stratified cycle points over (0, Total]: deterministic odd fractions
/// so points land away from the snapshot grid, plus the boundary-ish
/// extremes (during first boot, near the very end).
std::vector<uint64_t> stratifiedPoints(uint64_t Total) {
  std::vector<uint64_t> P{1, 1001, Total > 2 ? Total - 1 : 1};
  for (unsigned I = 1; I <= 5; ++I)
    P.push_back(std::max<uint64_t>(1, Total * (2 * I - 1) / 10 + 13 * I));
  return P;
}

struct Recorded {
  Emulator E;
  SnapshotChain Chain;
  EmulatorResult Golden;
  explicit Recorded(const MModule &MM) : E(MM) {}
};

/// Records the golden chain for \p MM under \p EO (continuous power).
std::unique_ptr<Recorded> recordGolden(const MModule &MM,
                                       const EmulatorOptions &EO) {
  auto R = std::make_unique<Recorded>(MM);
  R->Golden = R->E.record(EO, R->Chain);
  EXPECT_TRUE(R->Golden.Ok) << R->Golden.Error;
  EXPECT_TRUE(R->Chain.valid());
  return R;
}

} // namespace

/// record() must be a pure observer: byte-identical result to run().
TEST(SnapshotTest, RecordMatchesRun) {
  for (const Workload &W : allWorkloads()) {
    MModule MM = buildWorkload(W.Name);
    ASSERT_FALSE(MM.Functions.empty()) << W.Name;
    Emulator E(MM);
    EmulatorOptions EO;
    EO.CollectEventTrace = true;
    SnapshotChain Chain;
    EmulatorResult Rec = E.record(EO, Chain);
    EmulatorResult Cold = E.run(EO);
    EXPECT_TRUE(Rec == Cold) << W.Name;
    ASSERT_TRUE(Chain.valid()) << W.Name;
    EXPECT_GT(Chain.size(), 1u) << W.Name;
    EXPECT_GT(Chain.bytes(), 0u) << W.Name;
    // The free emulate() must agree with the Emulator wrapper too.
    EXPECT_TRUE(emulate(MM, EO) == Cold) << W.Name;
    // Snapshot invariants: strictly increasing cycles, commit-aligned
    // everywhere except (possibly) the initial post-boot snapshot.
    for (size_t I = 1; I < Chain.Snaps.size(); ++I) {
      EXPECT_LT(Chain.Snaps[I - 1].ActiveCycle, Chain.Snaps[I].ActiveCycle);
      EXPECT_TRUE(Chain.Snaps[I].CommitAligned);
    }
  }
}

/// The core property: a crash-injected run resumed from the governing
/// snapshot (and tail-spliced after reconvergence) is byte-identical to
/// the cold run, for every workload and a stratified set of crash points.
TEST(SnapshotTest, ResumedCrashRunsAreByteIdentical) {
  for (const Workload &W : allWorkloads()) {
    MModule MM = buildWorkload(W.Name);
    ASSERT_FALSE(MM.Functions.empty()) << W.Name;
    EmulatorOptions Base;
    Base.CollectRegionSizes = false;
    auto Rec = recordGolden(MM, Base);
    EmulatorScratch Scratch; // Deliberately reused across all points.
    for (uint64_t C : stratifiedPoints(Rec->Golden.TotalCycles)) {
      EmulatorOptions EO = Base;
      EO.Power = singleCrash(C);
      EmulatorResult Cold = Rec->E.run(EO);
      ReplayPlan Plan;
      Plan.Chain = &Rec->Chain;
      Plan.AllowTailSplice = true;
      ReplayOutcome Out;
      EmulatorResult Warm = Rec->E.replay(EO, Plan, "main", &Scratch, &Out);
      EXPECT_TRUE(Warm == Cold) << W.Name << " @ crash " << C;
      EXPECT_TRUE(Out.Resumed || Out.ResumeSnapshot == -1);
    }
  }
}

/// Same property for the event-trace configuration the fault injector's
/// golden comparisons rely on (exercises result-vector prefix restore).
TEST(SnapshotTest, EventTraceResumeIsByteIdentical) {
  MModule MM = buildWorkload("crc");
  ASSERT_FALSE(MM.Functions.empty());
  EmulatorOptions Base;
  Base.CollectEventTrace = true;
  Base.CollectRegionSizes = false;
  auto Rec = recordGolden(MM, Base);
  EmulatorScratch Scratch;
  for (uint64_t C : stratifiedPoints(Rec->Golden.TotalCycles)) {
    EmulatorOptions EO = Base;
    EO.Power = singleCrash(C);
    EmulatorResult Cold = Rec->E.run(EO);
    ReplayPlan Plan;
    Plan.Chain = &Rec->Chain;
    EmulatorResult Warm = Rec->E.replay(EO, Plan, "main", &Scratch);
    EXPECT_TRUE(Warm == Cold) << "crash @ " << C;
  }
}

/// Stop points: replay(StopAtActiveCycle) resumed from a snapshot must
/// equal the cold run truncated at the same boundary.
TEST(SnapshotTest, StopPointsAreByteIdentical) {
  for (const Workload &W : allWorkloads()) {
    MModule MM = buildWorkload(W.Name);
    ASSERT_FALSE(MM.Functions.empty()) << W.Name;
    EmulatorOptions Base;
    Base.CollectRegionSizes = false;
    auto Rec = recordGolden(MM, Base);
    EmulatorScratch Scratch;
    for (uint64_t C : stratifiedPoints(Rec->Golden.TotalCycles)) {
      ReplayPlan ColdPlan; // No chain: a cold run to the stop point.
      ColdPlan.StopAtActiveCycle = C;
      EmulatorResult Cold = Rec->E.replay(Base, ColdPlan);
      ReplayPlan WarmPlan = ColdPlan;
      WarmPlan.Chain = &Rec->Chain;
      ReplayOutcome Out;
      EmulatorResult Warm =
          Rec->E.replay(Base, WarmPlan, "main", &Scratch, &Out);
      EXPECT_TRUE(Warm == Cold) << W.Name << " @ stop " << C;
      if (C > Rec->Chain.Snaps.front().ActiveCycle) {
        EXPECT_TRUE(Out.Resumed) << W.Name << " @ stop " << C;
      }
    }
  }
}

/// The instruction-window configuration the injector uses for reports:
/// resumed-and-stopped runs must reproduce the cold run's window.
TEST(SnapshotTest, TraceWindowSurvivesResumeAndStop) {
  MModule MM = buildWorkload("crc");
  ASSERT_FALSE(MM.Functions.empty());
  EmulatorOptions Base;
  Base.CollectRegionSizes = false;
  auto Rec = recordGolden(MM, Base);
  uint64_t Mid = Rec->Golden.TotalCycles / 2;
  EmulatorOptions WinEO = Base;
  WinEO.TraceWindowLo = Mid - 24;
  WinEO.TraceWindowHi = Mid + 24;
  EmulatorResult Cold = Rec->E.run(WinEO);
  ReplayPlan Plan;
  Plan.Chain = &Rec->Chain;
  Plan.StopAtActiveCycle = WinEO.TraceWindowHi + 1;
  ReplayOutcome Out;
  EmulatorResult Warm = Rec->E.replay(WinEO, Plan, "main", nullptr, &Out);
  EXPECT_TRUE(Out.Resumed);
  EXPECT_FALSE(Cold.Window.empty());
  EXPECT_EQ(Warm.Window, Cold.Window);
}

/// Tail splicing with the final image retained must reproduce the cold
/// run exactly; with OmitFinalMemoryOnSplice the image (and only the
/// image) may be elided.
TEST(SnapshotTest, TailSpliceIsExact) {
  MModule MM = buildWorkload("crc");
  ASSERT_FALSE(MM.Functions.empty());
  EmulatorOptions Base;
  Base.CollectRegionSizes = false;
  auto Rec = recordGolden(MM, Base);
  uint64_t C = Rec->Golden.TotalCycles / 3;
  EmulatorOptions EO = Base;
  EO.Power = singleCrash(C);
  EmulatorResult Cold = Rec->E.run(EO);
  ReplayPlan Plan;
  Plan.Chain = &Rec->Chain;
  Plan.AllowTailSplice = true;
  ReplayOutcome Out;
  EmulatorResult Warm = Rec->E.replay(EO, Plan, "main", nullptr, &Out);
  EXPECT_TRUE(Out.Spliced);
  EXPECT_TRUE(Warm == Cold);
  Plan.OmitFinalMemoryOnSplice = true;
  EmulatorResult Elided = Rec->E.replay(EO, Plan, "main", nullptr, &Out);
  EXPECT_TRUE(Out.Spliced);
  EXPECT_TRUE(Elided.FinalMemory.empty());
  Elided.FinalMemory = Cold.FinalMemory;
  EXPECT_TRUE(Elided == Cold);
}

/// A chain recorded under one interrupt configuration must not serve an
/// incompatible replay: the run silently degrades to a cold run with
/// identical results.
TEST(SnapshotTest, IncompatibleChainFallsBackToColdRun) {
  MModule MM = buildWorkload("crc");
  ASSERT_FALSE(MM.Functions.empty());
  EmulatorOptions Base;
  Base.CollectRegionSizes = false;
  auto Rec = recordGolden(MM, Base);
  EmulatorOptions EO = Base;
  EO.InterruptPeriod = 10'000;
  EO.Power = singleCrash(Rec->Golden.TotalCycles / 2);
  EmulatorResult Cold = Rec->E.run(EO);
  ReplayPlan Plan;
  Plan.Chain = &Rec->Chain;
  Plan.AllowTailSplice = true;
  ReplayOutcome Out;
  EmulatorResult Warm = Rec->E.replay(EO, Plan, "main", nullptr, &Out);
  EXPECT_FALSE(Out.Resumed);
  EXPECT_FALSE(Out.Spliced);
  EXPECT_TRUE(Warm == Cold);
}

/// One scratch serving two different modules in alternation: the
/// owner-switch reinitialization must leave no residue.
TEST(SnapshotTest, ScratchReuseAcrossModulesIsClean) {
  MModule A = buildWorkload("crc");
  MModule B = buildWorkload("sha");
  ASSERT_FALSE(A.Functions.empty());
  ASSERT_FALSE(B.Functions.empty());
  Emulator EA(A), EB(B);
  EmulatorOptions EO;
  EO.CollectRegionSizes = false;
  EmulatorResult GoldA = EA.run(EO), GoldB = EB.run(EO);
  EmulatorScratch Scratch;
  for (int I = 0; I != 2; ++I) {
    EXPECT_TRUE(EA.run(EO, "main", &Scratch) == GoldA);
    EXPECT_TRUE(EB.run(EO, "main", &Scratch) == GoldB);
  }
}

/// A long-lived scratch (the campaign fan-out uses thread_local ones)
/// outlives Emulator instances. The owner check must key on an instance
/// id, not the Emulator's address: the allocator hands a freed Impl
/// chunk straight to the next Emulator, and an address-keyed scratch
/// would then take the incremental-reset path against the wrong base
/// image, keeping stale pages from the dead module. The alternation
/// below reuses the chunk on nearly every iteration.
TEST(SnapshotTest, ScratchSurvivesEmulatorLifetimes) {
  MModule A = buildWorkload("crc");
  MModule B = buildWorkload("sha");
  ASSERT_FALSE(A.Functions.empty());
  ASSERT_FALSE(B.Functions.empty());
  EmulatorOptions EO;
  EO.CollectRegionSizes = false;
  EmulatorResult GoldA = Emulator(A).run(EO);
  EmulatorResult GoldB = Emulator(B).run(EO);
  EmulatorScratch Scratch;
  for (int I = 0; I != 4; ++I) {
    {
      Emulator EA(A);
      EXPECT_TRUE(EA.run(EO, "main", &Scratch) == GoldA);
    }
    {
      Emulator EB(B);
      EXPECT_TRUE(EB.run(EO, "main", &Scratch) == GoldB);
    }
  }
}

/// Combined campaigns (one golden run, crash points deduplicated across
/// modes) must produce reports byte-identical to standalone single-mode
/// campaigns — the dedup shows up only in the engine statistics.
TEST(SnapshotTest, CombinedCampaignReportsMatchStandalone) {
  using namespace wario::verify;
  MModule MM = buildWorkload("crc");
  ASSERT_FALSE(MM.Functions.empty());
  FaultInjectorOptions FI;
  FI.Samples = 16;
  FI.MaxPoints = 64;
  FI.BaseEO.CollectRegionSizes = false;
  FI.Workload = "crc";
  FI.Config = "wario";
  const std::vector<CampaignMode> Modes{CampaignMode::RegionBoundaries,
                                        CampaignMode::Stratified,
                                        CampaignMode::Adversarial};
  std::vector<CrashReport> Combined = runCrashCampaigns(MM, FI, Modes);
  ASSERT_EQ(Combined.size(), Modes.size());
  unsigned TotalModePoints = 0;
  for (size_t I = 0; I != Modes.size(); ++I) {
    CrashReport Standalone = runCrashCampaigns(MM, FI, {Modes[I]}).front();
    EXPECT_EQ(Combined[I].format(), Standalone.format()) << Combined[I].Mode;
    EXPECT_TRUE(Combined[I].clean()) << Combined[I].format();
    TotalModePoints += Combined[I].PointsTested;
  }
  // The dedup accounting must balance: every mode point is either a
  // distinct union point or a collapsed duplicate.
  EXPECT_EQ(Combined.front().UnionPoints + Combined.front().SharedPoints,
            TotalModePoints);
  EXPECT_LE(Combined.front().UnionPoints, TotalModePoints);
}
