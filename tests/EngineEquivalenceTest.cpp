//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests for the two execution engines (label: `engine`):
/// the direct-threaded fused-dispatch engine (ThreadedEngine.cpp) must
/// be byte-identical — field-wise EmulatorResult operator==, including
/// the final NVM image, output, event traces, and every counter — to the
/// central-switch interpreter (the oracle) for every workload under
/// every checkpoint strategy (wario, wario-diff, wario-spec), under
/// continuous power, crash schedules, harvester traces, and interrupts,
/// and for the weakened negative-control builds. Also covers the
/// WARIO_ENGINE environment kill switch (unset resolves to threaded),
/// mixed-engine snapshot record/replay in both directions, and the
/// 16-bit SWAR WAR-stamp epoch wrap at 2^15. Random programs
/// (RandomProgram.h) widen the instruction mix past the workloads': they
/// form fusion groups no workload does.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include "driver/Pipeline.h"
#include "emu/PowerTrace.h"
#include "emu/Snapshot.h"
#include "emu/ThreadedEngine.h"
#include "frontend/Frontend.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace wario;

namespace {

constexpr CheckpointStrategy Strategies[] = {
    CheckpointStrategy::Idempotent, CheckpointStrategy::Differential,
    CheckpointStrategy::Speculative};

MModule buildWorkload(const std::string &Name, const PipelineOptions &PO) {
  DiagnosticEngine Diags;
  auto M = buildWorkloadIR(getWorkload(Name), Diags);
  EXPECT_TRUE(M) << Name << ": " << Diags.formatAll();
  if (!M)
    return MModule{};
  return compile(*M, PO);
}

/// WarioComplete, paper defaults, under strategy \p S.
MModule buildWorkload(const std::string &Name, CheckpointStrategy S) {
  PipelineOptions PO;
  PO.Strat = S;
  return buildWorkload(Name, PO);
}

/// WARIO_CI_FAST=1 trims the matrix to one workload (the CI
/// differential-engine job's fast mode; see tools/ci.sh).
std::vector<Workload> matrixWorkloads() {
  if (const char *F = std::getenv("WARIO_CI_FAST"))
    if (F[0] == '1')
      return {getWorkload("crc")};
  return allWorkloads();
}

/// Runs the module under both engines and requires field-wise identical
/// results. Returns the oracle result for further checks.
EmulatorResult expectEngineIdentical(const Emulator &E,
                                     const EmulatorOptions &Base,
                                     const std::string &Tag) {
  EmulatorOptions Interp = Base, Threaded = Base;
  Interp.Engine = EngineKind::Interp;
  Threaded.Engine = EngineKind::Threaded;
  EngineStats IS, TS;
  EmulatorResult RI = E.run(Interp, "main", nullptr, &IS);
  EmulatorResult RT = E.run(Threaded, "main", nullptr, &TS);
  EXPECT_TRUE(RI == RT) << Tag;
  // The interpreter never dispatches through the threaded loop; the
  // threaded engine must actually retire instructions there under
  // every strategy (or the test proves nothing about equivalence).
  EXPECT_EQ(IS.Dispatches, 0u) << Tag;
  EXPECT_GT(TS.Dispatches, 0u) << Tag;
  EXPECT_GT(TS.ThreadedInstructions, 0u) << Tag;
  EXPECT_LE(TS.ThreadedInstructions, RT.InstructionsExecuted) << Tag;
  EXPECT_EQ(TS.SuperblockDispatches, 0u) << Tag;
  EXPECT_EQ(TS.SideExits, 0u) << Tag;
  return RI;
}

} // namespace

/// Continuous power, with region sizes and the event trace collected:
/// the widest observable surface (Commits, StoreCycles, RegionSizes).
TEST(EngineEquivalenceTest, ContinuousRunsAreByteIdentical) {
  for (const Workload &W : matrixWorkloads()) {
    for (CheckpointStrategy S : Strategies) {
      const std::string Tag = W.Name + "/" + checkpointStrategyName(S);
      MModule MM = buildWorkload(W.Name, S);
      ASSERT_FALSE(MM.Functions.empty()) << Tag;
      Emulator E(MM);
      EmulatorOptions EO;
      EO.CollectEventTrace = true;
      EmulatorResult R = expectEngineIdentical(E, EO, Tag);
      EXPECT_TRUE(R.Ok) << Tag << ": " << R.Error;
    }
  }
}

/// Intermittent power: fixed on-periods (every boot replays a region
/// prefix and, under the rollback strategies, rolls the journals back)
/// and the bursty harvester trace, at several budgets so the failure
/// points land in different regions.
TEST(EngineEquivalenceTest, IntermittentRunsAreByteIdentical) {
  for (const Workload &W : matrixWorkloads()) {
    for (CheckpointStrategy S : Strategies) {
      const std::string Tag = W.Name + "/" + checkpointStrategyName(S);
      MModule MM = buildWorkload(W.Name, S);
      ASSERT_FALSE(MM.Functions.empty()) << Tag;
      Emulator E(MM);
      for (uint64_t Budget : {7'000ull, 50'000ull, 333'333ull}) {
        EmulatorOptions EO;
        EO.Power = PowerSchedule::fixed(Budget);
        EmulatorResult R = expectEngineIdentical(
            E, EO, Tag + " @ fixed " + std::to_string(Budget));
        // The smallest budget legitimately stalls the large-region
        // workloads (no forward progress); both engines must still
        // agree on the failure, so only successful runs that outlast
        // one on-period must have failed.
        if (R.Ok && R.TotalCycles > Budget) {
          EXPECT_GT(R.PowerFailures, 0u) << Tag;
        }
      }
      EmulatorOptions EO;
      EO.Power = harvesterTraceAlpha();
      expectEngineIdentical(E, EO, Tag + " @ harvester");
    }
  }
}

/// Periodic interrupts exercise hardware stacking, the ISR path, and
/// commit-on-interrupt — all interpreter-assisted on the threaded
/// engine, so the cycle accounting must line up exactly.
TEST(EngineEquivalenceTest, InterruptRunsAreByteIdentical) {
  for (const Workload &W : matrixWorkloads()) {
    for (CheckpointStrategy S : Strategies) {
      const std::string Tag = W.Name + "/" + checkpointStrategyName(S);
      MModule MM = buildWorkload(W.Name, S);
      ASSERT_FALSE(MM.Functions.empty()) << Tag;
      Emulator E(MM);
      EmulatorOptions EO;
      EO.InterruptPeriod = 10'000;
      EmulatorResult R = expectEngineIdentical(E, EO, Tag);
      EXPECT_TRUE(R.Ok) << Tag << ": " << R.Error;
      EXPECT_GT(R.InterruptsTaken, 0u) << Tag;
    }
  }
}

/// The negative-control builds the crash campaigns must catch: WAR
/// violations (counted, not fatal), dropped page journals, and unlogged
/// WAR writes all diverge from the correct builds, and must do so
/// identically on both engines.
TEST(EngineEquivalenceTest, WeakenedBuildsAreByteIdentical) {
  PipelineOptions NoWars;
  NoWars.ResolveMiddleEndWars = false;
  PipelineOptions NoDiffRollback;
  NoDiffRollback.Strat = CheckpointStrategy::Differential;
  NoDiffRollback.DiffFullRollback = false;
  PipelineOptions NoSpecLog;
  NoSpecLog.Strat = CheckpointStrategy::Speculative;
  NoSpecLog.SpecLogWars = false;
  const std::pair<const char *, PipelineOptions> Builds[] = {
      {"wario-weakened", NoWars},
      {"wario-diff-weakened", NoDiffRollback},
      {"wario-spec-weakened", NoSpecLog}};
  for (const auto &[Name, PO] : Builds) {
    MModule MM = buildWorkload("coremark", PO);
    ASSERT_FALSE(MM.Functions.empty()) << Name;
    Emulator E(MM);
    for (uint64_t Budget : {20'000ull, 50'000ull}) {
      EmulatorOptions EO;
      EO.Power = PowerSchedule::fixed(Budget);
      EO.WarIsFatal = false;
      EO.CollectEventTrace = true;
      EO.MaxCycles = 40'000'000;
      expectEngineIdentical(E, EO,
                            std::string(Name) + " @ fixed " +
                                std::to_string(Budget));
    }
  }
}

/// Random programs under every environment plus the two rollback
/// strategies, each run continuously (with the event trace) and under a
/// fixed on-period derived from the seed.
TEST(EngineEquivalenceTest, RandomProgramsAreByteIdentical) {
  std::vector<std::pair<std::string, PipelineOptions>> Configs;
  for (Environment Env : allEnvironments()) {
    PipelineOptions PO;
    PO.Env = Env;
    Configs.emplace_back(environmentName(Env), PO);
  }
  for (CheckpointStrategy S : {CheckpointStrategy::Differential,
                               CheckpointStrategy::Speculative}) {
    PipelineOptions PO;
    PO.Strat = S;
    Configs.emplace_back(checkpointStrategyName(S), PO);
  }
  for (uint32_t Seed = 1; Seed <= 60; ++Seed) {
    const std::string Source = test::RandomProgramGenerator(Seed).generate();
    for (const auto &[Name, PO] : Configs) {
      const std::string Tag = "seed " + std::to_string(Seed) + " @ " + Name;
      DiagnosticEngine Diags;
      std::unique_ptr<Module> M = compileC(Source, "fuzz", Diags);
      ASSERT_TRUE(M) << Tag << ": " << Diags.formatAll();
      MModule MM = compile(*M, PO);
      Emulator E(MM);
      const bool Plain = PO.Env == Environment::PlainC;
      EmulatorOptions EO;
      EO.CollectEventTrace = true;
      EO.WarIsFatal = !Plain;
      EmulatorResult R = expectEngineIdentical(E, EO, Tag);
      EXPECT_TRUE(R.Ok) << Tag << ": " << R.Error;
      // Without checkpoints a failure restarts the program, so the
      // uninstrumented build runs continuously only.
      if (Plain)
        continue;
      EmulatorOptions Fixed;
      Fixed.Power = PowerSchedule::fixed(2500 + (Seed * 137) % 5000);
      expectEngineIdentical(E, Fixed, Tag + " @ fixed");
    }
  }
}

/// The WARIO_ENGINE kill switch: with Engine = Auto, "interp" must
/// force the oracle (zero threaded dispatches) and anything else —
/// "threaded", the retired "trace", or unset — the threaded engine.
/// Results must not depend on the choice, and an explicit
/// EmulatorOptions::Engine beats the environment.
TEST(EngineEquivalenceTest, EnvKillSwitchSelectsEngine) {
  MModule MM = buildWorkload("crc", CheckpointStrategy::Idempotent);
  ASSERT_FALSE(MM.Functions.empty());
  Emulator E(MM);
  EmulatorOptions EO; // Engine = Auto.

  ASSERT_EQ(setenv("WARIO_ENGINE", "interp", 1), 0);
  EngineStats KillStats;
  EmulatorResult Killed = E.run(EO, "main", nullptr, &KillStats);
  EXPECT_EQ(KillStats.Dispatches, 0u)
      << "WARIO_ENGINE=interp must disable threaded dispatch";

  ASSERT_EQ(setenv("WARIO_ENGINE", "threaded", 1), 0);
  EngineStats ThrStats;
  EmulatorResult Threaded = E.run(EO, "main", nullptr, &ThrStats);
  EXPECT_GT(ThrStats.Dispatches, 0u);

  ASSERT_EQ(setenv("WARIO_ENGINE", "trace", 1), 0);
  EngineStats OtherStats;
  EmulatorResult Other = E.run(EO, "main", nullptr, &OtherStats);
  EXPECT_GT(OtherStats.Dispatches, 0u)
      << "any value but interp must select the threaded engine";

  ASSERT_EQ(unsetenv("WARIO_ENGINE"), 0);
  EngineStats DefStats;
  EmulatorResult Default = E.run(EO, "main", nullptr, &DefStats);
  EXPECT_GT(DefStats.Dispatches, 0u)
      << "unset must default to the threaded engine";
  EXPECT_EQ(resolveEngine(EngineKind::Auto), EngineKind::Threaded);

  EXPECT_TRUE(Killed == Threaded);
  EXPECT_TRUE(Killed == Other);
  EXPECT_TRUE(Killed == Default);

  // An explicit option wins over the environment.
  ASSERT_EQ(setenv("WARIO_ENGINE", "interp", 1), 0);
  EmulatorOptions Explicit;
  Explicit.Engine = EngineKind::Threaded;
  EngineStats ExplStats;
  EmulatorResult Expl = E.run(Explicit, "main", nullptr, &ExplStats);
  EXPECT_GT(ExplStats.Dispatches, 0u) << "explicit Threaded beats env";
  EXPECT_TRUE(Expl == Killed);
  ASSERT_EQ(unsetenv("WARIO_ENGINE"), 0);
}

/// Mixed-engine snapshot resume: a chain recorded under either engine
/// must replay under the other (chain compatibility is deliberately
/// engine-blind), byte-identical to a cold run of the replaying engine,
/// under every strategy — the rollback journals are empty at every
/// recorded region-fresh point on both engines.
TEST(EngineEquivalenceTest, MixedEngineSnapshotResume) {
  for (CheckpointStrategy S : Strategies) {
    MModule MM = buildWorkload("crc", S);
    ASSERT_FALSE(MM.Functions.empty()) << checkpointStrategyName(S);
    Emulator E(MM);
    EmulatorOptions Base;
    Base.CollectRegionSizes = false;

    for (EngineKind RecEngine : {EngineKind::Interp, EngineKind::Threaded}) {
      const EngineKind Other = RecEngine == EngineKind::Interp
                                   ? EngineKind::Threaded
                                   : EngineKind::Interp;
      EmulatorOptions RecEO = Base;
      RecEO.Engine = RecEngine;
      SnapshotChain Chain;
      EmulatorResult Golden = E.record(RecEO, Chain);
      ASSERT_TRUE(Golden.Ok)
          << checkpointStrategyName(S) << ": " << Golden.Error;
      ASSERT_TRUE(Chain.valid()) << checkpointStrategyName(S);

      for (uint64_t C : {Golden.TotalCycles / 3, 2 * Golden.TotalCycles / 3}) {
        EmulatorOptions EO = Base;
        EO.Engine = Other;
        EO.Power = PowerSchedule::trace({C, UINT64_MAX}, "single-crash");
        EmulatorResult Cold = E.run(EO);
        ReplayPlan Plan;
        Plan.Chain = &Chain;
        EmulatorScratch Scratch;
        ReplayOutcome Out;
        EmulatorResult Warm = E.replay(EO, Plan, "main", &Scratch, &Out);
        EXPECT_TRUE(Warm == Cold)
            << checkpointStrategyName(S) << ": recorded "
            << engineName(RecEngine) << ", replayed " << engineName(Other)
            << " @ crash " << C;
        EXPECT_TRUE(Out.Resumed)
            << "engine mismatch must not force a cold fallback";
      }
    }
  }
}

/// The WAR stamps pack (epoch << 1) | kind into 16 bits, so the region
/// epoch wraps at 2^15: the wrap clears the whole stamp array (stale
/// high-epoch entries would otherwise alias fresh small epochs) and
/// restarts at 1. Driving 32k regions organically is minutes of wall
/// time, so the test reuses the documented scratch contract instead: a
/// warm-up run primes Access with live stamps, then the epoch is seeded
/// just below the wrap so the next run crosses it mid-workload. Both
/// engines must produce a result byte-identical to their own
/// fresh-scratch run — under wario and under wario-spec, whose logged
/// stores rewrite read-first stamps.
TEST(EngineEquivalenceTest, EpochWrapStaysByteIdentical) {
  for (CheckpointStrategy S :
       {CheckpointStrategy::Idempotent, CheckpointStrategy::Speculative}) {
    MModule MM = buildWorkload("crc", S);
    ASSERT_FALSE(MM.Functions.empty()) << checkpointStrategyName(S);
    Emulator E(MM);

    for (EngineKind K : {EngineKind::Interp, EngineKind::Threaded}) {
      const std::string Tag =
          std::string(checkpointStrategyName(S)) + "/" + engineName(K);
      EmulatorOptions EO;
      EO.Engine = K;
      EmulatorResult Fresh = E.run(EO);
      ASSERT_TRUE(Fresh.Ok) << Tag << ": " << Fresh.Error;

      EmulatorScratch Scr;
      EmulatorResult Prime = E.run(EO, "main", &Scr);
      ASSERT_TRUE(Prime.Ok) << Tag << ": " << Prime.Error;
      ASSERT_GT(Scr.Epoch, 0u);

      const uint32_t Seed = 0x8000u - 8;
      ASSERT_GT(Fresh.CheckpointsExecuted, 8u)
          << "workload too short to cross the wrap";
      Scr.Epoch = Seed;
      EmulatorResult Wrapped = E.run(EO, "main", &Scr);
      EXPECT_TRUE(Wrapped == Fresh) << Tag << " across epoch wrap";
      // The run really crossed 2^15: the counter restarted at 1 and
      // advanced one epoch per region executed after the wrap.
      EXPECT_LT(Scr.Epoch, Seed) << Tag;
      EXPECT_GE(Scr.Epoch, 1u) << Tag;
    }
  }
}
