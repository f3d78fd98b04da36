//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the Region Bounder extension (paper Section 6 future work):
/// cut-free loops receive register-counter checkpoints that bound the
/// maximum idempotent region without changing program results.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "driver/Pipeline.h"
#include "emu/Emulator.h"
#include "frontend/Frontend.h"
#include "ir/Interp.h"
#include "transforms/RegionBounder.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace wario;

namespace {

// A WAR-free workload: builds a table (writes only), then folds it
// (reads only). Without bounding, each loop is one giant region.
const char *TableProgram = R"(
  unsigned int table[512];
  int main(void) {
    for (int i = 0; i < 512; i++)
      table[i] = (unsigned int)(i * 2654435761);
    unsigned int mix = 0;
    for (int i = 0; i < 512; i++)
      mix = (mix << 1) ^ (mix >> 27) ^ table[i];
    return (int)(mix & 0x7FFFFFFF);
  }
)";

EmulatorResult runBounded(bool Bound, uint64_t Budget,
                          const PowerSchedule &Power,
                          unsigned *LoopsBounded = nullptr) {
  DiagnosticEngine Diags;
  auto M = compileC(TableProgram, "table", Diags);
  EXPECT_TRUE(M) << Diags.formatAll();
  PipelineOptions PO;
  PO.Env = Environment::WarioComplete;
  PO.BoundRegions = Bound;
  PO.MaxRegionCycles = Budget;
  PipelineStats PS;
  MModule MM = compile(*M, PO, &PS);
  if (LoopsBounded)
    *LoopsBounded = PS.RegionsBounded;
  EmulatorOptions EO;
  EO.Power = Power;
  return emulate(MM, EO);
}

uint64_t maxRegion(const EmulatorResult &R) {
  uint64_t Max = 0;
  for (uint64_t S : R.RegionSizes)
    Max = std::max(Max, S);
  return Max;
}

} // namespace

TEST(RegionBounderTest, TransformVerifiesAndPreservesSemantics) {
  DiagnosticEngine Diags;
  auto M = compileC(TableProgram, "table", Diags);
  ASSERT_TRUE(M);
  InterpResult Ref = interpretModule(*M);
  ASSERT_TRUE(Ref.Ok);

  auto M2 = compileC(TableProgram, "table", Diags);
  RegionBounderOptions RB;
  RB.MaxRegionCycles = 2000;
  RegionBounderStats S;
  for (auto &F : M2->functions())
    S.LoopsBounded += boundRegions(*F, RB).LoopsBounded;
  EXPECT_GE(S.LoopsBounded, 2u);
  std::string Err;
  ASSERT_TRUE(verifyModule(*M2, &Err)) << Err;
  InterpResult After = interpretModule(*M2);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(After.ReturnValue, Ref.ReturnValue);
}

TEST(RegionBounderTest, BoundsTheMaximumRegion) {
  EmulatorResult Plain =
      runBounded(false, 0, PowerSchedule::continuous());
  ASSERT_TRUE(Plain.Ok) << Plain.Error;
  unsigned Bounded = 0;
  EmulatorResult Capped =
      runBounded(true, 3000, PowerSchedule::continuous(), &Bounded);
  ASSERT_TRUE(Capped.Ok) << Capped.Error;

  EXPECT_EQ(Plain.ReturnValue, Capped.ReturnValue);
  EXPECT_GE(Bounded, 2u);
  EXPECT_GT(maxRegion(Plain), 5000u) << "test premise: unbounded region";
  // The emulated max can exceed the static estimate somewhat (estimates
  // are per-instruction approximations) but must be in the budget's
  // neighborhood, not the unbounded loop's.
  EXPECT_LT(maxRegion(Capped), 6000u);
  EXPECT_LT(maxRegion(Capped), maxRegion(Plain));
}

TEST(RegionBounderTest, EnablesFasterForwardProgress) {
  // Pick a power-on period below the unbounded max region: the unbounded
  // build cannot finish, the bounded one can.
  EmulatorResult Plain = runBounded(false, 0, PowerSchedule::continuous());
  uint64_t Period = maxRegion(Plain) / 2 + cycles::Boot;

  EmulatorResult Stuck = runBounded(false, 0, PowerSchedule::fixed(Period));
  EXPECT_FALSE(Stuck.Ok) << "expected no forward progress";

  EmulatorResult Fine =
      runBounded(true, Period / 4, PowerSchedule::fixed(Period));
  ASSERT_TRUE(Fine.Ok) << Fine.Error;
  EXPECT_EQ(Fine.ReturnValue, Plain.ReturnValue);
  EXPECT_GT(Fine.PowerFailures, 0u);
  EXPECT_EQ(Fine.WarViolations, 0u);
}

TEST(RegionBounderTest, SkipsLoopsThatAlreadyHaveCuts) {
  // A loop whose body calls a function is already cut at every
  // iteration; the bounder must leave it alone.
  const char *Src = R"(
    unsigned int acc = 0;
    void tick(void) { acc += 1; }
    int main(void) {
      for (int i = 0; i < 50; i++)
        tick();
      return (int)acc;
    }
  )";
  DiagnosticEngine Diags;
  auto M = compileC(Src, "cut", Diags);
  ASSERT_TRUE(M);
  RegionBounderOptions RB;
  RB.MaxRegionCycles = 100;
  RegionBounderStats S;
  for (auto &F : M->functions())
    S.LoopsBounded += boundRegions(*F, RB).LoopsBounded;
  EXPECT_EQ(S.LoopsBounded, 0u);
}

TEST(RegionBounderTest, SteadyStateOverheadIsSmall) {
  EmulatorResult Plain =
      runBounded(false, 0, PowerSchedule::continuous());
  EmulatorResult Capped =
      runBounded(true, 5000, PowerSchedule::continuous());
  ASSERT_TRUE(Plain.Ok && Capped.Ok);
  // One add+cmp+branch per iteration plus a checkpoint per ~budget
  // cycles: well under 35% on this loop-dominated program.
  EXPECT_LT(double(Capped.TotalCycles),
            double(Plain.TotalCycles) * 1.35);
}
