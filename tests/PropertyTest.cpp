//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based tests over randomly generated, well-defined C-subset
/// programs:
///
///  1. Differential correctness: the IR interpreter, the uninstrumented
///     build, and every instrumented environment agree on the result.
///  2. Intermittent safety: under arbitrary fixed power periods and the
///     harvester traces, instrumented builds still agree and execute
///     with zero WAR violations.
///  3. Static soundness: after checkpoint insertion, no WAR dependence
///     in the IR remains uncut, and before it the inserter counts as
///     already cut exactly the WARs that are (both checked with an
///     independent path scanner, not the inserter's own logic).
///  4. Pass-pipeline invariants: the verifier holds after every stage.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include "analysis/Verifier.h"
#include "analysis/WarDependence.h"
#include "driver/Pipeline.h"
#include "emu/Emulator.h"
#include "frontend/Frontend.h"
#include "ir/Cloning.h"
#include "ir/IRPrinter.h"
#include "ir/Interp.h"
#include "transforms/LoopUnroller.h"
#include "transforms/LoopWriteClusterer.h"
#include "transforms/Mem2Reg.h"
#include "transforms/Utils.h"
#include "transforms/WriteClusterer.h"

#include <gtest/gtest.h>

using namespace wario;
using namespace wario::test;

namespace {

std::unique_ptr<Module> compileSeed(uint32_t Seed) {
  RandomProgramGenerator Gen(Seed);
  std::string Source = Gen.generate();
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = compileC(Source, "fuzz", Diags);
  EXPECT_TRUE(M) << "seed " << Seed << " failed to compile:\n"
                 << Diags.formatAll() << "\n---- source ----\n"
                 << Source;
  return M;
}

/// Independent path scanner: every instruction reachable from just after
/// the read \p R on a path that passes no Checkpoint or Call
/// (instruction-level BFS, written separately from the inserter's
/// per-read sweep), as flags by instruction id. A WAR (R, W) is cut iff W
/// is not flagged; WAR lists are grouped by read, so callers scan once per
/// read.
std::vector<bool> uncutFrom(const Instruction *R) {
  std::vector<bool> Reached(R->getFunction()->nextInstId(), false);
  std::vector<const BasicBlock *> Work;
  std::set<const BasicBlock *> VisitedTop;
  // Records the block's instructions from \p From on until a cut; true if
  // the scan fell through to the successors.
  auto Scan = [&](BasicBlock::iterator From, BasicBlock::iterator End) {
    for (; From != End; ++From) {
      if ((*From)->getOpcode() == Opcode::Checkpoint ||
          (*From)->getOpcode() == Opcode::Call)
        return false; // Cut: stop exploring this path.
      Reached[(*From)->getId()] = true;
    }
    return true;
  };
  auto After = std::find(R->getParent()->begin(), R->getParent()->end(), R);
  const BasicBlock *BB = R->getParent();
  bool FellThrough = Scan(std::next(After), BB->end());
  while (true) {
    if (FellThrough)
      for (BasicBlock *S : BB->successors())
        if (VisitedTop.insert(S).second)
          Work.push_back(S);
    if (Work.empty())
      return Reached;
    BB = Work.back();
    Work.pop_back();
    FellThrough = Scan(BB->begin(), BB->end());
  }
}

/// Calls \p Judge(D, Cut) for each WAR of \p F at precision \p P, with
/// Cut set when the path scanner finds the WAR already cut.
template <typename Fn>
void judgeWars(Function &F, AliasPrecision P, Fn Judge) {
  AliasAnalysis AA(P);
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  CFGReachability Reach(F, LI);
  const Instruction *Read = nullptr;
  std::vector<bool> Uncut;
  for (const MemDep &D : findWars(F, AA, LI, Reach)) {
    if (D.Src != Read) {
      Read = D.Src;
      Uncut = uncutFrom(Read);
    }
    Judge(D, !Uncut[D.Dst->getId()]);
  }
}

/// Independent checker: every WAR dependence must have a Checkpoint or
/// Call on every read->write path.
bool allWarsCut(Function &F, std::string *Offender) {
  bool AllCut = true;
  judgeWars(F, AliasPrecision::Precise, [&](const MemDep &D, bool Cut) {
    if (Cut || !AllCut)
      return;
    AllCut = false;
    if (Offender)
      *Offender = "uncut WAR: read '" + printInstruction(*D.Src) +
                  "' -> write '" + printInstruction(*D.Dst) + "' in @" +
                  F.getName();
  });
  return AllCut;
}

class FuzzSuite : public ::testing::TestWithParam<uint32_t> {};

} // namespace

TEST_P(FuzzSuite, InterpreterAndAllEnvironmentsAgree) {
  uint32_t Seed = GetParam();
  auto Oracle = compileSeed(Seed);
  ASSERT_TRUE(Oracle);
  InterpResult Ref = interpretModule(*Oracle);
  ASSERT_TRUE(Ref.Ok) << "seed " << Seed << ": " << Ref.Error;

  for (Environment Env : allEnvironments()) {
    auto M = compileSeed(Seed);
    PipelineOptions PO;
    PO.Env = Env;
    MModule MM = compile(*M, PO);
    EmulatorOptions EO;
    EO.CollectRegionSizes = false;
    if (Env == Environment::PlainC)
      EO.WarIsFatal = false;
    EmulatorResult R = emulate(MM, EO);
    ASSERT_TRUE(R.Ok) << "seed " << Seed << " @ " << environmentName(Env)
                      << ": " << R.Error;
    EXPECT_EQ(R.ReturnValue, Ref.ReturnValue)
        << "seed " << Seed << " @ " << environmentName(Env);
    if (Env != Environment::PlainC) {
      EXPECT_EQ(R.WarViolations, 0u)
          << "seed " << Seed << " @ " << environmentName(Env);
    }
  }
}

TEST_P(FuzzSuite, SurvivesRandomPowerSchedules) {
  uint32_t Seed = GetParam();
  auto Oracle = compileSeed(Seed);
  ASSERT_TRUE(Oracle);
  InterpResult Ref = interpretModule(*Oracle);
  ASSERT_TRUE(Ref.Ok);

  // Derive pseudo-random periods from the seed itself.
  uint64_t Periods[3] = {2500 + (Seed * 137) % 5000,
                         9000 + (Seed * 7919) % 20000, 60'000};
  for (Environment Env :
       {Environment::Ratchet, Environment::WarioComplete}) {
    auto M = compileSeed(Seed);
    PipelineOptions PO;
    PO.Env = Env;
    MModule MM = compile(*M, PO);
    for (uint64_t P : Periods) {
      EmulatorOptions EO;
      EO.CollectRegionSizes = false;
      EO.Power = PowerSchedule::fixed(P);
      EmulatorResult R = emulate(MM, EO);
      ASSERT_TRUE(R.Ok) << "seed " << Seed << " period " << P << " @ "
                        << environmentName(Env) << ": " << R.Error;
      EXPECT_EQ(R.ReturnValue, Ref.ReturnValue)
          << "seed " << Seed << " period " << P;
      EXPECT_EQ(R.WarViolations, 0u) << "seed " << Seed;
    }
  }
}

TEST_P(FuzzSuite, NoUncutWarSurvivesInsertion) {
  uint32_t Seed = GetParam();
  auto M = compileSeed(Seed);
  ASSERT_TRUE(M);
  // Run the full WARio middle end.
  PipelineOptions PO;
  PO.Env = Environment::WarioComplete;
  compile(*M, PO); // Module keeps the transformed IR.
  std::string Offender;
  for (auto &F : M->functions()) {
    if (F->isDeclaration())
      continue;
    EXPECT_TRUE(allWarsCut(*F, &Offender)) << "seed " << Seed << ": "
                                           << Offender;
  }
}

/// The checkpoint inserter's WarsAlreadyCut must count exactly the WARs
/// the path scanner finds cut, on the IR the WARio pipeline hands it
/// (front half, Loop Write Clusterer, unroller, Write Clusterer), under
/// every strategy and both alias precisions.
TEST_P(FuzzSuite, AlreadyCutWarsMatchPathScanner) {
  uint32_t Seed = GetParam();
  auto M = compileSeed(Seed);
  ASSERT_TRUE(M);
  PipelineStats FrontStats;
  runFrontHalf(*M, FrontStats);
  for (auto &F : M->functions()) {
    runLoopWriteClusterer(*F, LoopWriteClustererOptions{});
    cleanup(*F);
    unrollStandardLoops(*F, /*Factor=*/4, /*MaxBodyInsts=*/40);
    cleanup(*F);
    AliasAnalysis AA(AliasPrecision::Precise);
    runWriteClusterer(*F, AA);
  }

  for (AliasPrecision P :
       {AliasPrecision::Conservative, AliasPrecision::Precise}) {
    unsigned AlreadyCut = 0;
    for (auto &F : M->functions())
      if (!F->isDeclaration())
        judgeWars(*F, P,
                  [&](const MemDep &, bool Cut) { AlreadyCut += Cut; });
    for (CheckpointStrategy Mode :
         {CheckpointStrategy::Idempotent, CheckpointStrategy::Differential,
          CheckpointStrategy::Speculative}) {
      std::unique_ptr<Module> C = cloneModule(*M);
      CheckpointInserterOptions Opts;
      Opts.Precision = P;
      Opts.Mode = Mode;
      CheckpointInserterStats S;
      for (auto &F : C->functions())
        S.WarsAlreadyCut += insertCheckpoints(*F, Opts).WarsAlreadyCut;
      EXPECT_EQ(S.WarsAlreadyCut, AlreadyCut)
          << "seed " << Seed << ", "
          << (P == AliasPrecision::Precise ? "precise" : "conservative")
          << ", " << checkpointStrategyName(Mode);
    }
  }
}

TEST_P(FuzzSuite, PassesPreserveVerification) {
  uint32_t Seed = GetParam();
  auto M = compileSeed(Seed);
  ASSERT_TRUE(M);
  std::string Err;
  ASSERT_TRUE(verifyModule(*M, &Err)) << "seed " << Seed << "\n" << Err;

  for (auto &F : M->functions())
    promoteAllocasToSSA(*F);
  ASSERT_TRUE(verifyModule(*M, &Err))
      << "seed " << Seed << " after mem2reg\n" << Err;
  for (auto &F : M->functions())
    cleanup(*F);
  ASSERT_TRUE(verifyModule(*M, &Err))
      << "seed " << Seed << " after cleanup\n" << Err;

  LoopWriteClustererOptions LWC;
  for (auto &F : M->functions())
    runLoopWriteClusterer(*F, LWC);
  ASSERT_TRUE(verifyModule(*M, &Err))
      << "seed " << Seed << " after loop write clusterer\n" << Err;
  for (auto &F : M->functions())
    cleanup(*F);

  AliasAnalysis AA(AliasPrecision::Precise);
  for (auto &F : M->functions())
    runWriteClusterer(*F, AA);
  ASSERT_TRUE(verifyModule(*M, &Err))
      << "seed " << Seed << " after write clusterer\n" << Err;

  for (auto &F : M->functions())
    insertCheckpoints(*F, {});
  ASSERT_TRUE(verifyModule(*M, &Err))
      << "seed " << Seed << " after checkpoint insertion\n" << Err;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSuite,
                         ::testing::Range(1u, 61u));
