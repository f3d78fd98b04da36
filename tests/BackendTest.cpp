//===----------------------------------------------------------------------===//
///
/// \file
/// Backend and emulator tests: instruction selection, register
/// allocation, frame lowering, spill checkpoints, and the full
/// compile-and-emulate differential against the IR interpreter — under
/// continuous power, intermittent power, and interrupts.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "backend/Backend.h"
#include "backend/Frame.h"
#include "backend/ISel.h"
#include "driver/Pipeline.h"
#include "emu/Emulator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <functional>

using namespace wario;
using namespace wario::test;

namespace {

using ModuleBuilder = std::function<std::unique_ptr<Module>()>;

/// Reference result: interpret the untouched module.
int32_t oracle(const ModuleBuilder &Build) {
  auto M = Build();
  InterpResult R = interpretModule(*M);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.ReturnValue;
}

/// Compiles a fresh copy for \p Env and emulates it.
EmulatorResult compileAndRun(const ModuleBuilder &Build, Environment Env,
                             EmulatorOptions EOpts = {}) {
  auto M = Build();
  PipelineOptions POpts;
  POpts.Env = Env;
  MModule MM = compile(*M, POpts);
  if (Env == Environment::PlainC)
    EOpts.WarIsFatal = false; // Uninstrumented code is not WAR-free.
  return emulate(MM, EOpts);
}

/// A register-pressure-heavy loop: accumulates 14 interleaved linear
/// recurrences so the allocator must spill, producing back-end WARs.
std::unique_ptr<Module> buildPressureModule() {
  auto M = std::make_unique<Module>("pressure");
  GlobalVariable *Seed = M->createGlobal("seed", 4, {3, 0, 0, 0});
  Function *F = M->createFunction("main", 0, true);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder IRB(M.get());
  IRB.setInsertPoint(Entry);
  Instruction *S0 = IRB.createLoad(Seed, 4, false, "s0");
  IRB.createJmp(Loop);

  IRB.setInsertPoint(Loop);
  Instruction *I = IRB.createPhi("i");
  const int NumChains = 14;
  std::vector<Instruction *> Phis, Next;
  for (int C = 0; C < NumChains; ++C)
    Phis.push_back(IRB.createPhi("c" + std::to_string(C)));
  for (int C = 0; C < NumChains; ++C) {
    Instruction *Mixed =
        IRB.createMul(Phis[C], IRB.getInt(C * 2 + 3), "m" + std::to_string(C));
    Instruction *N = IRB.createAdd(
        Mixed, C == 0 ? static_cast<Value *>(I) : Phis[(C + 7) % NumChains],
        "n" + std::to_string(C));
    Next.push_back(N);
  }
  Instruction *NextI = IRB.createAdd(I, IRB.getInt(1), "ni");
  Instruction *Cmp = IRB.createICmp(CmpPred::SLT, NextI, IRB.getInt(23));
  IRB.createBr(Cmp, Loop, Exit);
  IRBuilder::addPhiIncoming(I, IRB.getInt(0), Entry);
  IRBuilder::addPhiIncoming(I, NextI, Loop);
  for (int C = 0; C < NumChains; ++C) {
    IRBuilder::addPhiIncoming(Phis[C], S0, Entry);
    IRBuilder::addPhiIncoming(Phis[C], Next[C], Loop);
  }

  IRB.setInsertPoint(Exit);
  Value *Acc = IRB.getInt(0);
  for (int C = 0; C < NumChains; ++C)
    Acc = IRB.createBinary(Opcode::Xor, Acc, Next[C], "x" + std::to_string(C));
  IRB.createRet(cast<Instruction>(Acc));
  return M;
}

const std::vector<std::pair<const char *, ModuleBuilder>> &testPrograms() {
  static const std::vector<std::pair<const char *, ModuleBuilder>> Programs =
      {
          {"figure1", [] { return buildFigure1Module(); }},
          {"sumloop", [] { return buildSumLoopModule(37); }},
          {"pressure", [] { return buildPressureModule(); }},
      };
  return Programs;
}

} // namespace

//===----------------------------------------------------------------------===//
// ISel / RegAlloc basics
//===----------------------------------------------------------------------===//

TEST(ISelTest, LowersFigure1) {
  auto M = buildFigure1Module();
  MFunction MF = selectInstructions(*M->getFunction("main"));
  EXPECT_EQ(MF.Blocks.size(), 1u);
  EXPECT_GT(MF.NumVRegs, 0u);
  EXPECT_EQ(MF.countOpcode(MOp::Ldr), 2u);
  EXPECT_EQ(MF.countOpcode(MOp::Str), 2u);
  EXPECT_EQ(MF.countOpcode(MOp::Ret), 1u);
}

TEST(ISelTest, RemainderExpandsToDivMulSub) {
  Module M("m");
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  Instruction *R = IRB.createBinary(Opcode::URem, IRB.getInt(17),
                                    IRB.getInt(5), "r");
  IRB.createRet(R);
  MFunction MF = selectInstructions(*F);
  EXPECT_EQ(MF.countOpcode(MOp::UDiv), 1u);
  EXPECT_EQ(MF.countOpcode(MOp::Mul), 1u);
  EXPECT_EQ(MF.countOpcode(MOp::Sub), 1u);
}

TEST(RegAllocTest, PressureLoopSpills) {
  auto M = buildPressureModule();
  BackendOptions BO;
  BO.InsertCheckpoints = false;
  BackendStats Stats;
  MModule MM = runBackend(*M, BO, &Stats);
  EXPECT_GT(Stats.Spilled, 0u);
  EXPECT_GT(Stats.SpillSlots, 0u);
  // And the lowered code still computes the right value.
  EmulatorOptions EO;
  EO.WarIsFatal = false;
  EmulatorResult R = emulate(MM, EO);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, oracle([] { return buildPressureModule(); }));
}

TEST(RegAllocTest, SlotSharingUsesFewerSlots) {
  auto Count = [](bool Sharing) {
    auto M = buildPressureModule();
    BackendOptions BO;
    BO.InsertCheckpoints = false;
    BO.StackSlotSharing = Sharing;
    BackendStats Stats;
    runBackend(*M, BO, &Stats);
    return Stats;
  };
  BackendStats NoShare = Count(false);
  BackendStats Share = Count(true);
  EXPECT_EQ(NoShare.Spilled, Share.Spilled);
  EXPECT_LE(Share.SpillSlots, NoShare.SpillSlots);
}

//===----------------------------------------------------------------------===//
// Frame lowering
//===----------------------------------------------------------------------===//

TEST(FrameTest, EntryCheckpointAndEpilogShape) {
  auto M = buildFigure1Module();
  BackendOptions BO;
  MModule MM = runBackend(*M, BO);
  const MFunction *Main = MM.getFunction("main");
  ASSERT_NE(Main, nullptr);
  // First instruction is the function-entry checkpoint.
  const MInst &First = Main->Blocks[0].Insts.front();
  EXPECT_EQ(First.Op, MOp::Checkpoint);
  EXPECT_EQ(First.Cause, CheckpointCause::FunctionEntry);
}

TEST(FrameTest, EpilogOptimizerReducesExitCheckpoints) {
  auto CountExits = [](bool Optimized) {
    auto M = buildPressureModule(); // Has spills => frame + saved regs.
    BackendOptions BO;
    BO.EpilogOptimizer = Optimized;
    MModule MM = runBackend(*M, BO);
    const MFunction *Main = MM.getFunction("main");
    unsigned N = 0;
    bool SawMask = false;
    for (const MBasicBlock &BB : Main->Blocks)
      for (const MInst &I : BB.Insts) {
        if (I.Op == MOp::Checkpoint &&
            I.Cause == CheckpointCause::FunctionExit)
          ++N;
        if (I.Op == MOp::IntMask)
          SawMask = true;
      }
    EXPECT_EQ(SawMask, Optimized);
    return N;
  };
  unsigned Basic = CountExits(false);
  unsigned Opt = CountExits(true);
  EXPECT_GT(Basic, Opt);
  EXPECT_EQ(Opt, 1u);
}

TEST(FrameTest, SpillCheckpointsHittingSetVsPerWrite) {
  auto CountSpillCkpts = [](bool HittingSet) {
    auto M = buildPressureModule();
    BackendOptions BO;
    BO.HittingSetSpill = HittingSet;
    BackendStats Stats;
    runBackend(*M, BO, &Stats);
    return Stats;
  };
  BackendStats HS = CountSpillCkpts(true);
  BackendStats PW = CountSpillCkpts(false);
  EXPECT_EQ(HS.SpillWars, PW.SpillWars);
  if (HS.SpillWars > 0) {
    EXPECT_LE(HS.SpillCheckpoints, PW.SpillCheckpoints);
  }
}

/// The link step drops MInst::Callee, so the printer must name calls
/// through CalleeIdx; every workload calls functions.
TEST(MIRPrinterTest, PrintsLinkedWorkloadModules) {
  for (const Workload &W : allWorkloads()) {
    DiagnosticEngine Diags;
    std::unique_ptr<Module> M = buildWorkloadIR(W, Diags);
    ASSERT_TRUE(M) << Diags.formatAll();
    PipelineOptions PO;
    PO.Env = Environment::WarioComplete;
    MModule MM = compile(*M, PO);
    std::string Text = printMModule(MM);
    unsigned Calls = 0;
    for (const MFunction &F : MM.Functions) {
      EXPECT_NE(Text.find("mfunc @" + F.Name + " "), std::string::npos);
      for (const MBasicBlock &BB : F.Blocks)
        for (const MInst &I : BB.Insts)
          if (I.Op == MOp::Bl) {
            ++Calls;
            ASSERT_GE(I.CalleeIdx, 0);
            EXPECT_NE(Text.find("  bl @" + MM.Functions[I.CalleeIdx].Name +
                                "\n"),
                      std::string::npos)
                << W.Name;
          }
    }
    EXPECT_GT(Calls, 0u) << W.Name;
  }
}

//===----------------------------------------------------------------------===//
// Differential: compile + emulate vs. interpreter
//===----------------------------------------------------------------------===//

TEST(EmulatorTest, ContinuousPowerMatchesInterpreterAllEnvironments) {
  for (auto &[Name, Build] : testPrograms()) {
    int32_t Expected = oracle(Build);
    for (Environment Env : allEnvironments()) {
      EmulatorResult R = compileAndRun(Build, Env);
      ASSERT_TRUE(R.Ok) << Name << " @ " << environmentName(Env) << ": "
                        << R.Error;
      EXPECT_EQ(R.ReturnValue, Expected)
          << Name << " @ " << environmentName(Env);
      if (Env != Environment::PlainC) {
        EXPECT_EQ(R.WarViolations, 0u)
            << Name << " @ " << environmentName(Env);
      }
    }
  }
}

TEST(EmulatorTest, InstrumentedCodeSurvivesIntermittentPower) {
  for (auto &[Name, Build] : testPrograms()) {
    int32_t Expected = oracle(Build);
    for (Environment Env : {Environment::Ratchet, Environment::RPDG,
                            Environment::WarioComplete,
                            Environment::WarioExpander}) {
      for (uint64_t Period : {3000ull, 10000ull, 50000ull}) {
        EmulatorOptions EO;
        EO.Power = PowerSchedule::fixed(Period);
        EmulatorResult R = compileAndRun(Build, Env, EO);
        ASSERT_TRUE(R.Ok) << Name << " @ " << environmentName(Env)
                          << " period=" << Period << ": " << R.Error;
        EXPECT_EQ(R.ReturnValue, Expected)
            << Name << " @ " << environmentName(Env)
            << " period=" << Period;
        EXPECT_EQ(R.WarViolations, 0u)
            << Name << " @ " << environmentName(Env);
        // Small programs can finish inside the first on-period.
        if (R.TotalCycles > Period) {
          EXPECT_GT(R.PowerFailures, 0u) << Name << " period=" << Period;
        }
      }
    }
  }
}

TEST(EmulatorTest, PlainCBreaksUnderIntermittentPower) {
  // Figure 1's claim: unprotected code corrupts NVM on re-execution.
  ModuleBuilder Build = [] { return buildFigure1Module(); };
  int32_t Expected = oracle(Build);
  bool SawCorruption = false;
  for (uint64_t Period = 1030; Period < 1130; Period += 7) {
    EmulatorOptions EO;
    EO.Power = PowerSchedule::fixed(Period);
    EO.MaxStalledBoots = 1000;
    EmulatorResult R = compileAndRun(Build, Environment::PlainC, EO);
    if (!R.Ok)
      continue; // Stalled: no forward progress without checkpoints.
    if (R.ReturnValue != Expected || R.WarViolations > 0)
      SawCorruption = true;
  }
  EXPECT_TRUE(SawCorruption)
      << "expected at least one period to corrupt the WAR in figure 1";
}

TEST(EmulatorTest, HarvesterTracesComplete) {
  ModuleBuilder Build = [] { return buildSumLoopModule(64); };
  int32_t Expected = oracle(Build);
  for (auto Trace : {harvesterTraceAlpha(), harvesterTraceBeta()}) {
    EmulatorOptions EO;
    EO.Power = Trace;
    EmulatorResult R =
        compileAndRun(Build, Environment::WarioComplete, EO);
    ASSERT_TRUE(R.Ok) << Trace.name() << ": " << R.Error;
    EXPECT_EQ(R.ReturnValue, Expected);
    EXPECT_EQ(R.WarViolations, 0u);
  }
}

TEST(EmulatorTest, InterruptsDoNotBreakProtection) {
  for (auto &[Name, Build] : testPrograms()) {
    int32_t Expected = oracle(Build);
    for (Environment Env :
         {Environment::RPDG, Environment::WarioComplete}) {
      EmulatorOptions EO;
      EO.InterruptPeriod = 700;
      EmulatorResult R = compileAndRun(Build, Env, EO);
      ASSERT_TRUE(R.Ok) << Name << " @ " << environmentName(Env) << ": "
                        << R.Error;
      EXPECT_EQ(R.ReturnValue, Expected) << Name;
      EXPECT_EQ(R.WarViolations, 0u) << Name;
      // Tiny programs can finish before the first interrupt period.
      if (R.TotalCycles > cycles::Boot + 2 * EO.InterruptPeriod) {
        EXPECT_GT(R.InterruptsTaken, 0u) << Name;
      }
    }
  }
}

TEST(EmulatorTest, InterruptsPlusPowerFailures) {
  ModuleBuilder Build = [] { return buildSumLoopModule(512); };
  int32_t Expected = oracle(Build);
  EmulatorOptions EO;
  EO.InterruptPeriod = 900;
  EO.Power = PowerSchedule::fixed(7000);
  EmulatorResult R = compileAndRun(Build, Environment::WarioComplete, EO);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, Expected);
  EXPECT_EQ(R.WarViolations, 0u);
  EXPECT_GT(R.PowerFailures, 0u);
  EXPECT_GT(R.InterruptsTaken, 0u);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(EmulatorTest, CheckpointCausesAreAttributed) {
  ModuleBuilder Build = [] { return buildSumLoopModule(20); };
  EmulatorResult R = compileAndRun(Build, Environment::RPDG);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.CheckpointsExecuted, 0u);
  EXPECT_EQ(R.CheckpointsExecuted, R.Causes.total());
  // main's entry checkpoint executes exactly once under continuous power.
  EXPECT_GE(R.Causes.FunctionEntry, 1u);
  // The loop-carried WAR on @sum forces middle-end checkpoints.
  EXPECT_GT(R.Causes.MiddleEndWar, 0u);
}

TEST(EmulatorTest, WarioExecutesFewerCheckpointsThanRatchet) {
  ModuleBuilder Build = [] { return buildSumLoopModule(128); };
  EmulatorResult Ratchet = compileAndRun(Build, Environment::Ratchet);
  EmulatorResult Wario = compileAndRun(Build, Environment::WarioComplete);
  ASSERT_TRUE(Ratchet.Ok && Wario.Ok);
  EXPECT_LT(Wario.CheckpointsExecuted, Ratchet.CheckpointsExecuted);
  EXPECT_LT(Wario.TotalCycles, Ratchet.TotalCycles);
}

TEST(EmulatorTest, RegionSizesRecorded) {
  ModuleBuilder Build = [] { return buildSumLoopModule(16); };
  EmulatorResult R = compileAndRun(Build, Environment::WarioComplete);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.RegionSizes.size(), R.CheckpointsExecuted);
  for (uint64_t S : R.RegionSizes)
    EXPECT_GT(S, 0u);
}

TEST(EmulatorTest, PlainCHasSmallerTextThanInstrumented) {
  auto TextSize = [](Environment Env) {
    auto M = buildSumLoopModule(16);
    PipelineOptions PO;
    PO.Env = Env;
    MModule MM = compile(*M, PO);
    return MM.textSizeBytes();
  };
  EXPECT_LT(TextSize(Environment::PlainC),
            TextSize(Environment::Ratchet));
}

TEST(EmulatorTest, UninstrumentedHasNoCheckpoints) {
  ModuleBuilder Build = [] { return buildFigure1Module(); };
  EmulatorResult R = compileAndRun(Build, Environment::PlainC);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.CheckpointsExecuted, 0u);
}
