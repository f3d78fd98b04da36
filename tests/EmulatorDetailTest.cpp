//===----------------------------------------------------------------------===//
///
/// \file
/// Fine-grained emulator tests: hand-built machine modules exercising the
/// checkpoint double buffer, restore semantics, frame slot addressing,
/// push/pop symmetry, interrupt masking, output capture, the cycle
/// accounting, and the failure guards. These pin down the emulator
/// behaviors every experiment depends on.
///
//===----------------------------------------------------------------------===//

#include "emu/Emulator.h"
#include "emu/Fusion.h"
#include "emu/ThreadedEngine.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace wario;

namespace {

/// Builder for small hand-written machine functions.
class MBuilder {
public:
  explicit MBuilder(const std::string &Name) {
    MF.Name = Name;
    MF.PostRA = true;
    MF.FrameLowered = true;
  }

  MBuilder &block(const std::string &Name) {
    MF.Blocks.push_back({Name, {}});
    return *this;
  }

  MInst &emit(MOp Op) {
    MF.Blocks.back().Insts.push_back({});
    MInst &I = MF.Blocks.back().Insts.back();
    I.Op = Op;
    return I;
  }

  MBuilder &movImm(int Dst, int64_t Imm) {
    MInst &I = emit(MOp::MovImm);
    I.Dst = Dst;
    I.Imm = Imm;
    return *this;
  }
  MBuilder &mov(int Dst, int Src) {
    MInst &I = emit(MOp::Mov);
    I.Dst = Dst;
    I.Src[0] = Src;
    return *this;
  }
  MBuilder &add(int Dst, int A, int B) {
    MInst &I = emit(MOp::Add);
    I.Dst = Dst;
    I.Src[0] = A;
    I.Src[1] = B;
    return *this;
  }
  MBuilder &str(int Src, int AddrReg, int64_t Off = 0) {
    MInst &I = emit(MOp::Str);
    I.Src[0] = Src;
    I.Src[1] = AddrReg;
    I.Imm = Off;
    return *this;
  }
  MBuilder &ldr(int Dst, int AddrReg, int64_t Off = 0) {
    MInst &I = emit(MOp::Ldr);
    I.Dst = Dst;
    I.Src[0] = AddrReg;
    I.Imm = Off;
    return *this;
  }
  MBuilder &checkpoint(CheckpointCause C = CheckpointCause::MiddleEndWar) {
    emit(MOp::Checkpoint).Cause = C;
    return *this;
  }
  MBuilder &setcond(CmpPred P, int Dst, int A, int B) {
    MInst &I = emit(MOp::SetCond);
    I.Pred = P;
    I.Dst = Dst;
    I.Src[0] = A;
    I.Src[1] = B;
    return *this;
  }
  MBuilder &cbr(int Cond, int T, int F) {
    MInst &I = emit(MOp::CBr);
    I.Src[0] = Cond;
    I.Target[0] = T;
    I.Target[1] = F;
    return *this;
  }
  MBuilder &b(int T) {
    emit(MOp::B).Target[0] = T;
    return *this;
  }
  MBuilder &ret(int ValueReg = -1) {
    if (ValueReg >= 0 && ValueReg != R0) {
      MInst &Mv = emit(MOp::Mov);
      Mv.Dst = R0;
      Mv.Src[0] = ValueReg;
    }
    emit(MOp::Ret);
    return *this;
  }

  MModule module() {
    MModule MM;
    MM.Name = "hand";
    MM.DataEnd = 0x1100; // Leave room for a few data words.
    MM.InitImage.assign(MM.DataEnd, 0);
    MM.Functions.push_back(std::move(MF));
    return MM;
  }

private:
  MFunction MF;
};

constexpr uint32_t DataWord = 0x1000;

} // namespace

TEST(EmulatorDetailTest, ReturnsRegisterR0) {
  MBuilder B("main");
  B.block("entry").movImm(R0, 1234);
  B.emit(MOp::Ret);
  EmulatorResult R = emulate(B.module());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, 1234);
}

TEST(EmulatorDetailTest, MemoryRoundTripAndFinalImage) {
  MBuilder B("main");
  B.block("entry")
      .movImm(R1, DataWord)
      .movImm(R2, 0xBEEF)
      .str(R2, R1)
      .ldr(R0, R1);
  B.emit(MOp::Ret);
  EmulatorResult R = emulate(B.module());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, 0xBEEF);
  EXPECT_EQ(R.readWord(DataWord), 0xBEEFu);
}

TEST(EmulatorDetailTest, SubWordAccessAndSignExtension) {
  MBuilder B("main");
  B.block("entry").movImm(R1, DataWord).movImm(R2, 0x1FF);
  {
    MInst &S = B.emit(MOp::Str);
    S.Src[0] = R2;
    S.Src[1] = R1;
    S.Size = 1; // Only the low byte lands.
  }
  {
    MInst &L = B.emit(MOp::Ldr);
    L.Dst = R0;
    L.Src[0] = R1;
    L.Size = 1;
    L.Signed = true; // 0xFF -> -1.
  }
  B.emit(MOp::Ret);
  EmulatorResult R = emulate(B.module());
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue, -1);
}

TEST(EmulatorDetailTest, PushPopSymmetry) {
  MBuilder B("main");
  B.block("entry").movImm(R4, 11).movImm(R5, 22);
  B.emit(MOp::Push).RegList = (1u << R4) | (1u << R5);
  B.movImm(R4, 0).movImm(R5, 0);
  B.emit(MOp::Pop).RegList = (1u << R4) | (1u << R5);
  B.add(R0, R4, R5);
  B.emit(MOp::Ret);
  EmulatorResult R = emulate(B.module());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, 33);
}

TEST(EmulatorDetailTest, CheckpointRestoreResumesAfterCommit) {
  // Loop: r4 counts to 100 with a checkpoint each round; power fails
  // every ~500 cycles. Restores must resume mid-loop, not from entry.
  MBuilder B("main");
  B.block("entry").movImm(R4, 0).b(1);
  B.block("loop").checkpoint();
  B.movImm(R1, 1).add(R4, R4, R1);
  B.movImm(R2, 100).setcond(CmpPred::ULT, R3, R4, R2).cbr(R3, 1, 2);
  B.block("exit").ret(R4);

  EmulatorOptions EO;
  EO.Power = PowerSchedule::fixed(1200);
  EmulatorResult R = emulate(B.module(), EO);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, 100);
  EXPECT_GT(R.PowerFailures, 0u);
  EXPECT_GE(R.CheckpointsExecuted, 100u);
}

TEST(EmulatorDetailTest, NoCheckpointMeansRestartFromEntry) {
  // Without any checkpoint, every reboot restarts main; the program
  // never finishes under a period shorter than its runtime.
  MBuilder B("main");
  B.block("entry").movImm(R4, 0).b(1);
  B.block("loop");
  B.movImm(R1, 1).add(R4, R4, R1);
  B.movImm(R2, 5000).setcond(CmpPred::ULT, R3, R4, R2).cbr(R3, 1, 2);
  B.block("exit").ret(R4);

  EmulatorOptions EO;
  EO.Power = PowerSchedule::fixed(2000);
  EO.MaxStalledBoots = 16;
  EmulatorResult R = emulate(B.module(), EO);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("no forward progress"), std::string::npos);
}

TEST(EmulatorDetailTest, WarMonitorFlagsReadThenWrite) {
  MBuilder B("main");
  B.block("entry").movImm(R1, DataWord).ldr(R2, R1).movImm(R3, 7).str(
      R3, R1);
  B.movImm(R0, 0);
  B.emit(MOp::Ret);
  EmulatorOptions EO;
  EO.WarIsFatal = false;
  EmulatorResult R = emulate(B.module(), EO);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.WarViolations, 1u);
  ASSERT_FALSE(R.WarReports.empty());
  EXPECT_NE(R.WarReports[0].find("WAR violation"), std::string::npos);
}

TEST(EmulatorDetailTest, CheckpointClearsTheRegion) {
  // read x; CHECKPOINT; write x  => no violation.
  MBuilder B("main");
  B.block("entry").movImm(R1, DataWord).ldr(R2, R1).checkpoint();
  B.movImm(R3, 7).str(R3, R1).movImm(R0, 0);
  B.emit(MOp::Ret);
  EmulatorResult R = emulate(B.module());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.WarViolations, 0u);
}

TEST(EmulatorDetailTest, WriteFirstIsNotAViolation) {
  MBuilder B("main");
  B.block("entry").movImm(R1, DataWord).movImm(R3, 7).str(R3, R1).ldr(
      R2, R1);
  B.str(R2, R1); // Write after read-after-write of the same spot: the
                 // first access was a write, so replay is idempotent.
  B.movImm(R0, 0);
  B.emit(MOp::Ret);
  EmulatorResult R = emulate(B.module());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.WarViolations, 0u);
}

TEST(EmulatorDetailTest, InterruptsRespectPrimask) {
  // With IntMask held the whole run, no interrupt may fire.
  MBuilder B("main");
  B.block("entry");
  B.emit(MOp::IntMask);
  B.movImm(R4, 0).b(1);
  B.block("loop").movImm(R1, 1).add(R4, R4, R1);
  B.movImm(R2, 2000).setcond(CmpPred::ULT, R3, R4, R2).cbr(R3, 1, 2);
  B.block("exit").ret(R4);
  EmulatorOptions EO;
  EO.InterruptPeriod = 100;
  EmulatorResult R = emulate(B.module(), EO);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.InterruptsTaken, 0u);

  // Same program without the mask takes many.
  MBuilder B2("main");
  B2.block("entry").movImm(R4, 0).b(1);
  B2.block("loop").movImm(R1, 1).add(R4, R4, R1);
  B2.movImm(R2, 2000).setcond(CmpPred::ULT, R3, R4, R2).cbr(R3, 1, 2);
  B2.block("exit").ret(R4);
  EmulatorResult R2 = emulate(B2.module(), EO);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_GT(R2.InterruptsTaken, 0u);
}

TEST(EmulatorDetailTest, OutInstructionCapturesOutput) {
  MBuilder B("main");
  B.block("entry").movImm(R1, 42);
  B.emit(MOp::Out).Src[0] = R1;
  B.movImm(R1, 43);
  B.emit(MOp::Out).Src[0] = R1;
  B.movImm(R0, 0);
  B.emit(MOp::Ret);
  EmulatorResult R = emulate(B.module());
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Output, (std::vector<int32_t>{42, 43}));
}

TEST(EmulatorDetailTest, CycleBudgetGuardsInfiniteLoops) {
  MBuilder B("main");
  B.block("entry").b(0);
  EmulatorOptions EO;
  EO.MaxCycles = 100'000;
  EmulatorResult R = emulate(B.module(), EO);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("cycle budget"), std::string::npos);
}

TEST(EmulatorDetailTest, CheckpointCausesAttributedExactly) {
  MBuilder B("main");
  B.block("entry")
      .checkpoint(CheckpointCause::FunctionEntry)
      .checkpoint(CheckpointCause::MiddleEndWar)
      .checkpoint(CheckpointCause::MiddleEndWar)
      .checkpoint(CheckpointCause::BackendSpill)
      .checkpoint(CheckpointCause::FunctionExit)
      .movImm(R0, 0);
  B.emit(MOp::Ret);
  EmulatorResult R = emulate(B.module());
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Causes.FunctionEntry, 1u);
  EXPECT_EQ(R.Causes.MiddleEndWar, 2u);
  EXPECT_EQ(R.Causes.BackendSpill, 1u);
  EXPECT_EQ(R.Causes.FunctionExit, 1u);
  EXPECT_EQ(R.CheckpointsExecuted, 5u);
  EXPECT_EQ(R.RegionSizes.size(), 5u);
}

TEST(EmulatorDetailTest, CheckpointDoubleBufferLayout) {
  // Section 4.5's double buffer: a commit saves r0-r14 and the resume pc
  // into the buffer the active word does not name, then flips the word.
  // Active word 1 names buffer 0, 2 names buffer 1; a buffer holds r_i
  // at +4*i and the resume pc at +60.
  constexpr uint32_t ActiveWord = 0x100, Buf0 = 0x110, Buf1 = 0x160;
  constexpr uint32_t CodeAddrBit = 0x80000000u;
  for (EngineKind Engine : {EngineKind::Interp, EngineKind::Threaded}) {
    for (unsigned Commits = 1; Commits <= 3; ++Commits) {
      // Commit K runs with r0-r12 = K << 8 | i (sp and lr keep their boot
      // values), and its Checkpoint is code index 14K - 1.
      MBuilder B("main");
      B.block("entry");
      for (unsigned K = 1; K <= Commits; ++K) {
        for (int Rn = R0; Rn <= R12; ++Rn)
          B.movImm(Rn, K << 8 | unsigned(Rn));
        B.checkpoint();
      }
      B.emit(MOp::Ret);
      EmulatorOptions EO;
      EO.Engine = Engine;
      EmulatorResult R = emulate(B.module(), EO);
      const std::string Tag = std::string(engineName(Engine)) + " after " +
                              std::to_string(Commits) + " commits";
      ASSERT_TRUE(R.Ok) << Tag << ": " << R.Error;
      ASSERT_EQ(R.CheckpointsExecuted, Commits) << Tag;
      EXPECT_EQ(R.readWord(ActiveWord), Commits % 2 ? 1u : 2u) << Tag;

      // The last commit and the one before it fill opposite buffers:
      // odd commits buffer 0, even commits buffer 1.
      for (unsigned K = std::max(Commits, 2u) - 1; K <= Commits; ++K) {
        const uint32_t Buf = K % 2 ? Buf0 : Buf1;
        for (unsigned Rn = R0; Rn <= R12; ++Rn)
          EXPECT_EQ(R.readWord(Buf + 4 * Rn), K << 8 | Rn)
              << Tag << ": commit " << K << " r" << Rn;
        EXPECT_EQ(R.readWord(Buf + 4 * SP), memmap::StackTop) << Tag;
        EXPECT_EQ(R.readWord(Buf + 4 * LR), 0xFFFFFFFEu) << Tag;
        EXPECT_EQ(R.readWord(Buf + 60), CodeAddrBit | (14 * K)) << Tag;
      }
      if (Commits == 1) {
        for (uint32_t Off = 0; Off != 64; Off += 4)
          EXPECT_EQ(R.readWord(Buf1 + Off), 0u) << Tag << ": +" << Off;
      }
    }
  }
}

TEST(EmulatorDetailTest, FusedGroupBailsMidGroupLikeTheInterpreter) {
  // A fused group whose component k > 0 cannot complete retires its
  // k-component prefix, charging those components' cycles, and hands the
  // offender to step(). Each program below opens with a MovImm pair (one
  // group of its own) ahead of the group under test; the threaded run
  // must match the interpreter on every field, cycles included.
  constexpr uint32_t OutOfBounds = memmap::MemSize + 0x100;
  struct Case {
    const char *Name;
    MModule Program;
    bool WarIsFatal;
  };
  std::vector<Case> Cases;
  {
    MBuilder B("main"); // Mov + Str to the OutPort: bails at component 1.
    B.block("entry").movImm(R2, memmap::OutPort).movImm(R1, 42);
    B.mov(R3, R1).str(R3, R2).movImm(R0, 0);
    B.emit(MOp::Ret);
    Cases.push_back({"Mov+Str to OutPort", B.module(), true});
  }
  {
    MBuilder B("main"); // Mov + out-of-bounds Ldr: bails at component 1.
    B.block("entry").movImm(R2, OutOfBounds).movImm(R1, 7);
    B.mov(R3, R2).ldr(R0, R3);
    B.emit(MOp::Ret);
    Cases.push_back({"Mov+Ldr out of bounds", B.module(), true});
  }
  {
    MBuilder B("main"); // Add + Mov + out-of-bounds Ldr: component 2.
    B.block("entry").movImm(R1, OutOfBounds - 8).movImm(R2, 8);
    B.add(R3, R1, R2).mov(R4, R3).ldr(R0, R4);
    B.emit(MOp::Ret);
    Cases.push_back({"Add+Mov+Ldr out of bounds", B.module(), true});
  }
  {
    MBuilder B("main"); // Mov + Str completing a WAR: component 1.
    B.block("entry").movImm(R2, DataWord).movImm(R1, 7);
    B.ldr(R4, R2).mov(R3, R1).str(R3, R2).movImm(R0, 0);
    B.emit(MOp::Ret);
    Cases.push_back({"Mov+Str completing a WAR", B.module(), false});
  }

  for (const Case &C : Cases) {
    EmulatorOptions EO;
    EO.WarIsFatal = C.WarIsFatal;
    EO.Engine = EngineKind::Interp;
    const EmulatorResult Interp = emulate(C.Program, EO);
    EO.Engine = EngineKind::Threaded;
    const EmulatorResult Threaded = emulate(C.Program, EO);
    EXPECT_EQ(Threaded.Ok, Interp.Ok) << C.Name;
    EXPECT_EQ(Threaded.Error, Interp.Error) << C.Name;
    EXPECT_EQ(Threaded.TotalCycles, Interp.TotalCycles) << C.Name;
    EXPECT_EQ(Threaded.InstructionsExecuted, Interp.InstructionsExecuted)
        << C.Name;
    EXPECT_EQ(Threaded.Output, Interp.Output) << C.Name;
    EXPECT_EQ(Threaded.WarViolations, Interp.WarViolations) << C.Name;
    EXPECT_TRUE(Threaded == Interp) << C.Name;
  }
}

TEST(EmulatorDetailTest, EveryCatalogKindRunsLikeTheInterpreter) {
  // Every catalog pattern, kinds no workload reaches included: its
  // components alone in a block entered by a branch and left by an op
  // that is no component, so the threaded run dispatches exactly that
  // group. Each component reads the value its predecessor wrote (the
  // in-group forwarding path) and writes its own register, which the
  // tail outputs. LdrSlot reads slot 0 and Ldr DataWord; StrSlot writes
  // slot 1 and Str DataWord + 4, so no component completes a WAR.
  struct Kind {
    const char *Name;
    std::vector<MOp> Ops;
  };
  const Kind Kinds[] = {
#define WARIO_TEST_P(A, B) {#A "," #B, {MOp::A, MOp::B}},
#define WARIO_TEST_T(A, B, C) {#A "," #B "," #C, {MOp::A, MOp::B, MOp::C}},
      WARIO_EMU_FUSED_KINDS(WARIO_TEST_P, WARIO_TEST_T)
#undef WARIO_TEST_P
#undef WARIO_TEST_T
  };

  // The ALU components shift by the Shift register: 5 takes the
  // in-range arm of Lsl/Lsr/Asr, 33 the arm for amounts of 32 or more.
  constexpr int A = R1, Shift = R2, Addr = R3, FirstDst = R4;
  for (const uint32_t ShiftBy : {5u, 33u})
    for (const Kind &K : Kinds) {
      SCOPED_TRACE(testing::Message() << K.Name << ", shift " << ShiftBy);
      MBuilder B("main");
      // Set-up: each op alone between Nops, so nothing before the block
      // under test fuses.
      B.block("entry").emit(MOp::SpAdjust).Imm = -8;
      B.movImm(A, 0x9E3779B9).emit(MOp::Nop);
      B.movImm(Shift, ShiftBy).emit(MOp::Nop);
      B.movImm(Addr, DataWord).emit(MOp::Nop);
      MInst &Fill = B.emit(MOp::StrSlot); // Slot 0 = A.
      Fill.Src[0] = A;
      Fill.Slot = 0;
      B.emit(MOp::Nop);
      B.b(1);

      B.block("group");
      int Last = A; // The register the previous component wrote.
      for (size_t I = 0; I != K.Ops.size(); ++I) {
        const int Dst = FirstDst + int(I);
        MInst &C = B.emit(K.Ops[I]);
        switch (K.Ops[I]) {
        case MOp::MovImm:
          C.Imm = I == 0 ? 0x12345 : 0x77; // Cost 2, then cost 1.
          C.Dst = Dst;
          break;
        case MOp::CBr:
          C.Src[0] = Last;
          C.Target[0] = 2;
          C.Target[1] = 3;
          break;
        case MOp::LdrSlot:
          C.Dst = Dst;
          C.Slot = 0;
          break;
        case MOp::StrSlot:
          C.Src[0] = Last;
          C.Slot = 1;
          break;
        case MOp::Ldr:
          C.Dst = Dst;
          C.Src[0] = Addr;
          break;
        case MOp::Str:
          C.Src[0] = Last;
          C.Src[1] = Addr;
          C.Imm = 4;
          break;
        default: // Mov, SetCond and the ALU ops.
          C.Pred = CmpPred::UGT;
          C.Dst = Dst;
          C.Src[0] = Last;
          C.Src[1] = Shift;
          break;
        }
        if (C.Dst >= 0)
          Last = Dst;
      }
      if (K.Ops.back() != MOp::CBr)
        B.b(2);

      B.block("tail");
      for (int Reg = FirstDst; Reg != FirstDst + 3; ++Reg)
        B.emit(MOp::Out).Src[0] = Reg;
      B.emit(MOp::Ret);
      B.block("not-taken");
      B.emit(MOp::Out).Src[0] = A;
      B.b(2);

      MModule M = B.module();
      M.Functions[0].Slots = {{FrameSlot::Kind::Spill, 4, 0},
                              {FrameSlot::Kind::Spill, 4, 4}};
      M.Functions[0].FrameSize = 8;
      for (unsigned I = 0; I != 4; ++I)
        M.InitImage[DataWord + I] = uint8_t(0x0BADF00Du >> (8 * I));

      EmulatorOptions EO;
      EO.CollectEventTrace = true; // Compares the stores' stamp cycles too.
      EO.Engine = EngineKind::Interp;
      const EmulatorResult Interp = emulate(M, EO);
      EO.Engine = EngineKind::Threaded;
      EngineStats St;
      const EmulatorResult Threaded = Emulator(M).run(EO, "main", nullptr, &St);
      ASSERT_TRUE(Interp.Ok) << K.Name << ": " << Interp.Error;
      EXPECT_EQ(St.FusedDispatches, 1u) << K.Name;
      EXPECT_EQ(St.FusedInstructions, K.Ops.size()) << K.Name;
      EXPECT_EQ(Threaded.Output, Interp.Output) << K.Name;
      EXPECT_EQ(Threaded.TotalCycles, Interp.TotalCycles) << K.Name;
      EXPECT_TRUE(Threaded == Interp) << K.Name;
    }
}

TEST(PowerTraceTest, SchedulesAreDeterministicAndSane) {
  PowerSchedule A1 = harvesterTraceAlpha();
  PowerSchedule A2 = harvesterTraceAlpha();
  for (unsigned I = 0; I != 64; ++I)
    EXPECT_EQ(A1.onDuration(I), A2.onDuration(I));
  PowerSchedule B = harvesterTraceBeta();
  for (unsigned I = 0; I != 64; ++I) {
    EXPECT_GE(A1.onDuration(I), 50'000u);
    EXPECT_GE(B.onDuration(I), 1'000'000u);
  }
  EXPECT_TRUE(PowerSchedule::continuous().isContinuous());
  EXPECT_EQ(PowerSchedule::fixed(123).onDuration(7), 123u);
  EXPECT_EQ(PowerSchedule::continuous().onDuration(0), UINT64_MAX);
}

TEST(MIRTest, SizeModelAndPrinting) {
  MInst Mov;
  Mov.Op = MOp::Mov;
  EXPECT_EQ(Mov.sizeInBytes(), 2u);
  MInst Big;
  Big.Op = MOp::MovImm;
  Big.Imm = 0x12345678;
  EXPECT_EQ(Big.sizeInBytes(), 8u);
  MInst Small;
  Small.Op = MOp::MovImm;
  Small.Imm = 42;
  EXPECT_EQ(Small.sizeInBytes(), 4u);

  MBuilder B("main");
  B.block("entry").movImm(R0, 7);
  B.emit(MOp::Ret);
  MModule MM = B.module();
  std::string Text = printMModule(MM);
  EXPECT_NE(Text.find("mfunc @main"), std::string::npos);
  EXPECT_NE(Text.find("movimm r0, #7"), std::string::npos);
  EXPECT_GT(MM.textSizeBytes(), 0u);
}
