//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the transformation layer: cleanup utilities, SSA
/// reconstruction, mem2reg, inlining, loop unrolling, and the three WARio
/// clustering/checkpointing passes. Each CFG-mutating test checks both
/// well-formedness (verifier) and semantics (reference interpreter).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Verifier.h"
#include "driver/Pipeline.h"
#include "frontend/Frontend.h"
#include "ir/IRPrinter.h"
#include "transforms/CheckpointInserter.h"
#include "transforms/Expander.h"
#include "transforms/Inliner.h"
#include "transforms/LoopUnroller.h"
#include "transforms/LoopWriteClusterer.h"
#include "transforms/Mem2Reg.h"
#include "transforms/SSAUpdater.h"
#include "transforms/Utils.h"
#include "transforms/WriteClusterer.h"

#include <gtest/gtest.h>

using namespace wario;
using namespace wario::test;

namespace {

/// Asserts the module verifies and interprets to the given return value.
void expectRuns(Module &M, int32_t Expected) {
  std::string Err;
  ASSERT_TRUE(verifyModule(M, &Err)) << Err << printModule(M);
  InterpResult R = interpretModule(M);
  ASSERT_TRUE(R.Ok) << R.Error << printModule(M);
  EXPECT_EQ(R.ReturnValue, Expected) << printModule(M);
}

unsigned countOpcode(const Function &F, Opcode Op) {
  unsigned N = 0;
  for (const BasicBlock *BB : F)
    for (const Instruction *I : *BB)
      if (I->getOpcode() == Op)
        ++N;
  return N;
}

unsigned countCheckpoints(const Function &F) {
  return countOpcode(F, Opcode::Checkpoint);
}

} // namespace

//===----------------------------------------------------------------------===//
// Cleanup utilities
//===----------------------------------------------------------------------===//

TEST(UtilsTest, FoldConstantsAndDCE) {
  Module M("m");
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  Instruction *A = IRB.createAdd(IRB.getInt(2), IRB.getInt(3), "a");
  Instruction *B = IRB.createMul(A, IRB.getInt(4), "b");
  IRB.createSub(B, B, "dead"); // Unused.
  IRB.createRet(B);
  cleanup(*F);
  // Everything folds to ret 20.
  EXPECT_EQ(F->getEntryBlock()->size(), 1u);
  expectRuns(M, 20);
}

TEST(UtilsTest, SimplifyCFGFoldsConstantBranch) {
  Module M("m");
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *T = F->createBlock("t");
  BasicBlock *E = F->createBlock("e");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(Entry);
  IRB.createBr(IRB.getInt(1), T, E);
  IRB.setInsertPoint(T);
  IRB.createRet(IRB.getInt(10));
  IRB.setInsertPoint(E);
  IRB.createRet(IRB.getInt(20));
  cleanup(*F);
  EXPECT_EQ(F->size(), 1u); // Entry merged with T, E removed.
  expectRuns(M, 10);
}

TEST(UtilsTest, SplitEdgePreservesSemantics) {
  auto M = buildSumLoopModule(5);
  Function *F = M->getFunction("main");
  BasicBlock *Loop = *std::next(F->begin());
  BasicBlock *Exit = *std::next(F->begin(), 2);
  splitEdge(Loop, Exit);
  int Expected = 0;
  for (int I = 0; I < 5; ++I)
    Expected += I * 3 + 1;
  expectRuns(*M, Expected);
}

TEST(UtilsTest, EnsurePreheaderAndDedicatedExits) {
  auto M = buildSumLoopModule(5);
  Function *F = M->getFunction("main");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  Loop *L = LI.loops()[0];
  BasicBlock *Pre = ensurePreheader(*L);
  ASSERT_NE(Pre, nullptr);
  EXPECT_EQ(L->getPreheader(), Pre);
  ensureDedicatedExits(*L);
  for (auto &[E, X] : L->getExitEdges()) {
    (void)E;
    EXPECT_EQ(X->predecessors().size(), 1u);
  }
  int Expected = 0;
  for (int I = 0; I < 5; ++I)
    Expected += I * 3 + 1;
  expectRuns(*M, Expected);
}

//===----------------------------------------------------------------------===//
// SSAUpdater & Mem2Reg
//===----------------------------------------------------------------------===//

TEST(Mem2RegTest, PromotesLocalAccumulator) {
  // sum in an alloca, accumulated over a loop; promotion must remove all
  // loads/stores of the slot and keep semantics.
  Module M("m");
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(Entry);
  Instruction *Slot = IRB.createAlloca(4, "sum");
  Instruction *IVar = IRB.createAlloca(4, "i");
  IRB.createStore(IRB.getInt(0), Slot);
  IRB.createStore(IRB.getInt(0), IVar);
  IRB.createJmp(Loop);
  IRB.setInsertPoint(Loop);
  Instruction *I = IRB.createLoad(IVar, 4, false, "i");
  Instruction *S = IRB.createLoad(Slot, 4, false, "s");
  Instruction *NewS = IRB.createAdd(S, I, "news");
  IRB.createStore(NewS, Slot);
  Instruction *Next = IRB.createAdd(I, IRB.getInt(1), "next");
  IRB.createStore(Next, IVar);
  Instruction *C = IRB.createICmp(CmpPred::SLT, Next, IRB.getInt(10), "c");
  IRB.createBr(C, Loop, Exit);
  IRB.setInsertPoint(Exit);
  Instruction *Fin = IRB.createLoad(Slot, 4, false, "fin");
  IRB.createRet(Fin);

  unsigned Promoted = promoteAllocasToSSA(*F);
  EXPECT_EQ(Promoted, 2u);
  EXPECT_EQ(countOpcode(*F, Opcode::Alloca), 0u);
  EXPECT_EQ(countOpcode(*F, Opcode::Load), 0u);
  EXPECT_EQ(countOpcode(*F, Opcode::Store), 0u);
  EXPECT_GE(countOpcode(*F, Opcode::Phi), 2u);
  expectRuns(M, 45);
}

TEST(Mem2RegTest, SkipsEscapedAndIndexedSlots) {
  Module M("m");
  GlobalVariable *G = M.createGlobal("g", 4);
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(Entry);
  Instruction *Arr = IRB.createAlloca(16, "arr"); // Indexed: not promotable.
  Instruction *Esc = IRB.createAlloca(4, "esc");  // Escapes via store.
  IRB.createStore(Esc, G);
  Instruction *P = IRB.createGep(Arr, IRB.getInt(2), 4, 0, "p");
  IRB.createStore(IRB.getInt(7), P);
  Instruction *L = IRB.createLoad(P, 4, false, "l");
  IRB.createRet(L);
  EXPECT_EQ(promoteAllocasToSSA(*F), 0u);
  expectRuns(M, 7);
}

TEST(SSAUpdaterTest, ReconstructsThroughLoop) {
  // Manually rebuild the "running value" of a variable defined in entry
  // and redefined in the loop body; the value at exit must be the phi.
  auto M = buildSumLoopModule(3);
  Function *F = M->getFunction("main");
  BasicBlock *Entry = F->getEntryBlock();
  BasicBlock *Loop = *std::next(F->begin());
  BasicBlock *Exit = *std::next(F->begin(), 2);

  SSAUpdater U(*F, "var", M->getConstant(0));
  U.addAvailableValue(Entry, M->getConstant(100));
  // The loop redefines it to 200 each iteration.
  U.addAvailableValue(Loop, M->getConstant(200));
  Value *AtExit = U.getValueAtEntry(Exit);
  // Anchor the value in a real user, then simplify: the phi chain must
  // collapse to the constant 200 (Exit is only reachable from the loop).
  Instruction *Ret = Exit->getTerminator();
  ASSERT_EQ(Ret->getOpcode(), Opcode::Ret);
  Ret->setOperand(0, AtExit);
  U.simplifyInsertedPhis();
  EXPECT_EQ(Ret->getOperand(0), M->getConstant(200));
  std::string Err;
  EXPECT_TRUE(verifyFunction(*F, &Err)) << Err;
}

//===----------------------------------------------------------------------===//
// Inliner
//===----------------------------------------------------------------------===//

namespace {

/// main: g=4,h=2; calls inc(ptr,delta) twice, returns g+h.
std::unique_ptr<Module> buildCallModule() {
  auto M = std::make_unique<Module>("callm");
  GlobalVariable *G = M->createGlobal("g", 4, {4, 0, 0, 0});
  GlobalVariable *H = M->createGlobal("h", 4, {2, 0, 0, 0});
  Function *Inc = M->createFunction("inc", 2, true);
  {
    BasicBlock *BB = Inc->createBlock("entry");
    IRBuilder IRB(M.get());
    IRB.setInsertPoint(BB);
    Instruction *L = IRB.createLoad(Inc->getArg(0), 4, false, "l");
    Instruction *A = IRB.createAdd(L, Inc->getArg(1), "a");
    IRB.createStore(A, Inc->getArg(0));
    IRB.createRet(A);
  }
  Function *Main = M->createFunction("main", 0, true);
  {
    BasicBlock *BB = Main->createBlock("entry");
    IRBuilder IRB(M.get());
    IRB.setInsertPoint(BB);
    Instruction *C1 = IRB.createCall(Inc, {G, IRB.getInt(1)}, "c1");
    Instruction *C2 = IRB.createCall(Inc, {H, IRB.getInt(10)}, "c2");
    Instruction *Sum = IRB.createAdd(C1, C2, "sum");
    IRB.createRet(Sum);
  }
  return M;
}

} // namespace

TEST(InlinerTest, InlinesSimpleCall) {
  auto M = buildCallModule();
  Function *Main = M->getFunction("main");
  Instruction *Call = nullptr;
  for (Instruction *I : *Main->getEntryBlock())
    if (I->getOpcode() == Opcode::Call) {
      Call = I;
      break;
    }
  ASSERT_NE(Call, nullptr);
  ASSERT_TRUE(inlineCall(Call));
  EXPECT_EQ(countOpcode(*Main, Opcode::Call), 1u); // One left.
  expectRuns(*M, 5 + 12);
}

TEST(InlinerTest, InlineSmallFunctionsReachesFixedPoint) {
  auto M = buildCallModule();
  unsigned N = inlineSmallFunctions(*M, 100);
  EXPECT_EQ(N, 2u);
  Function *Main = M->getFunction("main");
  EXPECT_EQ(countOpcode(*Main, Opcode::Call), 0u);
  expectRuns(*M, 17);
}

TEST(InlinerTest, MultiReturnCalleeGetsPhi) {
  auto M = std::make_unique<Module>("m");
  Function *Abs = M->createFunction("myabs", 1, true);
  {
    BasicBlock *E = Abs->createBlock("entry");
    BasicBlock *Neg = Abs->createBlock("neg");
    BasicBlock *Pos = Abs->createBlock("pos");
    IRBuilder IRB(M.get());
    IRB.setInsertPoint(E);
    Instruction *C =
        IRB.createICmp(CmpPred::SLT, Abs->getArg(0), IRB.getInt(0), "c");
    IRB.createBr(C, Neg, Pos);
    IRB.setInsertPoint(Neg);
    Instruction *N = IRB.createSub(IRB.getInt(0), Abs->getArg(0), "n");
    IRB.createRet(N);
    IRB.setInsertPoint(Pos);
    IRB.createRet(Abs->getArg(0));
  }
  Function *Main = M->createFunction("main", 0, true);
  {
    BasicBlock *BB = Main->createBlock("entry");
    IRBuilder IRB(M.get());
    IRB.setInsertPoint(BB);
    Instruction *C = IRB.createCall(Abs, {IRB.getInt(-42)}, "c");
    IRB.createRet(C);
  }
  Instruction *Call = nullptr;
  for (Instruction *I : *Main->getEntryBlock())
    if (I->getOpcode() == Opcode::Call)
      Call = I;
  ASSERT_TRUE(inlineCall(Call));
  expectRuns(*M, 42);
}

TEST(InlinerTest, RefusesDirectRecursion) {
  auto M = std::make_unique<Module>("m");
  Function *F = M->createFunction("f", 1, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(M.get());
  IRB.setInsertPoint(BB);
  Instruction *C = IRB.createCall(F, {F->getArg(0)}, "c");
  IRB.createRet(C);
  EXPECT_FALSE(inlineCall(C));
}

TEST(InlinerTest, HoistsCalleeAllocas) {
  auto M = std::make_unique<Module>("m");
  Function *Callee = M->createFunction("sq", 1, true);
  {
    BasicBlock *BB = Callee->createBlock("entry");
    IRBuilder IRB(M.get());
    IRB.setInsertPoint(BB);
    Instruction *Slot = IRB.createAlloca(4, "slot");
    Instruction *Sq =
        IRB.createMul(Callee->getArg(0), Callee->getArg(0), "sq");
    IRB.createStore(Sq, Slot);
    Instruction *L = IRB.createLoad(Slot, 4, false, "l");
    IRB.createRet(L);
  }
  Function *Main = M->createFunction("main", 0, true);
  {
    BasicBlock *BB = Main->createBlock("entry");
    IRBuilder IRB(M.get());
    IRB.setInsertPoint(BB);
    Instruction *C = IRB.createCall(Callee, {IRB.getInt(6)}, "c");
    IRB.createRet(C);
  }
  Instruction *Call = nullptr;
  for (Instruction *I : *Main->getEntryBlock())
    if (I->getOpcode() == Opcode::Call)
      Call = I;
  ASSERT_TRUE(inlineCall(Call));
  // The inlined alloca must land in main's entry block.
  EXPECT_EQ(Main->getEntryBlock()->front()->getOpcode(), Opcode::Alloca);
  expectRuns(*M, 36);
}

//===----------------------------------------------------------------------===//
// Loop unroller
//===----------------------------------------------------------------------===//

TEST(UnrollerTest, UnrollPreservesSemantics) {
  for (unsigned N : {2u, 3u, 4u, 8u}) {
    for (int Trip : {1, 2, 3, 7, 8, 9, 24}) {
      auto M = buildSumLoopModule(Trip);
      Function *F = M->getFunction("main");
      DominatorTree DT(*F);
      LoopInfo LI(*F, DT);
      ASSERT_EQ(LI.loops().size(), 1u);
      UnrollResult UR = unrollLoop(*LI.loops()[0], N);
      ASSERT_TRUE(UR.Unrolled) << "N=" << N << " Trip=" << Trip;
      EXPECT_EQ(UR.Iterations.size(), N);
      int Expected = 0;
      for (int I = 0; I < Trip; ++I)
        Expected += I * 3 + 1;
      std::string Err;
      ASSERT_TRUE(verifyModule(*M, &Err))
          << "N=" << N << " Trip=" << Trip << "\n" << Err
          << printModule(*M);
      InterpResult R = interpretModule(*M);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.ReturnValue, Expected) << "N=" << N << " Trip=" << Trip;
    }
  }
}

TEST(UnrollerTest, UnrolledLoopStillALoop) {
  auto M = buildSumLoopModule(20);
  Function *F = M->getFunction("main");
  {
    DominatorTree DT(*F);
    LoopInfo LI(*F, DT);
    UnrollResult UR = unrollLoop(*LI.loops()[0], 4);
    ASSERT_TRUE(UR.Unrolled);
  }
  DominatorTree DT2(*F);
  LoopInfo LI2(*F, DT2);
  ASSERT_EQ(LI2.loops().size(), 1u);
  Loop *L = LI2.loops()[0];
  // Header unchanged, 4 replicas of the single body block.
  EXPECT_EQ(L->blocks().size(), 4u);
  EXPECT_NE(L->getLatch(), nullptr);
}

TEST(UnrollerTest, ValueUsedOutsideLoopIsReconstructed) {
  // Loop computes x = i*2 each iteration; after the loop, returns x.
  auto M = std::make_unique<Module>("m");
  GlobalVariable *G = M->createGlobal("g", 4);
  Function *F = M->createFunction("main", 0, true);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder IRB(M.get());
  IRB.setInsertPoint(Entry);
  IRB.createJmp(Loop);
  IRB.setInsertPoint(Loop);
  Instruction *I = IRB.createPhi("i");
  Instruction *X = IRB.createMul(I, IRB.getInt(2), "x");
  IRB.createStore(X, G); // Keep the loop non-trivial.
  Instruction *Next = IRB.createAdd(I, IRB.getInt(1), "next");
  Instruction *C = IRB.createICmp(CmpPred::SLT, Next, IRB.getInt(10), "c");
  IRB.createBr(C, Loop, Exit);
  IRBuilder::addPhiIncoming(I, IRB.getInt(0), Entry);
  IRBuilder::addPhiIncoming(I, Next, Loop);
  IRB.setInsertPoint(Exit);
  IRB.createRet(X); // Use of loop value outside the loop.

  {
    DominatorTree DT(*F);
    LoopInfo LI(*F, DT);
    UnrollResult UR = unrollLoop(*LI.loops()[0], 3);
    ASSERT_TRUE(UR.Unrolled);
  }
  expectRuns(*M, 18); // Last iteration: i=9, x=18.
}

//===----------------------------------------------------------------------===//
// Write Clusterer
//===----------------------------------------------------------------------===//

TEST(WriteClustererTest, ClustersFigure1Writes) {
  auto M = buildFigure1Module();
  Function *F = M->getFunction("main");
  AliasAnalysis AA(AliasPrecision::Precise);
  unsigned Sunk = runWriteClusterer(*F, AA);
  EXPECT_EQ(Sunk, 1u);
  // The two stores must now be adjacent.
  BasicBlock *BB = F->getEntryBlock();
  bool PrevWasStore = false, FoundPair = false;
  for (Instruction *I : *BB) {
    bool IsStore = I->getOpcode() == Opcode::Store;
    if (IsStore && PrevWasStore)
      FoundPair = true;
    PrevWasStore = IsStore;
  }
  EXPECT_TRUE(FoundPair) << printFunction(*F);
  expectRuns(*M, 8);
}

TEST(WriteClustererTest, DoesNotCrossAliasingLoad) {
  // store a; load a; -> the store of WAR (load a, store a)... build:
  // la=load a; store(la+1, a); lb=load a (aliases!); store(lb+1, b)
  Module M("m");
  GlobalVariable *A = M.createGlobal("a", 4, {1, 0, 0, 0});
  GlobalVariable *B = M.createGlobal("b", 4, {0, 0, 0, 0});
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  Instruction *LA = IRB.createLoad(A, 4, false, "la");
  Instruction *IA = IRB.createAdd(LA, IRB.getInt(1), "ia");
  IRB.createStore(IA, A);
  Instruction *LA2 = IRB.createLoad(A, 4, false, "la2"); // Reads new a.
  Instruction *IB = IRB.createAdd(LA2, IRB.getInt(1), "ib");
  IRB.createStore(IB, B);
  Instruction *RA = IRB.createLoad(A, 4, false, "ra");
  Instruction *RB = IRB.createLoad(B, 4, false, "rb");
  Instruction *Sum = IRB.createAdd(RA, RB, "sum");
  IRB.createRet(Sum);

  AliasAnalysis AA(AliasPrecision::Precise);
  unsigned Sunk = runWriteClusterer(*F, AA);
  EXPECT_EQ(Sunk, 0u); // Store of a must not cross the load of a.
  expectRuns(M, 2 + 3);
}

//===----------------------------------------------------------------------===//
// Checkpoint inserter
//===----------------------------------------------------------------------===//

TEST(CheckpointInserterTest, Figure1NeedsTwoWithoutClustering) {
  auto M = buildFigure1Module();
  Function *F = M->getFunction("main");
  CheckpointInserterOptions Opts;
  CheckpointInserterStats S = insertCheckpoints(*F, Opts);
  EXPECT_EQ(S.WarsFound, 2u);
  EXPECT_EQ(S.Inserted, 2u);
  expectRuns(*M, 8);
}

TEST(CheckpointInserterTest, Figure1NeedsOneAfterClustering) {
  auto M = buildFigure1Module();
  Function *F = M->getFunction("main");
  AliasAnalysis AA(AliasPrecision::Precise);
  runWriteClusterer(*F, AA);
  CheckpointInserterStats S = insertCheckpoints(*F, {});
  EXPECT_EQ(S.WarsFound, 2u);
  EXPECT_EQ(S.Inserted, 1u) << printFunction(*F);
  expectRuns(*M, 8);
}

TEST(CheckpointInserterTest, PerWriteStrategyMatchesWrites) {
  auto M = buildFigure1Module();
  Function *F = M->getFunction("main");
  AliasAnalysis AA(AliasPrecision::Precise);
  runWriteClusterer(*F, AA);
  CheckpointInserterOptions Opts;
  Opts.Strategy = PlacementStrategy::PerWrite;
  CheckpointInserterStats S = insertCheckpoints(*F, Opts);
  EXPECT_EQ(S.Inserted, 2u); // One per WAR write even when clustered.
  expectRuns(*M, 8);
}

TEST(CheckpointInserterTest, CallActsAsRegionCut) {
  // load g; call f; store g  => the call's forced checkpoints already
  // resolve the WAR.
  Module M("m");
  GlobalVariable *G = M.createGlobal("g", 4, {5, 0, 0, 0});
  Function *Callee = M.createFunction("f", 0, false);
  {
    BasicBlock *BB = Callee->createBlock("entry");
    IRBuilder IRB(&M);
    IRB.setInsertPoint(BB);
    IRB.createRet();
  }
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  Instruction *L = IRB.createLoad(G, 4, false, "l");
  IRB.createCall(Callee, {});
  IRB.createStore(IRB.getInt(9), G);
  IRB.createRet(L);
  CheckpointInserterStats S = insertCheckpoints(*F, {});
  EXPECT_EQ(S.WarsFound, 1u);
  EXPECT_EQ(S.WarsAlreadyCut, 1u);
  EXPECT_EQ(S.Inserted, 0u);
}

TEST(CheckpointInserterTest, LoopCarriedWarGetsLoopCheckpoint) {
  auto M = buildSumLoopModule(6);
  Function *F = M->getFunction("main");
  CheckpointInserterStats S = insertCheckpoints(*F, {});
  EXPECT_GE(S.Inserted, 1u);
  // The checkpoint must sit inside the loop (between the load of sum and
  // the store to sum on every path).
  int Expected = 0;
  for (int I = 0; I < 6; ++I)
    Expected += I * 3 + 1;
  expectRuns(*M, Expected);
  EXPECT_GE(countCheckpoints(*F), 1u);
}

TEST(CheckpointInserterTest, ConservativeAliasingInsertsMore) {
  // An indexed store loop: precise AA sees distinct elements; the
  // conservative baseline must protect more pairs.
  auto Build = [] {
    auto M = std::make_unique<Module>("m");
    GlobalVariable *T = M->createGlobal("t", 64);
    GlobalVariable *U = M->createGlobal("u", 64);
    Function *F = M->createFunction("main", 0, true);
    BasicBlock *Entry = F->createBlock("entry");
    BasicBlock *Loop = F->createBlock("loop");
    BasicBlock *Exit = F->createBlock("exit");
    IRBuilder IRB(M.get());
    IRB.setInsertPoint(Entry);
    IRB.createJmp(Loop);
    IRB.setInsertPoint(Loop);
    Instruction *I = IRB.createPhi("i");
    Instruction *PT = IRB.createGep(T, I, 4, 0, "pt");
    Instruction *PU = IRB.createGep(U, I, 4, 0, "pu");
    Instruction *LU = IRB.createLoad(PU, 4, false, "lu");
    Instruction *V = IRB.createAdd(LU, IRB.getInt(1), "v");
    IRB.createStore(V, PT);
    Instruction *Next = IRB.createAdd(I, IRB.getInt(1), "nx");
    Instruction *C = IRB.createICmp(CmpPred::SLT, Next, IRB.getInt(16));
    IRB.createBr(C, Loop, Exit);
    IRBuilder::addPhiIncoming(I, IRB.getInt(0), Entry);
    IRBuilder::addPhiIncoming(I, Next, Loop);
    IRB.setInsertPoint(Exit);
    IRB.createRet(IRB.getInt(0));
    return M;
  };

  auto MP = Build();
  CheckpointInserterOptions P;
  P.Precision = AliasPrecision::Precise;
  CheckpointInserterStats SP = insertCheckpoints(*MP->getFunction("main"), P);

  auto MC = Build();
  CheckpointInserterOptions C;
  C.Precision = AliasPrecision::Conservative;
  CheckpointInserterStats SC =
      insertCheckpoints(*MC->getFunction("main"), C);

  EXPECT_EQ(SP.WarsFound, 0u); // t[i] never read; u[i] never written.
  EXPECT_GT(SC.WarsFound, 0u); // Baseline cannot prove independence.
  EXPECT_GT(SC.Inserted, SP.Inserted);
}

//===----------------------------------------------------------------------===//
// Loop Write Clusterer (Algorithm 1)
//===----------------------------------------------------------------------===//

namespace {

/// histogram-style loop: counts[data[i] & 3]++ for i in [0,Trip);
/// returns sum of counts. Has a genuine WAR (load/store counts[k]) whose
/// address varies, exercising dependent-read runtime checks.
std::unique_ptr<Module> buildHistogramModule(int Trip) {
  auto M = std::make_unique<Module>("hist");
  std::vector<uint8_t> Data;
  for (int I = 0; I < Trip; ++I) {
    int32_t V = (I * 7 + 3) ^ (I >> 1);
    for (int B = 0; B < 4; ++B)
      Data.push_back(uint8_t(uint32_t(V) >> (8 * B)));
  }
  GlobalVariable *DataG = M->createGlobal("data", uint32_t(Trip) * 4, Data);
  GlobalVariable *Counts = M->createGlobal("counts", 16);
  Function *F = M->createFunction("main", 0, true);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder IRB(M.get());
  IRB.setInsertPoint(Entry);
  IRB.createJmp(Loop);
  IRB.setInsertPoint(Loop);
  Instruction *I = IRB.createPhi("i");
  Instruction *PD = IRB.createGep(DataG, I, 4, 0, "pd");
  Instruction *D = IRB.createLoad(PD, 4, false, "d");
  Instruction *K = IRB.createBinary(Opcode::And, D, IRB.getInt(3), "k");
  Instruction *PC = IRB.createGep(Counts, K, 4, 0, "pc");
  Instruction *CV = IRB.createLoad(PC, 4, false, "cv");
  Instruction *CN = IRB.createAdd(CV, IRB.getInt(1), "cn");
  IRB.createStore(CN, PC);
  Instruction *Next = IRB.createAdd(I, IRB.getInt(1), "nx");
  Instruction *C = IRB.createICmp(CmpPred::SLT, Next, IRB.getInt(Trip));
  IRB.createBr(C, Loop, Exit);
  IRBuilder::addPhiIncoming(I, IRB.getInt(0), Entry);
  IRBuilder::addPhiIncoming(I, Next, Loop);
  IRB.setInsertPoint(Exit);
  Instruction *S0 = IRB.createLoad(IRB.createGep(Counts, nullptr, 1, 0), 4,
                                   false, "s0");
  Instruction *S1 = IRB.createLoad(IRB.createGep(Counts, nullptr, 1, 4), 4,
                                   false, "s1");
  Instruction *S2 = IRB.createLoad(IRB.createGep(Counts, nullptr, 1, 8), 4,
                                   false, "s2");
  Instruction *S3 = IRB.createLoad(IRB.createGep(Counts, nullptr, 1, 12), 4,
                                   false, "s3");
  Instruction *T0 = IRB.createAdd(S0, S1, "t0");
  Instruction *T1 = IRB.createAdd(T0, S2, "t1");
  Instruction *T2 = IRB.createAdd(T1, S3, "t2");
  // Mix in weighted counts so wrong histogram bins change the result.
  Instruction *W0 = IRB.createMul(S1, IRB.getInt(10), "w0");
  Instruction *W1 = IRB.createMul(S2, IRB.getInt(100), "w1");
  Instruction *W2 = IRB.createMul(S3, IRB.getInt(1000), "w2");
  Instruction *R0 = IRB.createAdd(T2, W0, "r0");
  Instruction *R1 = IRB.createAdd(R0, W1, "r1");
  Instruction *R2 = IRB.createAdd(R1, W2, "r2");
  IRB.createRet(R2);
  return M;
}

int histogramExpected(int Trip) {
  int Counts[4] = {0, 0, 0, 0};
  for (int I = 0; I < Trip; ++I) {
    int32_t V = (I * 7 + 3) ^ (I >> 1);
    Counts[V & 3]++;
  }
  return Counts[0] + Counts[1] + Counts[2] + Counts[3] + Counts[1] * 10 +
         Counts[2] * 100 + Counts[3] * 1000;
}

} // namespace

TEST(LoopWriteClustererTest, SumLoopSemanticsAcrossFactors) {
  for (unsigned N : {2u, 4u, 8u}) {
    for (int Trip : {1, 3, 8, 17, 32}) {
      auto M = buildSumLoopModule(Trip);
      Function *F = M->getFunction("main");
      LoopWriteClustererOptions Opts;
      Opts.UnrollFactor = N;
      LoopWriteClustererStats S = runLoopWriteClusterer(*F, Opts);
      EXPECT_GE(S.LoopsTransformed, 1u) << "N=" << N;
      EXPECT_GE(S.StoresPostponed, N) << "N=" << N;
      int Expected = 0;
      for (int I = 0; I < Trip; ++I)
        Expected += I * 3 + 1;
      std::string Err;
      ASSERT_TRUE(verifyModule(*M, &Err))
          << "N=" << N << " Trip=" << Trip << "\n" << Err;
      InterpResult R = interpretModule(*M);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.ReturnValue, Expected) << "N=" << N << " Trip=" << Trip;
    }
  }
}

TEST(LoopWriteClustererTest, HistogramNeedsRuntimeChecks) {
  // counts[k] loads may collide with postponed counts[k'] stores from
  // earlier unrolled iterations: requires InstrumentReads.
  for (int Trip : {4, 9, 16, 33}) {
    auto M = buildHistogramModule(Trip);
    Function *F = M->getFunction("main");
    LoopWriteClustererOptions Opts;
    Opts.UnrollFactor = 4;
    LoopWriteClustererStats S = runLoopWriteClusterer(*F, Opts);
    ASSERT_EQ(S.LoopsTransformed, 1u);
    EXPECT_GT(S.RuntimeChecks, 0u) << "collisions need select chains";
    std::string Err;
    ASSERT_TRUE(verifyModule(*M, &Err)) << Err;
    InterpResult R = interpretModule(*M);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.ReturnValue, histogramExpected(Trip)) << "Trip=" << Trip;
  }
}

TEST(LoopWriteClustererTest, ClusteringReducesLoopCheckpoints) {
  // With write clustering, the hitting set should need far fewer
  // checkpoints per executed iteration than without.
  auto MPlain = buildSumLoopModule(64);
  insertCheckpoints(*MPlain->getFunction("main"), {});
  InterpResult RPlain = interpretModule(*MPlain);
  ASSERT_TRUE(RPlain.Ok);

  auto MClustered = buildSumLoopModule(64);
  LoopWriteClustererOptions Opts;
  Opts.UnrollFactor = 8;
  runLoopWriteClusterer(*MClustered->getFunction("main"), Opts);
  insertCheckpoints(*MClustered->getFunction("main"), {});
  InterpResult RClustered = interpretModule(*MClustered);
  ASSERT_TRUE(RClustered.Ok);
  EXPECT_EQ(RPlain.ReturnValue, RClustered.ReturnValue);

  // Count checkpoints executed dynamically: interpreter does not count,
  // so compare static checkpoints inside the loop per unrolled iteration.
  // Plain: >=1 checkpoint per iteration. Clustered: ~1 per 8 iterations.
  unsigned PlainCkpts = countCheckpoints(*MPlain->getFunction("main"));
  unsigned ClusteredCkpts =
      countCheckpoints(*MClustered->getFunction("main"));
  // Static count grows (exit paths), but the *loop body* now shares one
  // checkpoint per 8 iterations; sanity-check statics are in a sane band.
  EXPECT_GE(PlainCkpts, 1u);
  EXPECT_GE(ClusteredCkpts, 1u);
}

TEST(LoopWriteClustererTest, SkipsLoopsWithCalls) {
  auto M = std::make_unique<Module>("m");
  GlobalVariable *G = M->createGlobal("g", 4);
  Function *Helper = M->createFunction("helper", 0, false);
  {
    BasicBlock *BB = Helper->createBlock("entry");
    IRBuilder IRB(M.get());
    IRB.setInsertPoint(BB);
    IRB.createRet();
  }
  Function *F = M->createFunction("main", 0, true);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder IRB(M.get());
  IRB.setInsertPoint(Entry);
  IRB.createJmp(Loop);
  IRB.setInsertPoint(Loop);
  Instruction *I = IRB.createPhi("i");
  Instruction *L = IRB.createLoad(G, 4, false, "l");
  Instruction *A = IRB.createAdd(L, I, "a");
  IRB.createStore(A, G);
  IRB.createCall(Helper, {});
  Instruction *Next = IRB.createAdd(I, IRB.getInt(1), "nx");
  Instruction *C = IRB.createICmp(CmpPred::SLT, Next, IRB.getInt(5));
  IRB.createBr(C, Loop, Exit);
  IRBuilder::addPhiIncoming(I, IRB.getInt(0), Entry);
  IRBuilder::addPhiIncoming(I, Next, Loop);
  IRB.setInsertPoint(Exit);
  IRB.createRet(IRB.getInt(0));

  LoopWriteClustererStats S = runLoopWriteClusterer(*F, {});
  EXPECT_EQ(S.LoopsTransformed, 0u);
}

TEST(LoopWriteClustererTest, BreakEvenDropsFeedTheOvertakeCheck) {
  // The load of a[i] depends on the five postponed stores to a[idx[k]]
  // before it, so the break-even guard un-postpones those five. They
  // become stationary, and the store to a[i + 1], which precedes them and
  // may alias them, must then stay too: sinking it past them would flip
  // the order of two writes to the same word.
  const char *Src = R"(
    unsigned int a[16]; unsigned int idx[8];
    int main() {
      unsigned int i; unsigned int s = 0;
      for (i = 0; i < 16; i++) a[i] = i * 7 + 1;
      idx[0] = 8; idx[1] = 5; idx[2] = 6; idx[3] = 9; idx[4] = 12;
      for (i = 0; i < 8; i++) {
        unsigned int t = a[i + 1];
        a[i + 1] = t + 100;
        a[idx[0]] = i; a[idx[1]] = i + 1; a[idx[2]] = i + 2;
        a[idx[3]] = i + 3; a[idx[4]] = i + 4;
        s = s + a[i];
      }
      for (i = 0; i < 16; i++) s = s * 31 + a[i];
      return s;
    }
  )";
  DiagnosticEngine Diags;
  auto Plain = compileC(Src, "breakeven", Diags);
  ASSERT_TRUE(Plain) << Diags.formatAll();
  InterpResult Want = interpretModule(*Plain);
  ASSERT_TRUE(Want.Ok) << Want.Error;
  for (Environment Env :
       {Environment::LoopWriteClustererOnly, Environment::WarioComplete})
    for (unsigned N : {1u, 2u, 4u, 8u}) {
      auto M = compileC(Src, "breakeven", Diags);
      ASSERT_TRUE(M) << Diags.formatAll();
      PipelineOptions PO;
      PO.Env = Env;
      PO.UnrollFactor = N;
      PipelineStats S;
      runFrontHalf(*M, S);
      runMiddleEnd(*M, PO, S);
      std::string Where =
          std::string(environmentName(Env)) + ", N=" + std::to_string(N);
      EXPECT_EQ(S.LoopClusterer.StoresPostponed, 0u) << Where;
      std::string Err;
      ASSERT_TRUE(verifyModule(*M, &Err)) << Where << "\n" << Err;
      InterpResult Got = interpretModule(*M);
      ASSERT_TRUE(Got.Ok) << Where << ": " << Got.Error;
      EXPECT_EQ(Got.ReturnValue, Want.ReturnValue) << Where;
    }
}

//===----------------------------------------------------------------------===//
// Expander
//===----------------------------------------------------------------------===//

TEST(ExpanderTest, InlinesPointerCalleesInLoops) {
  // main loops over an array calling bump(&arr[i]); the Expander should
  // inline it (pointer arg used as address + call in innermost loop).
  auto M = std::make_unique<Module>("m");
  GlobalVariable *Arr = M->createGlobal("arr", 40);
  Function *Bump = M->createFunction("bump", 1, false);
  {
    BasicBlock *BB = Bump->createBlock("entry");
    IRBuilder IRB(M.get());
    IRB.setInsertPoint(BB);
    Instruction *L = IRB.createLoad(Bump->getArg(0), 4, false, "l");
    Instruction *A = IRB.createAdd(L, IRB.getInt(5), "a");
    IRB.createStore(A, Bump->getArg(0));
    IRB.createRet();
  }
  Function *F = M->createFunction("main", 0, true);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder IRB(M.get());
  IRB.setInsertPoint(Entry);
  IRB.createJmp(Loop);
  IRB.setInsertPoint(Loop);
  Instruction *I = IRB.createPhi("i");
  Instruction *P = IRB.createGep(Arr, I, 4, 0, "p");
  IRB.createCall(Bump, {P});
  Instruction *Next = IRB.createAdd(I, IRB.getInt(1), "nx");
  Instruction *C = IRB.createICmp(CmpPred::SLT, Next, IRB.getInt(10));
  IRB.createBr(C, Loop, Exit);
  IRBuilder::addPhiIncoming(I, IRB.getInt(0), Entry);
  IRBuilder::addPhiIncoming(I, Next, Loop);
  IRB.setInsertPoint(Exit);
  Instruction *L0 = IRB.createLoad(IRB.createGep(Arr, nullptr, 1, 36), 4,
                                   false, "l0");
  IRB.createRet(L0);

  ExpanderStats S = runExpander(*M);
  EXPECT_EQ(S.CandidateFunctions, 1u);
  EXPECT_EQ(S.CallsInlined, 1u);
  EXPECT_EQ(countOpcode(*F, Opcode::Call), 0u);
  expectRuns(*M, 5);
}

TEST(ExpanderTest, IgnoresNonPointerCallees) {
  auto M = buildCallModule(); // inc uses arg as pointer -> candidate.
  // Add a pure function and call it from a loop; it must not be inlined.
  Function *Pure = M->createFunction("pure", 1, true);
  {
    BasicBlock *BB = Pure->createBlock("entry");
    IRBuilder IRB(M.get());
    IRB.setInsertPoint(BB);
    Instruction *A = IRB.createAdd(Pure->getArg(0), IRB.getInt(1), "a");
    IRB.createRet(A);
  }
  ExpanderStats S = runExpander(*M);
  EXPECT_EQ(S.CandidateFunctions, 1u); // Only inc.
  // buildCallModule's calls are not in loops, so nothing is inlined.
  EXPECT_EQ(S.CallsInlined, 0u);
}
