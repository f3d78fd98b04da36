//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for dominators, post-dominators, loop info, alias analysis,
/// WAR dependences, and the verifier.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "analysis/Verifier.h"
#include "analysis/WarDependence.h"
#include "driver/Pipeline.h"
#include "frontend/Frontend.h"
#include "ir/IRPrinter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace wario;
using namespace wario::test;

namespace {

/// entry -> {then, else} -> merge -> ret; a classic diamond.
std::unique_ptr<Module> buildDiamond() {
  auto M = std::make_unique<Module>("diamond");
  GlobalVariable *G = M->createGlobal("g", 4);
  Function *F = M->createFunction("main", 0, true);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  BasicBlock *Merge = F->createBlock("merge");
  IRBuilder IRB(M.get());
  IRB.setInsertPoint(Entry);
  Instruction *L = IRB.createLoad(G, 4, false, "l");
  Instruction *C = IRB.createICmp(CmpPred::SGT, L, IRB.getInt(0), "c");
  IRB.createBr(C, Then, Else);
  IRB.setInsertPoint(Then);
  IRB.createJmp(Merge);
  IRB.setInsertPoint(Else);
  IRB.createJmp(Merge);
  IRB.setInsertPoint(Merge);
  Instruction *Phi = IRB.createPhi("r");
  IRBuilder::addPhiIncoming(Phi, IRB.getInt(1), Then);
  IRBuilder::addPhiIncoming(Phi, IRB.getInt(2), Else);
  IRB.createRet(Phi);
  return M;
}

BasicBlock *blockNamed(Function *F, const std::string &Name) {
  for (BasicBlock *BB : *F)
    if (BB->getName() == Name)
      return BB;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Dominators
//===----------------------------------------------------------------------===//

TEST(DominatorsTest, DiamondDominance) {
  auto M = buildDiamond();
  Function *F = M->getFunction("main");
  DominatorTree DT(*F);
  BasicBlock *Entry = blockNamed(F, "entry");
  BasicBlock *Then = blockNamed(F, "then");
  BasicBlock *Else = blockNamed(F, "else");
  BasicBlock *Merge = blockNamed(F, "merge");

  EXPECT_TRUE(DT.dominates(Entry, Then));
  EXPECT_TRUE(DT.dominates(Entry, Else));
  EXPECT_TRUE(DT.dominates(Entry, Merge));
  EXPECT_FALSE(DT.dominates(Then, Merge));
  EXPECT_FALSE(DT.dominates(Else, Merge));
  EXPECT_TRUE(DT.dominates(Merge, Merge));
  EXPECT_EQ(DT.getIDom(Merge), Entry);
  EXPECT_EQ(DT.getIDom(Then), Entry);
  EXPECT_EQ(DT.getIDom(Entry), nullptr);
}

TEST(DominatorsTest, DiamondPostDominance) {
  auto M = buildDiamond();
  Function *F = M->getFunction("main");
  DominatorTree PDT(*F, /*Post=*/true);
  BasicBlock *Entry = blockNamed(F, "entry");
  BasicBlock *Then = blockNamed(F, "then");
  BasicBlock *Merge = blockNamed(F, "merge");

  EXPECT_TRUE(PDT.dominates(Merge, Entry));
  EXPECT_TRUE(PDT.dominates(Merge, Then));
  EXPECT_FALSE(PDT.dominates(Then, Entry));
  EXPECT_TRUE(PDT.dominates(Merge, Merge));
}

TEST(DominatorsTest, InstructionLevelOrdering) {
  auto M = buildFigure1Module();
  Function *F = M->getFunction("main");
  DominatorTree DT(*F);
  DominatorTree PDT(*F, true);
  BasicBlock *Entry = F->getEntryBlock();
  Instruction *First = Entry->front();
  Instruction *Last = Entry->back();
  EXPECT_TRUE(DT.dominates(First, Last));
  EXPECT_FALSE(DT.dominates(Last, First));
  EXPECT_TRUE(PDT.dominates(Last, First));
  EXPECT_FALSE(PDT.dominates(First, Last));
  EXPECT_TRUE(DT.dominates(First, First));
}

TEST(DominatorsTest, LoopDominance) {
  auto M = buildSumLoopModule(4);
  Function *F = M->getFunction("main");
  DominatorTree DT(*F);
  BasicBlock *Entry = blockNamed(F, "entry");
  BasicBlock *Loop = blockNamed(F, "loop");
  BasicBlock *Exit = blockNamed(F, "exit");
  EXPECT_TRUE(DT.dominates(Entry, Loop));
  EXPECT_TRUE(DT.dominates(Loop, Exit));
  EXPECT_FALSE(DT.dominates(Exit, Loop));
}

//===----------------------------------------------------------------------===//
// LoopInfo
//===----------------------------------------------------------------------===//

TEST(LoopInfoTest, DetectsSelfLoop) {
  auto M = buildSumLoopModule(4);
  Function *F = M->getFunction("main");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  Loop *L = LI.loops()[0];
  BasicBlock *LoopBB = blockNamed(F, "loop");
  EXPECT_EQ(L->getHeader(), LoopBB);
  EXPECT_EQ(L->getLatch(), LoopBB);
  EXPECT_EQ(L->getDepth(), 1u);
  EXPECT_EQ(L->getPreheader(), blockNamed(F, "entry"));
  EXPECT_TRUE(LI.isBackEdge(LoopBB, LoopBB));
  auto Exits = L->getExitEdges();
  ASSERT_EQ(Exits.size(), 1u);
  EXPECT_EQ(Exits[0].second, blockNamed(F, "exit"));
  EXPECT_EQ(LI.getLoopDepth(LoopBB), 1u);
  EXPECT_EQ(LI.getLoopDepth(blockNamed(F, "entry")), 0u);
}

TEST(LoopInfoTest, NestedLoops) {
  // entry -> outer(header) -> inner(header, self-latch) -> outer_latch ->
  // outer | exit.
  auto M = std::make_unique<Module>("nested");
  GlobalVariable *G = M->createGlobal("g", 4);
  Function *F = M->createFunction("main", 0, false);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Outer = F->createBlock("outer");
  BasicBlock *Inner = F->createBlock("inner");
  BasicBlock *OuterLatch = F->createBlock("outer_latch");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder IRB(M.get());
  IRB.setInsertPoint(Entry);
  IRB.createJmp(Outer);
  IRB.setInsertPoint(Outer);
  IRB.createJmp(Inner);
  IRB.setInsertPoint(Inner);
  Instruction *L = IRB.createLoad(G, 4, false, "l");
  Instruction *C1 = IRB.createICmp(CmpPred::SLT, L, IRB.getInt(10), "c1");
  IRB.createBr(C1, Inner, OuterLatch);
  IRB.setInsertPoint(OuterLatch);
  Instruction *L2 = IRB.createLoad(G, 4, false, "l2");
  Instruction *C2 = IRB.createICmp(CmpPred::SLT, L2, IRB.getInt(20), "c2");
  IRB.createBr(C2, Outer, Exit);
  IRB.setInsertPoint(Exit);
  IRB.createRet();

  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 2u);
  Loop *OuterL = LI.loops()[0];
  Loop *InnerL = LI.loops()[1];
  EXPECT_EQ(OuterL->getDepth(), 1u);
  EXPECT_EQ(InnerL->getDepth(), 2u);
  EXPECT_EQ(InnerL->getParent(), OuterL);
  EXPECT_TRUE(OuterL->contains(Inner));
  EXPECT_FALSE(InnerL->contains(OuterLatch));
  EXPECT_EQ(LI.getLoopFor(Inner), InnerL);
  EXPECT_EQ(LI.getLoopDepth(Inner), 2u);
  ASSERT_EQ(OuterL->getSubLoops().size(), 1u);
  EXPECT_EQ(OuterL->getSubLoops()[0], InnerL);
}

//===----------------------------------------------------------------------===//
// Alias analysis
//===----------------------------------------------------------------------===//

namespace {

struct AliasFixture {
  Module M{"alias"};
  GlobalVariable *A = M.createGlobal("a", 64);
  GlobalVariable *B = M.createGlobal("b", 64);
  Function *F = M.createFunction("f", 1, false);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB{&M};

  AliasFixture() { IRB.setInsertPoint(BB); }
};

} // namespace

TEST(AliasTest, DistinctGlobalsNoAlias) {
  AliasFixture Fx;
  AliasAnalysis Precise(AliasPrecision::Precise);
  AliasAnalysis Conserv(AliasPrecision::Conservative);
  EXPECT_EQ(Precise.alias(Fx.A, 4, Fx.B, 4), AliasResult::NoAlias);
  EXPECT_EQ(Conserv.alias(Fx.A, 4, Fx.B, 4), AliasResult::NoAlias);
  EXPECT_EQ(Precise.alias(Fx.A, 4, Fx.A, 4), AliasResult::MustAlias);
}

TEST(AliasTest, ConstantOffsetsWithinGlobal) {
  AliasFixture Fx;
  Instruction *P0 = Fx.IRB.createGep(Fx.A, nullptr, 1, 0, "p0");
  Instruction *P4 = Fx.IRB.createGep(Fx.A, nullptr, 1, 4, "p4");
  AliasAnalysis AA(AliasPrecision::Precise);
  EXPECT_EQ(AA.alias(P0, 4, P4, 4), AliasResult::NoAlias);
  EXPECT_EQ(AA.alias(P0, 4, P0, 4), AliasResult::MustAlias);
  // Overlapping ranges: [0,4) vs [2,6).
  Instruction *P2 = Fx.IRB.createGep(Fx.A, nullptr, 1, 2, "p2");
  EXPECT_EQ(AA.alias(P0, 4, P2, 4), AliasResult::MayAlias);
}

TEST(AliasTest, VariableIndexPrecisionSplit) {
  AliasFixture Fx;
  Argument *I = Fx.F->getArg(0);
  Instruction *AElem = Fx.IRB.createGep(Fx.A, I, 4, 0, "ae");
  Instruction *BElem = Fx.IRB.createGep(Fx.B, I, 4, 0, "be");

  AliasAnalysis Precise(AliasPrecision::Precise);
  AliasAnalysis Conserv(AliasPrecision::Conservative);

  // Precise: distinct base objects stay distinct under variable indices.
  EXPECT_EQ(Precise.alias(AElem, 4, BElem, 4), AliasResult::NoAlias);
  // Same base, same index expression, same scale => must alias.
  EXPECT_EQ(Precise.alias(AElem, 4, AElem, 4), AliasResult::MustAlias);

  // Conservative (the Ratchet-style baseline) gives up on subscripts.
  EXPECT_EQ(Conserv.alias(AElem, 4, BElem, 4), AliasResult::MayAlias);
  EXPECT_EQ(Conserv.alias(AElem, 4, Fx.B, 4), AliasResult::MayAlias);
}

TEST(AliasTest, SameIndexDifferentOffsetDisjoint) {
  AliasFixture Fx;
  Argument *I = Fx.F->getArg(0);
  Instruction *E0 = Fx.IRB.createGep(Fx.A, I, 8, 0, "e0");
  Instruction *E4 = Fx.IRB.createGep(Fx.A, I, 8, 4, "e4");
  AliasAnalysis AA(AliasPrecision::Precise);
  EXPECT_EQ(AA.alias(E0, 4, E4, 4), AliasResult::NoAlias);
}

TEST(AliasTest, NonEscapingAllocaVsUnknownPointer) {
  AliasFixture Fx;
  Instruction *Local = Fx.IRB.createAlloca(16, "local");
  Argument *P = Fx.F->getArg(0); // Unknown pointer.
  AliasAnalysis Precise(AliasPrecision::Precise);
  AliasAnalysis Conserv(AliasPrecision::Conservative);
  EXPECT_EQ(Precise.alias(Local, 4, P, 4), AliasResult::NoAlias);
  EXPECT_EQ(Conserv.alias(Local, 4, P, 4), AliasResult::MayAlias);
}

TEST(AliasTest, EscapedAllocaMayAliasUnknown) {
  AliasFixture Fx;
  Instruction *Local = Fx.IRB.createAlloca(16, "local");
  // Escape it: store the pointer into a global.
  Fx.IRB.createStore(Local, Fx.A);
  Argument *P = Fx.F->getArg(0);
  AliasAnalysis Precise(AliasPrecision::Precise);
  EXPECT_EQ(Precise.alias(Local, 4, P, 4), AliasResult::MayAlias);
}

TEST(AliasTest, PhiWithCommonBaseKeepsBase) {
  AliasFixture Fx;
  Function *F2 = Fx.M.createFunction("g", 1, false);
  BasicBlock *E = F2->createBlock("entry");
  BasicBlock *T = F2->createBlock("t");
  BasicBlock *El = F2->createBlock("e");
  BasicBlock *Mg = F2->createBlock("m");
  IRBuilder IRB(&Fx.M);
  IRB.setInsertPoint(E);
  Instruction *C =
      IRB.createICmp(CmpPred::NE, F2->getArg(0), IRB.getInt(0), "c");
  IRB.createBr(C, T, El);
  IRB.setInsertPoint(T);
  Instruction *P1 = IRB.createGep(Fx.A, nullptr, 1, 8, "p1");
  IRB.createJmp(Mg);
  IRB.setInsertPoint(El);
  Instruction *P2 = IRB.createGep(Fx.A, nullptr, 1, 16, "p2");
  IRB.createJmp(Mg);
  IRB.setInsertPoint(Mg);
  Instruction *Phi = IRB.createPhi("p");
  IRBuilder::addPhiIncoming(Phi, P1, T);
  IRBuilder::addPhiIncoming(Phi, P2, El);
  IRB.createRet();

  AliasAnalysis AA(AliasPrecision::Precise);
  // Both arms point into @a, so the phi cannot alias @b.
  EXPECT_EQ(AA.alias(Phi, 4, Fx.B, 4), AliasResult::NoAlias);
  EXPECT_EQ(AA.alias(Phi, 4, Fx.A, 4), AliasResult::MayAlias);
}

namespace {

/// Expects alias(A, B) == alias(B, A) for every ordered pair of memory
/// accesses of \p M, at both precisions and both iteration contexts.
void expectSymmetricQueries(const Module &M, const std::string &Label) {
  for (auto &F : M.functions()) {
    std::vector<const Instruction *> Mem;
    for (const BasicBlock *BB : *F)
      for (const Instruction *I : *BB)
        if (I->isMemoryAccess())
          Mem.push_back(I);
    for (AliasPrecision P :
         {AliasPrecision::Conservative, AliasPrecision::Precise}) {
      AliasAnalysis AA(P);
      for (const Instruction *A : Mem)
        for (const Instruction *B : Mem)
          for (bool Cross : {false, true})
            ASSERT_EQ(AA.alias(A, B, Cross), AA.alias(B, A, Cross))
                << Label << " @" << F->getName() << ", precision "
                << (P == AliasPrecision::Precise ? "precise" : "conservative")
                << ", cross " << Cross << ": " << printInstruction(*A)
                << " vs " << printInstruction(*B);
    }
  }
}

/// Checks \p M's queries on front-half IR, then on middle-end output.
void expectSymmetricThroughPipeline(Module &M, const std::string &Label) {
  PipelineStats S;
  runFrontHalf(M, S);
  expectSymmetricQueries(M, Label + " (front half)");
  runMiddleEnd(M, PipelineOptions{}, S);
  expectSymmetricQueries(M, Label + " (middle end)");
}

} // namespace

/// alias() answers each query directly, so nothing canonicalizes (A, B)
/// and (B, A) into one verdict: the two orders must agree on their own.
TEST(AliasTest, QueriesAreSymmetric) {
  // The compiled inputs access whole aligned elements, which the cross-
  // iteration residue check answers symmetrically even with either of
  // its bounds dropped; 1/2/4-byte loads at every offset within two
  // strides tell the bounds apart.
  AliasFixture Fx;
  for (int32_t Scale : {4, 8})
    for (int32_t Offset = 0; Offset != 2 * Scale; ++Offset)
      for (uint8_t Size : {1, 2, 4})
        Fx.IRB.createLoad(
            Fx.IRB.createGep(Fx.A, Fx.F->getArg(0), Scale, Offset), Size);
  expectSymmetricQueries(Fx.M, "residue grid");

  for (uint32_t Seed = 1; Seed <= 25; ++Seed) {
    RandomProgramGenerator Gen(Seed);
    DiagnosticEngine Diags;
    std::unique_ptr<Module> M = compileC(Gen.generate(), "fuzz", Diags);
    ASSERT_TRUE(M) << "seed " << Seed << ":\n" << Diags.formatAll();
    expectSymmetricThroughPipeline(*M, "seed " + std::to_string(Seed));
  }
  for (const Workload &W : allWorkloads()) {
    DiagnosticEngine Diags;
    std::unique_ptr<Module> M = buildWorkloadIR(W, Diags);
    ASSERT_TRUE(M) << W.Name;
    expectSymmetricThroughPipeline(*M, W.Name);
  }
}

//===----------------------------------------------------------------------===//
// Memory dependence
//===----------------------------------------------------------------------===//

TEST(MemDepTest, Figure1HasTwoIndependentWARs) {
  auto M = buildFigure1Module();
  Function *F = M->getFunction("main");
  AliasAnalysis AA(AliasPrecision::Precise);
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  CFGReachability Reach(*F, LI);

  auto Wars = findWars(*F, AA, LI, Reach);
  ASSERT_EQ(Wars.size(), 2u);
  for (const MemDep &D : Wars) {
    EXPECT_EQ(D.Src->getOpcode(), Opcode::Load);
    EXPECT_EQ(D.Dst->getOpcode(), Opcode::Store);
    EXPECT_FALSE(D.LoopCarried);
    EXPECT_EQ(D.Alias, AliasResult::MustAlias);
  }
}

TEST(MemDepTest, LoopCarriedWAR) {
  auto M = buildSumLoopModule(4);
  Function *F = M->getFunction("main");
  AliasAnalysis AA(AliasPrecision::Precise);
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  CFGReachability Reach(*F, LI);

  // WARs on @sum: load s -> store (direct, same iteration) is one;
  // the final load in exit is after the store => RAW not WAR.
  bool FoundDirect = false;
  for (const MemDep &D : findWars(*F, AA, LI, Reach)) {
    if (!D.LoopCarried)
      FoundDirect = true;
  }
  EXPECT_TRUE(FoundDirect);

  Loop *L = LI.loops()[0];
  auto LoopWars = findWars(*F, AA, LI, Reach, L);
  ASSERT_GE(LoopWars.size(), 1u);
}

TEST(MemDepTest, NoAliasMeansNoDep) {
  Module M("m");
  GlobalVariable *A = M.createGlobal("a", 4);
  GlobalVariable *B = M.createGlobal("b", 4);
  Function *F = M.createFunction("main", 0, false);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  Instruction *L = IRB.createLoad(A, 4, false, "l");
  IRB.createStore(L, B); // Reads a, writes b: no WAR.
  IRB.createRet();
  AliasAnalysis AA(AliasPrecision::Precise);
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  CFGReachability Reach(*F, LI);
  EXPECT_TRUE(findWars(*F, AA, LI, Reach).empty());
}

/// findWars scoped to a loop must return exactly the whole-function WARs
/// inside that loop, in the same order: the Loop Write Clusterer asks for
/// one loop's WARs at a time.
TEST(MemDepTest, LoopScopedWarsMatchWholeFunction) {
  unsigned LoopsChecked = 0;
  for (const Workload &W : allWorkloads()) {
    DiagnosticEngine Diags;
    std::unique_ptr<Module> M = buildWorkloadIR(W, Diags);
    ASSERT_TRUE(M) << W.Name;
    PipelineStats S;
    runFrontHalf(*M, S);
    // The front half's loops, then the unrolled and clustered ones.
    for (bool AfterMiddleEnd : {false, true}) {
      if (AfterMiddleEnd)
        runMiddleEnd(*M, PipelineOptions{}, S);
      for (auto &F : M->functions()) {
        if (F->isDeclaration())
          continue;
        for (AliasPrecision P :
             {AliasPrecision::Conservative, AliasPrecision::Precise}) {
          AliasAnalysis AA(P);
          DominatorTree DT(*F);
          LoopInfo LI(*F, DT);
          CFGReachability Reach(*F, LI);
          std::vector<MemDep> All = findWars(*F, AA, LI, Reach);
          for (const Loop *L : LI.loops()) {
            std::vector<MemDep> Scoped = findWars(*F, AA, LI, Reach, L);
            std::vector<const MemDep *> Whole;
            for (const MemDep &D : All)
              if (L->contains(D.Src) && L->contains(D.Dst))
                Whole.push_back(&D);
            ASSERT_EQ(Scoped.size(), Whole.size())
                << W.Name << " @" << F->getName() << " loop "
                << L->getHeader()->getName();
            for (size_t I = 0; I != Scoped.size(); ++I) {
              EXPECT_EQ(Scoped[I].Src, Whole[I]->Src);
              EXPECT_EQ(Scoped[I].Dst, Whole[I]->Dst);
              EXPECT_EQ(Scoped[I].LoopCarried, Whole[I]->LoopCarried);
              EXPECT_EQ(Scoped[I].Alias, Whole[I]->Alias);
            }
            ++LoopsChecked;
          }
        }
      }
    }
  }
  EXPECT_GT(LoopsChecked, 50u);
}

TEST(MemDepTest, ReachabilityRespectsControlFlow) {
  auto M = buildSumLoopModule(4);
  Function *F = M->getFunction("main");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  CFGReachability R(*F, LI);
  BasicBlock *Entry = blockNamed(F, "entry");
  BasicBlock *Loop = blockNamed(F, "loop");
  BasicBlock *Exit = blockNamed(F, "exit");
  EXPECT_TRUE(R.reaches(Entry, Exit));
  EXPECT_TRUE(R.reaches(Loop, Loop)); // Via the back edge.
  EXPECT_FALSE(R.forwardReaches(Loop, Loop));
  EXPECT_FALSE(R.reaches(Exit, Entry));
  EXPECT_TRUE(R.onCycle(Loop));
  EXPECT_FALSE(R.onCycle(Entry));
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST(VerifierTest, AcceptsWellFormedModules) {
  std::string Err;
  EXPECT_TRUE(verifyModule(*buildFigure1Module(), &Err)) << Err;
  EXPECT_TRUE(verifyModule(*buildSumLoopModule(4), &Err)) << Err;
  EXPECT_TRUE(verifyModule(*buildDiamond(), &Err)) << Err;
}

TEST(VerifierTest, RejectsMissingTerminator) {
  Module M("m");
  Function *F = M.createFunction("main", 0, false);
  F->createBlock("entry"); // Empty block: no terminator.
  std::string Err;
  EXPECT_FALSE(verifyFunction(*F, &Err));
  EXPECT_NE(Err.find("no terminator"), std::string::npos);
}

TEST(VerifierTest, RejectsUseBeforeDef) {
  Module M("m");
  GlobalVariable *G = M.createGlobal("g", 4);
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  Instruction *L = IRB.createLoad(G, 4, false, "l");
  Instruction *Add = IRB.createAdd(L, L, "a");
  IRB.createRet(Add);
  // Move the load after its use.
  L->moveBefore(BB->back());
  std::string Err;
  EXPECT_FALSE(verifyFunction(*F, &Err));
  EXPECT_NE(Err.find("dominate"), std::string::npos);
}

TEST(VerifierTest, RejectsPhiPredMismatch) {
  auto M = buildDiamond();
  Function *F = M->getFunction("main");
  BasicBlock *Merge = blockNamed(F, "merge");
  Instruction *Phi = Merge->front();
  ASSERT_EQ(Phi->getOpcode(), Opcode::Phi);
  // Corrupt: point both incoming edges at the same block.
  Phi->setBlockOperand(1, Phi->getBlockOperand(0));
  std::string Err;
  EXPECT_FALSE(verifyFunction(*F, &Err));
  EXPECT_NE(Err.find("incoming blocks"), std::string::npos);
}

TEST(VerifierTest, RejectsVoidRetWithValueMismatch) {
  Module M("m");
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  IRB.createRet(); // Missing value.
  std::string Err;
  EXPECT_FALSE(verifyFunction(*F, &Err));
  EXPECT_NE(Err.find("ret"), std::string::npos);
}
