//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the IR core: values, use lists, instruction placement,
/// printing, and the reference interpreter.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Verifier.h"
#include "ir/IRPrinter.h"
#include "transforms/Inliner.h"
#include "transforms/Utils.h"

#include <gtest/gtest.h>

using namespace wario;
using namespace wario::test;

TEST(ValueTest, ConstantsAreUniqued) {
  Module M("m");
  EXPECT_EQ(M.getConstant(42), M.getConstant(42));
  EXPECT_NE(M.getConstant(42), M.getConstant(43));
  EXPECT_EQ(M.getConstant(-1)->getValue(), -1);
  EXPECT_EQ(M.getConstant(-1)->getZExtValue(), 0xFFFFFFFFu);
}

TEST(ValueTest, UseListsTrackOperands) {
  auto M = buildFigure1Module();
  // Globals (and constants) are shared across functions and intentionally
  // do not track users: their lists would grow with every use in the
  // module, and no transformation consumes them.
  GlobalVariable *A = M->getGlobal("a");
  ASSERT_NE(A, nullptr);
  EXPECT_FALSE(A->tracksUsers());
  EXPECT_FALSE(M->getConstant(1)->tracksUsers());
  // Function-local values do: the first load feeds exactly one add.
  Function *Main = M->getFunction("main");
  Instruction *Load = Main->getEntryBlock()->front();
  ASSERT_EQ(Load->getOpcode(), Opcode::Load);
  EXPECT_TRUE(Load->tracksUsers());
  EXPECT_EQ(Load->users().size(), 1u);
}

TEST(ValueTest, ReplaceAllUsesWith) {
  Module M("m");
  GlobalVariable *G = M.createGlobal("g", 4);
  Function *F = M.createFunction("f", 0, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  Instruction *L = IRB.createLoad(G);
  Instruction *Add = IRB.createAdd(L, L, "twice");
  IRB.createRet(Add);

  Constant *Seven = M.getConstant(7);
  L->replaceAllUsesWith(Seven);
  EXPECT_FALSE(L->hasUsers());
  EXPECT_EQ(Add->getOperand(0), Seven);
  EXPECT_EQ(Add->getOperand(1), Seven);
}

TEST(InstructionTest, OpcodeClassification) {
  auto M = buildFigure1Module();
  Function *Main = M->getFunction("main");
  BasicBlock *Entry = Main->getEntryBlock();
  auto It = Entry->begin();
  Instruction *Load = *It;
  EXPECT_EQ(Load->getOpcode(), Opcode::Load);
  EXPECT_TRUE(Load->mayReadMemory());
  EXPECT_FALSE(Load->mayWriteMemory());
  EXPECT_TRUE(Load->producesValue());
  EXPECT_FALSE(Load->isTerminator());

  Instruction *Term = Entry->getTerminator();
  ASSERT_NE(Term, nullptr);
  EXPECT_EQ(Term->getOpcode(), Opcode::Ret);
  EXPECT_TRUE(Term->isTerminator());
  EXPECT_FALSE(Term->producesValue());
}

TEST(InstructionTest, MoveBeforeRelocatesWithinBlock) {
  auto M = buildFigure1Module();
  Function *Main = M->getFunction("main");
  BasicBlock *Entry = Main->getEntryBlock();

  // Move the first store right before the second store (write clustering
  // in miniature).
  std::vector<Instruction *> Stores;
  for (Instruction *I : *Entry)
    if (I->getOpcode() == Opcode::Store)
      Stores.push_back(I);
  ASSERT_EQ(Stores.size(), 2u);
  Stores[0]->moveBefore(Stores[1]);

  std::vector<Opcode> Ops;
  for (Instruction *I : *Entry)
    Ops.push_back(I->getOpcode());
  std::vector<Opcode> Expected{Opcode::Load, Opcode::Add,  Opcode::Load,
                               Opcode::Add,  Opcode::Store, Opcode::Store,
                               Opcode::Add,  Opcode::Ret};
  EXPECT_EQ(Ops, Expected);
}

TEST(InstructionTest, MoveBeforeTerminatorAcrossBlocks) {
  auto M = buildSumLoopModule(4);
  Function *Main = M->getFunction("main");
  BasicBlock *Loop = nullptr;
  for (BasicBlock *BB : *Main)
    if (BB->getName() == "loop")
      Loop = BB;
  ASSERT_NE(Loop, nullptr);

  Instruction *Store = nullptr;
  for (Instruction *I : *Loop)
    if (I->getOpcode() == Opcode::Store)
      Store = I;
  ASSERT_NE(Store, nullptr);

  Store->moveBeforeTerminator(Loop);
  auto It = Loop->end();
  --It; // terminator
  --It; // last non-terminator
  EXPECT_EQ(*It, Store);
}

TEST(BasicBlockTest, SuccessorsAndPredecessors) {
  auto M = buildSumLoopModule(4);
  Function *Main = M->getFunction("main");
  BasicBlock *Entry = Main->getEntryBlock();
  auto Succs = Entry->successors();
  ASSERT_EQ(Succs.size(), 1u);
  BasicBlock *Loop = Succs[0];
  EXPECT_EQ(Loop->getName(), "loop");
  // Loop has two predecessors: entry and itself.
  EXPECT_EQ(Loop->predecessors().size(), 2u);
  // Loop has two successors: itself and exit.
  EXPECT_EQ(Loop->successors().size(), 2u);
}

namespace {

/// Every attached block's number is unique and below numBlockNumbers().
void expectUniqueBlockNumbers(const Function &F, const char *Where) {
  std::vector<bool> Seen(F.numBlockNumbers());
  for (const BasicBlock *BB : F) {
    ASSERT_LT(BB->getNumber(), F.numBlockNumbers()) << Where;
    EXPECT_FALSE(Seen[BB->getNumber()]) << Where << ": " << BB->getName();
    Seen[BB->getNumber()] = true;
  }
}

} // namespace

TEST(BasicBlockTest, NumbersStayUniqueThroughCFGEdits) {
  auto M = buildSumLoopModule(4);
  Function *Inc = M->createFunction("inc", 1, true);
  IRBuilder IRB(M.get());
  IRB.setInsertPoint(Inc->createBlock("entry"));
  IRB.createRet(IRB.createAdd(Inc->getArg(0), IRB.getInt(1), "r"));

  Function *Main = M->getFunction("main");
  BasicBlock *Entry = Main->getEntryBlock();
  BasicBlock *Loop = *std::next(Main->begin());
  BasicBlock *Exit = *std::next(Main->begin(), 2);
  EXPECT_EQ(Entry->getNumber(), 0u);
  EXPECT_EQ(Loop->getNumber(), 1u);
  EXPECT_EQ(Exit->getNumber(), 2u);
  EXPECT_EQ(Main->numBlockNumbers(), 3u);
  EXPECT_EQ(Inc->getEntryBlock()->getNumber(), 0u); // Per function.

  BasicBlock *Tail = Main->createBlock("tail");
  BasicBlock *Mid = Main->createBlockAfter(Entry, "mid");
  EXPECT_EQ(Tail->getNumber(), 3u);
  EXPECT_EQ(Mid->getNumber(), 4u);
  expectUniqueBlockNumbers(*Main, "created");

  // Erased blocks keep their numbers: the next block does not reuse one.
  Main->eraseBlock(Mid);
  Main->eraseBlock(Tail);
  EXPECT_EQ(Main->numBlockNumbers(), 5u);
  EXPECT_EQ(splitEdge(Loop, Exit)->getNumber(), 5u);
  expectUniqueBlockNumbers(*Main, "split");

  // Inlining splits the calling block and copies the callee's blocks.
  IRB.setInsertPoint(Exit->getTerminator());
  ASSERT_TRUE(inlineCall(IRB.createCall(Inc, {IRB.getInt(5)}, "c")));
  EXPECT_GT(Main->numBlockNumbers(), 6u);
  expectUniqueBlockNumbers(*Main, "inlined");
  std::string Err;
  EXPECT_TRUE(verifyModule(*M, &Err)) << Err;
}

TEST(BasicBlockTest, PhiQueries) {
  auto M = buildSumLoopModule(4);
  Function *Main = M->getFunction("main");
  BasicBlock *Loop = *std::next(Main->begin());
  auto Phis = Loop->phis();
  ASSERT_EQ(Phis.size(), 1u);
  EXPECT_EQ(Phis[0]->getOpcode(), Opcode::Phi);
  EXPECT_EQ((*Loop->firstNonPhi())->getOpcode(), Opcode::Gep);
}

TEST(PrinterTest, PrintsModuleStructure) {
  auto M = buildFigure1Module();
  std::string Text = printModule(*M);
  EXPECT_NE(Text.find("global @a"), std::string::npos);
  EXPECT_NE(Text.find("func @main()"), std::string::npos);
  EXPECT_NE(Text.find("load"), std::string::npos);
  EXPECT_NE(Text.find("store"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

TEST(InterpTest, Figure1Semantics) {
  auto M = buildFigure1Module();
  InterpResult R = interpretModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, 5 + 3); // a=4+1, b=2+1.
}

TEST(InterpTest, SumLoop) {
  auto M = buildSumLoopModule(10);
  InterpResult R = interpretModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  int Expected = 0;
  for (int I = 0; I < 10; ++I)
    Expected += I * 3 + 1;
  EXPECT_EQ(R.ReturnValue, Expected);
}

TEST(InterpTest, SubWordLoadsAndStores) {
  Module M("m");
  GlobalVariable *G = M.createGlobal("g", 4);
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  // Store 0xFFFF into the low halfword, load back as signed i16.
  IRB.createStore(IRB.getInt(0xFFFF), G, 2);
  Instruction *L = IRB.createLoad(G, 2, /*Signed=*/true, "l");
  IRB.createRet(L);
  InterpResult R = interpretModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, -1);
}

TEST(InterpTest, OutPortCapturesOutput) {
  Module M("m");
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  IRB.createOut(IRB.getInt(11));
  IRB.createOut(IRB.getInt(22));
  IRB.createRet(IRB.getInt(0));
  InterpResult R = interpretModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{11, 22}));
}

TEST(InterpTest, CallsAndArguments) {
  Module M("m");
  Function *Add3 = M.createFunction("add3", 3, true);
  {
    BasicBlock *BB = Add3->createBlock("entry");
    IRBuilder IRB(&M);
    IRB.setInsertPoint(BB);
    Instruction *S1 =
        IRB.createAdd(Add3->getArg(0), Add3->getArg(1), "s1");
    Instruction *S2 = IRB.createAdd(S1, Add3->getArg(2), "s2");
    IRB.createRet(S2);
  }
  Function *Main = M.createFunction("main", 0, true);
  {
    BasicBlock *BB = Main->createBlock("entry");
    IRBuilder IRB(&M);
    IRB.setInsertPoint(BB);
    Instruction *C = IRB.createCall(
        Add3, {IRB.getInt(1), IRB.getInt(2), IRB.getInt(3)}, "c");
    IRB.createRet(C);
  }
  InterpResult R = interpretModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, 6);
}

TEST(InterpTest, AllocaStackDiscipline) {
  Module M("m");
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  Instruction *Slot = IRB.createAlloca(4, "slot");
  IRB.createStore(IRB.getInt(99), Slot);
  Instruction *L = IRB.createLoad(Slot);
  IRB.createRet(L);
  InterpResult R = interpretModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, 99);
}

TEST(InterpTest, DivisionByZeroTraps) {
  Module M("m");
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  Instruction *D =
      IRB.createBinary(Opcode::SDiv, IRB.getInt(1), IRB.getInt(0), "d");
  IRB.createRet(D);
  InterpResult R = interpretModule(M);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("zero"), std::string::npos);
}

TEST(InterpTest, FuelLimitStopsInfiniteLoops) {
  Module M("m");
  Function *F = M.createFunction("main", 0, true);
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder IRB(&M);
  IRB.setInsertPoint(BB);
  IRB.createJmp(BB);
  // Entry with a self-loop is invalid IR (entry gets a predecessor), but
  // the interpreter should still terminate via fuel.
  InterpResult R = interpretModule(M, "main", /*Fuel=*/1000);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("fuel"), std::string::npos);
}

TEST(MemoryLayoutTest, AssignsDisjointAlignedAddresses) {
  Module M("m");
  GlobalVariable *A = M.createGlobal("a", 3);
  GlobalVariable *B = M.createGlobal("b", 8);
  GlobalVariable *C = M.createGlobal("c", 1);
  MemoryLayout L(M);
  EXPECT_EQ(L.addressOf(A) % 4, 0u);
  EXPECT_EQ(L.addressOf(B) % 4, 0u);
  EXPECT_EQ(L.addressOf(C) % 4, 0u);
  EXPECT_GE(L.addressOf(B), L.addressOf(A) + 3);
  EXPECT_GE(L.addressOf(C), L.addressOf(B) + 8);
  EXPECT_GE(L.addressOf(A), memmap::GlobalBase);
  EXPECT_LT(L.getDataEnd(), memmap::StackTop);
}
