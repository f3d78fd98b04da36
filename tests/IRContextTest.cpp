//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the arena-backed IR core's interning and lifetime behavior:
/// types, integer constants, and names must be pointer-unique within a
/// module (types/constants) or process-wide (names); modules must not
/// share interned objects; and every function must allocate from its
/// module's one arena.
///
/// The lifetime tests run clone/mutate/drop loops and carry the `asan`
/// CTest label: under a WARIO_SANITIZE=address build they are where a
/// dangling arena pointer or a use-after-free of a dropped module's
/// nodes would surface (ctest -L asan).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Cloning.h"
#include "ir/IRContext.h"
#include "ir/IRPrinter.h"
#include "support/Arena.h"

#include <gtest/gtest.h>

using namespace wario;
using namespace wario::test;

namespace {

TEST(IRContextTest, TypesAreInternedPerModule) {
  Module M("m");
  IRContext &C = M.getContext();
  // Singletons are stable accessors.
  EXPECT_EQ(C.getVoidType(), C.getVoidType());
  EXPECT_EQ(C.getI32Type(), C.getI32Type());
  EXPECT_EQ(C.getPtrType(), C.getPtrType());
  // Array types intern by byte size.
  EXPECT_EQ(C.getArrayType(64), C.getArrayType(64));
  EXPECT_NE(C.getArrayType(64), C.getArrayType(128));
  EXPECT_EQ(C.getArrayType(64)->getArrayBytes(), 64u);
}

TEST(IRContextTest, ConstantsAreInternedPerModule) {
  Module M("m");
  EXPECT_EQ(M.getConstant(7), M.getConstant(7));
  EXPECT_NE(M.getConstant(7), M.getConstant(8));
  EXPECT_EQ(M.getConstant(7)->getType(), M.getContext().getI32Type());
}

TEST(IRContextTest, ModulesDoNotShareInternedObjects) {
  Module A("a"), B("b");
  // Same *values*, distinct *objects*: each module owns its arena, and a
  // cross-module pointer would dangle once the other module is dropped.
  EXPECT_NE(A.getConstant(7), B.getConstant(7));
  EXPECT_NE(A.getContext().getArrayType(64), B.getContext().getArrayType(64));
  EXPECT_NE(A.getContext().getI32Type(), B.getContext().getI32Type());
}

TEST(IRContextTest, NamesAreInternedProcessWide) {
  // Names are the exception: they are immutable, so all modules share
  // one process-global intern table and nodes store a stable pointer.
  const std::string &S1 = internedName("some_unique_name");
  const std::string &S2 = internedName("some_unique_name");
  EXPECT_EQ(&S1, &S2);
  EXPECT_NE(&S1, &internedName("another_name"));

  Module A("a"), B("b");
  Function *FA = A.createFunction("f", 0, true);
  Function *FB = B.createFunction("f", 0, true);
  Instruction *IA = FA->createInstruction(Opcode::Phi);
  Instruction *IB = FB->createInstruction(Opcode::Phi);
  IA->setName("shared_name");
  IB->setName("shared_name");
  EXPECT_EQ(&IA->getName(), &IB->getName());
}

TEST(IRContextTest, FunctionsShareTheModuleArena) {
  // Every function allocates from its module's arena, so a module of 32
  // one-instruction functions holds one small arena's slabs, not one
  // mostly empty slab per function.
  auto M = std::make_unique<Module>("m");
  IRBuilder IRB(M.get());
  for (int I = 0; I != 32; ++I) {
    Function *F = M->createFunction("f" + std::to_string(I), 0, true);
    IRB.setInsertPoint(F->createBlock("entry"));
    IRB.createRet(M->getConstant(I));
  }
  Arena &ModArena = M->getContext().moduleArena();
  for (Function *F : M->functions())
    EXPECT_EQ(&F->arena(), &ModArena);
  size_t HeldBytes = 0;
  for (const Arena::Slab &S : ModArena.slabs())
    HeldBytes += S.Size;
  EXPECT_GT(HeldBytes, 0u);
  EXPECT_LE(HeldBytes, 2 * Arena::SlabQuantum);
}

/// Clone/mutate/drop loop: the clone must stay fully usable after its
/// source is gone, and repeated rounds must not leak or corrupt arenas.
/// This is the dedicated hunting ground for the asan build.
TEST(IRContextLifetimeTest, CloneSurvivesSourceDropAcrossRounds) {
  auto Source = buildFigure1Module();
  const std::string Golden = printModule(*Source);
  for (int Round = 0; Round != 8; ++Round) {
    auto Clone = cloneModule(*Source);
    Source.reset(); // Clone must not reference the dropped arenas.

    // Mutate the clone: append dead arithmetic to main, then erase it.
    Function *Main = Clone->getFunction("main");
    ASSERT_NE(Main, nullptr);
    BasicBlock *Entry = Main->getEntryBlock();
    IRBuilder IRB(Clone.get());
    IRB.setInsertPoint(Entry->getTerminator());
    std::vector<Instruction *> Dead;
    for (int I = 0; I != 64; ++I)
      Dead.push_back(
          IRB.createAdd(Clone->getConstant(I), Clone->getConstant(Round)));
    for (Instruction *I : Dead)
      Main->eraseInstruction(I);

    // Behavior and text must match the original exactly.
    EXPECT_EQ(printModule(*Clone), Golden);
    InterpResult R = interpretModule(*Clone);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.ReturnValue, 5 + 3);

    Source = std::move(Clone); // Next round clones the clone.
  }
}

} // namespace
