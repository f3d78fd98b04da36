//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for ir/Cloning.h's cloneModule(): the clone must be textually
/// identical (IRPrinter output, which covers names, instruction ids,
/// block order, and operand structure), structurally disjoint (no Value
/// pointer shared with the original), and behaviorally equivalent (the
/// reference interpreter agrees) — including when the clone, not the
/// original, is sent through the rest of the compilation pipeline, which
/// is exactly how the staged experiment cache uses it.
///
/// Carries the `asan` CTest label: ctest -L asan under a
/// WARIO_SANITIZE=address build checks that no clone instruction
/// dangles into its source module.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "driver/Pipeline.h"
#include "emu/Emulator.h"
#include "frontend/Frontend.h"
#include "ir/Cloning.h"
#include "ir/IRPrinter.h"
#include "support/Diagnostics.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <set>

using namespace wario;
using namespace wario::test;

namespace {

std::unique_ptr<Module> compileSeed(uint32_t Seed) {
  RandomProgramGenerator Gen(Seed);
  std::string Source = Gen.generate();
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = compileC(Source, "fuzz", Diags);
  EXPECT_TRUE(M) << "seed " << Seed << " failed to compile:\n"
                 << Diags.formatAll();
  return M;
}

std::unique_ptr<Module> buildWorkload(const std::string &Name) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = buildWorkloadIR(getWorkload(Name), Diags);
  EXPECT_TRUE(M) << Diags.formatAll();
  return M;
}

/// Every Value owned by \p M: globals, constants, functions, arguments,
/// and instructions (blocks are not Values but are collected too via
/// their address).
void collectOwned(const Module &M, std::set<const void *> &Out) {
  for (const auto &G : M.globals())
    Out.insert(G);
  for (const auto &[Val, C] : M.constants())
    Out.insert(C);
  for (const auto &F : M.functions()) {
    Out.insert(F);
    for (unsigned I = 0; I != F->getNumParams(); ++I)
      Out.insert(F->getArg(I));
    for (const BasicBlock *BB : *F) {
      Out.insert(BB);
      for (const Instruction *I : *BB)
        Out.insert(I);
    }
  }
}

void expectCloneInvariants(const Module &M) {
  std::unique_ptr<Module> C = cloneModule(M);

  // Textual identity covers names, ids, block order, operands.
  EXPECT_EQ(printModule(M), printModule(*C));

  // Block numbers, which the CFG analyses index by, are copied too; they
  // stay unique and below numBlockNumbers(), holes from erased blocks
  // included.
  ASSERT_EQ(M.functions().size(), C->functions().size());
  for (size_t FI = 0; FI != M.functions().size(); ++FI) {
    const Function &F = *M.functions()[FI], &CF = *C->functions()[FI];
    EXPECT_EQ(F.numBlockNumbers(), CF.numBlockNumbers()) << F.getName();
    std::vector<bool> Seen(CF.numBlockNumbers());
    for (auto It = F.begin(), CIt = CF.begin(); CIt != CF.end(); ++It, ++CIt) {
      EXPECT_EQ((*It)->getNumber(), (*CIt)->getNumber()) << F.getName();
      ASSERT_LT((*CIt)->getNumber(), CF.numBlockNumbers()) << F.getName();
      EXPECT_FALSE(Seen[(*CIt)->getNumber()]) << F.getName();
      Seen[(*CIt)->getNumber()] = true;
    }
  }

  // Structural disjointness: the clone owns every one of its Values.
  std::set<const void *> Orig, Clone;
  collectOwned(M, Orig);
  collectOwned(*C, Clone);
  for (const void *P : Clone)
    EXPECT_EQ(Orig.count(P), 0u) << "clone shares a Value with the original";

  // And no clone instruction *operand* resolves into the original.
  for (const auto &F : C->functions())
    for (const BasicBlock *BB : *F)
      for (const Instruction *I : *BB)
        for (unsigned J = 0; J != I->getNumOperands(); ++J)
          EXPECT_EQ(Orig.count(I->getOperand(J)), 0u)
              << "clone operand points into the original module";
}

TEST(CloneModule, HandWrittenModules) {
  expectCloneInvariants(*buildFigure1Module());
  expectCloneInvariants(*buildSumLoopModule(10));
}

TEST(CloneModule, RandomPrograms) {
  for (uint32_t Seed : {1u, 7u, 42u, 1234u, 99991u}) {
    std::unique_ptr<Module> M = compileSeed(Seed);
    ASSERT_TRUE(M);
    expectCloneInvariants(*M);

    InterpResult A = interpretModule(*M);
    InterpResult B = interpretModule(*cloneModule(*M));
    ASSERT_TRUE(A.Ok) << A.Error;
    ASSERT_TRUE(B.Ok) << B.Error;
    EXPECT_EQ(A.ReturnValue, B.ReturnValue) << "seed " << Seed;
    EXPECT_EQ(A.Output, B.Output) << "seed " << Seed;
    EXPECT_EQ(A.StepsExecuted, B.StepsExecuted) << "seed " << Seed;
  }
}

TEST(CloneModule, WorkloadIR) {
  for (const char *Name : {"crc", "sha"})
    expectCloneInvariants(*buildWorkload(Name));
}

TEST(CloneModule, CloneOfFrontHalfOutputIsStillIdentical) {
  // The staged cache clones *front-half output*, after inlining and
  // mem2reg have run — richer IR than the raw frontend's.
  std::unique_ptr<Module> M = buildWorkload("crc");
  PipelineStats S;
  runFrontHalf(*M, S);
  expectCloneInvariants(*M);
}

TEST(CloneModule, PipelineOnCloneMatchesPipelineOnOriginal) {
  // Behavioral indistinguishability where it matters: running the rest
  // of the pipeline on a clone must produce the exact same machine code
  // and emulation results as running it on the original. This is what
  // entitles the experiment cache to hand out clones.
  for (Environment Env :
       {Environment::Ratchet, Environment::WarioComplete}) {
    PipelineOptions PO;
    PO.Env = Env;

    std::unique_ptr<Module> M1 = buildWorkload("crc");
    PipelineStats S1;
    runFrontHalf(*M1, S1);

    std::unique_ptr<Module> M2 = cloneModule(*M1);

    PipelineStats SA, SB;
    runMiddleEnd(*M1, PO, SA);
    MModule MA = runBackendStage(*M1, PO, SA);
    runMiddleEnd(*M2, PO, SB);
    MModule MB = runBackendStage(*M2, PO, SB);

    EXPECT_EQ(MA.textSizeBytes(), MB.textSizeBytes());
    EmulatorResult RA = emulate(MA);
    EmulatorResult RB = emulate(MB);
    ASSERT_TRUE(RA.Ok) << RA.Error;
    ASSERT_TRUE(RB.Ok) << RB.Error;
    EXPECT_EQ(RA.ReturnValue, RB.ReturnValue);
    EXPECT_EQ(RA.TotalCycles, RB.TotalCycles);
    EXPECT_EQ(RA.CheckpointsExecuted, RB.CheckpointsExecuted);
    EXPECT_EQ(RA.Output, RB.Output);
    EXPECT_EQ(RA.FinalMemory, RB.FinalMemory);
  }
}

TEST(CloneModule, MutatingTheCloneLeavesTheOriginalAlone) {
  std::unique_ptr<Module> M = buildWorkload("crc");
  PipelineStats S;
  runFrontHalf(*M, S);
  std::string Before = printModule(*M);

  std::unique_ptr<Module> C = cloneModule(*M);
  PipelineOptions PO;
  PO.Env = Environment::WarioComplete;
  PipelineStats SC;
  runMiddleEnd(*C, PO, SC); // Heavy mutation: unrolling, clustering...

  EXPECT_EQ(Before, printModule(*M));
}

} // namespace
