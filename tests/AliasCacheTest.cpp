//===----------------------------------------------------------------------===//
///
/// \file
/// Differential test of the alias-query memoization cache: cached and
/// uncached AliasAnalysis must produce identical MemoryDependence sets
/// (every WAR with its loop-carried flag and alias verdict) on randomly
/// generated programs and on the paper workloads, at both precision
/// levels. Any divergence means the symmetric canonicalization or an
/// invalidation point is wrong.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include "analysis/MemoryDependence.h"
#include "frontend/Frontend.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_map>

using namespace wario;
using namespace wario::test;

namespace {

/// Serializes a function's full dependence set with stable instruction
/// numbering (pointer-free, so two analyses over the same IR compare).
std::string depSignature(const Function &F, bool CachedAA,
                         AliasPrecision P) {
  std::unordered_map<const Instruction *, unsigned> Num;
  unsigned N = 0;
  for (const BasicBlock *BB : F)
    for (const Instruction *I : *BB)
      Num[I] = N++;

  AliasAnalysis AA(P, /*EnableCache=*/CachedAA);
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  MemoryDependence MD(F, AA, LI);

  std::ostringstream OS;
  for (const MemDep &D : MD.deps())
    OS << Num.at(D.Src) << "->" << Num.at(D.Dst) << ":c" << D.LoopCarried
       << ":a" << int(D.Alias) << "\n";
  return OS.str();
}

void expectCacheTransparent(Module &M, const std::string &Label) {
  for (auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    for (AliasPrecision P :
         {AliasPrecision::Conservative, AliasPrecision::Precise}) {
      std::string Cached = depSignature(*F, /*CachedAA=*/true, P);
      std::string Uncached = depSignature(*F, /*CachedAA=*/false, P);
      EXPECT_EQ(Cached, Uncached)
          << Label << ", function " << F->getName() << ", precision "
          << (P == AliasPrecision::Precise ? "precise" : "conservative");
    }
  }
}

TEST(AliasCache, RandomProgramsMatchUncached) {
  for (uint32_t Seed = 1; Seed <= 25; ++Seed) {
    RandomProgramGenerator Gen(Seed);
    std::string Source = Gen.generate();
    DiagnosticEngine Diags;
    std::unique_ptr<Module> M = compileC(Source, "fuzz", Diags);
    ASSERT_TRUE(M) << "seed " << Seed << " failed to compile:\n"
                   << Diags.formatAll();
    expectCacheTransparent(*M, "seed " + std::to_string(Seed));
  }
}

TEST(AliasCache, WorkloadsMatchUncached) {
  for (const Workload &W : allWorkloads()) {
    DiagnosticEngine Diags;
    std::unique_ptr<Module> M = buildWorkloadIR(W, Diags);
    ASSERT_TRUE(M) << W.Name;
    expectCacheTransparent(*M, W.Name);
  }
}

/// Repeated identical queries through one cached instance must be stable
/// (the memo may only ever return what the uncached path computed).
TEST(AliasCache, RepeatedQueriesAreStable) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = buildWorkloadIR(getWorkload("crc"), Diags);
  ASSERT_TRUE(M);
  for (auto &F : M->functions()) {
    if (F->isDeclaration())
      continue;
    AliasAnalysis Cached(AliasPrecision::Precise);
    AliasAnalysis Uncached(AliasPrecision::Precise, /*EnableCache=*/false);
    std::vector<const Instruction *> Mem;
    for (const BasicBlock *BB : *F)
      for (const Instruction *I : *BB)
        if (I->isMemoryAccess())
          Mem.push_back(I);
    for (int Round = 0; Round != 2; ++Round)
      for (const Instruction *A : Mem)
        for (const Instruction *B : Mem) {
          if (A == B)
            continue;
          for (bool Cross : {false, true})
            EXPECT_EQ(Cached.alias(A, B, Cross),
                      Uncached.alias(A, B, Cross));
        }
  }
}

} // namespace
