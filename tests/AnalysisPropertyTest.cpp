//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the CFG analyses over randomly generated control
/// flow graphs: dominators and post-dominators are checked against their
/// textbook definitions (brute-force reachability with the candidate
/// node removed), loop info against structural invariants, and block
/// reachability against a plain graph search.
///
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "analysis/WarDependence.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

#include <set>

using namespace wario;

namespace {

struct XorShift {
  uint32_t S;
  explicit XorShift(uint32_t Seed) : S(Seed ? Seed : 1) {}
  uint32_t next() {
    S ^= S << 13;
    S ^= S >> 17;
    S ^= S << 5;
    return S;
  }
  unsigned range(unsigned N) { return N ? next() % N : 0; }
};

/// Builds a random function CFG: N blocks, each ending in Ret (sinks),
/// Jmp, or Br with random targets (entry never targeted, so it stays a
/// proper entry). About a third of the blocks are created after a spare
/// block that is erased at the end, so the block numbers the analyses
/// index by have holes, as they do after cleanup.
std::unique_ptr<Module> randomCFG(uint32_t Seed, unsigned NumBlocks) {
  XorShift Rng(Seed), HoleRng(Seed ^ 0x5bd1e995u);
  auto M = std::make_unique<Module>("cfg");
  GlobalVariable *G = M->createGlobal("g", 4);
  Function *F = M->createFunction("main", 0, true);
  std::vector<BasicBlock *> Blocks, Spares;
  for (unsigned I = 0; I != NumBlocks; ++I) {
    if (HoleRng.range(3) == 0)
      Spares.push_back(F->createBlock("spare" + std::to_string(I)));
    Blocks.push_back(F->createBlock("b" + std::to_string(I)));
  }
  IRBuilder IRB(M.get());
  for (unsigned I = 0; I != NumBlocks; ++I) {
    IRB.setInsertPoint(Blocks[I]);
    // Non-entry targets only (index 1..N-1).
    auto Target = [&] {
      return Blocks[1 + Rng.range(NumBlocks - 1)];
    };
    unsigned Kind = Rng.range(10);
    if (Kind < 2 || NumBlocks == 1) {
      IRB.createRet(IRB.getInt(0));
    } else if (Kind < 6) {
      IRB.createJmp(Target());
    } else {
      Instruction *L = IRB.createLoad(G, 4, false, "l");
      Instruction *C =
          IRB.createICmp(CmpPred::SGT, L, IRB.getInt(0), "c");
      BasicBlock *T = Target();
      BasicBlock *E = Target();
      if (T == E) {
        IRB.createJmp(T);
        (void)C;
      } else {
        IRB.createBr(C, T, E);
      }
    }
  }
  for (BasicBlock *BB : Spares)
    F->eraseBlock(BB);
  return M;
}

std::set<const BasicBlock *> reachableFrom(const Function &,
                                           const BasicBlock *Start,
                                           const BasicBlock *Removed) {
  std::set<const BasicBlock *> Seen;
  if (Start == Removed)
    return Seen;
  std::vector<const BasicBlock *> Work{Start};
  Seen.insert(Start);
  while (!Work.empty()) {
    const BasicBlock *BB = Work.back();
    Work.pop_back();
    for (const BasicBlock *S : BB->successors())
      if (S != Removed && Seen.insert(S).second)
        Work.push_back(S);
  }
  return Seen;
}

/// Textbook dominance: A dom B iff B is unreachable from entry once A is
/// deleted (and B is reachable at all).
bool oracleDominates(const Function &F, const BasicBlock *A,
                     const BasicBlock *B) {
  auto Plain = reachableFrom(F, F.getEntryBlock(), nullptr);
  if (!Plain.count(B))
    return false;
  if (A == B)
    return true;
  auto Without = reachableFrom(F, F.getEntryBlock(), A);
  return !Without.count(B);
}

class CFGSeeds : public ::testing::TestWithParam<uint32_t> {};

} // namespace

TEST_P(CFGSeeds, DominatorsMatchOracle) {
  auto M = randomCFG(GetParam(), 3 + GetParam() % 10);
  Function &F = *M->getFunction("main");
  DominatorTree DT(F);
  auto Reachable = reachableFrom(F, F.getEntryBlock(), nullptr);
  for (const BasicBlock *A : F) {
    for (const BasicBlock *B : F) {
      if (!Reachable.count(A) || !Reachable.count(B))
        continue;
      EXPECT_EQ(DT.dominates(A, B), oracleDominates(F, A, B))
          << "seed " << GetParam() << ": " << A->getName() << " vs "
          << B->getName();
    }
  }
}

TEST_P(CFGSeeds, PostDominatorsMatchOracleOnReversedGraph) {
  auto M = randomCFG(GetParam() * 31 + 7, 3 + GetParam() % 10);
  Function &F = *M->getFunction("main");
  DominatorTree PDT(F, /*Post=*/true);

  // Oracle: A pdom B iff every path from B to any exit passes A —
  // equivalently, no exit is reachable from B once A is removed.
  std::vector<const BasicBlock *> Exits;
  for (const BasicBlock *BB : F)
    if (BB->successors().empty())
      Exits.push_back(BB);

  auto CanReachExitWithout = [&](const BasicBlock *From,
                                 const BasicBlock *Removed) {
    auto Seen = reachableFrom(F, From, Removed);
    for (const BasicBlock *E : Exits)
      if (Seen.count(E))
        return true;
    return false;
  };

  for (const BasicBlock *A : F) {
    for (const BasicBlock *B : F) {
      if (A == B)
        continue;
      if (!CanReachExitWithout(B, nullptr))
        continue; // B cannot reach any exit: out of the pdom domain.
      bool Oracle = !CanReachExitWithout(B, A);
      EXPECT_EQ(PDT.dominates(A, B), Oracle)
          << "seed " << GetParam() << ": " << A->getName()
          << " pdom " << B->getName();
    }
  }
}

TEST_P(CFGSeeds, LoopInfoStructuralInvariants) {
  auto M = randomCFG(GetParam() * 1299721 + 3, 4 + GetParam() % 12);
  Function &F = *M->getFunction("main");
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  for (Loop *L : LI.loops()) {
    // The header dominates every block of its loop.
    for (BasicBlock *BB : L->blocks())
      EXPECT_TRUE(DT.dominates(L->getHeader(), BB))
          << "seed " << GetParam();
    // Every latch is in the loop and branches to the header.
    for (BasicBlock *Latch : L->getLatches()) {
      EXPECT_TRUE(L->contains(Latch));
      bool TargetsHeader = false;
      for (BasicBlock *S : Latch->successors())
        if (S == L->getHeader())
          TargetsHeader = true;
      EXPECT_TRUE(TargetsHeader);
    }
    // Parent loops contain their children entirely.
    for (Loop *Sub : L->getSubLoops()) {
      EXPECT_EQ(Sub->getParent(), L);
      EXPECT_EQ(Sub->getDepth(), L->getDepth() + 1);
      for (BasicBlock *BB : Sub->blocks())
        EXPECT_TRUE(L->contains(BB));
    }
    // Exit edges really leave the loop.
    for (auto &[E, X] : L->getExitEdges()) {
      EXPECT_TRUE(L->contains(E));
      EXPECT_FALSE(L->contains(X));
    }
    // Natural loops are nested or disjoint (findWars tests for a
    // common loop by comparing outermost loops).
    for (Loop *O : LI.loops()) {
      bool Shared = false, OInL = true, LInO = true;
      for (BasicBlock *BB : O->blocks()) {
        Shared = Shared || L->contains(BB);
        OInL = OInL && L->contains(BB);
      }
      for (BasicBlock *BB : L->blocks())
        LInO = LInO && O->contains(BB);
      EXPECT_TRUE(!Shared || OInL || LInO) << "seed " << GetParam();
    }
  }
}

TEST_P(CFGSeeds, ReachabilityMatchesOracle) {
  // Wide enough that each bit row spans two 64-bit words.
  auto M = randomCFG(GetParam() * 7919 + 11, 65 + GetParam() % 40);
  Function &F = *M->getFunction("main");
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  CFGReachability R(F, LI);
  auto Oracle = [&](const BasicBlock *From, bool SkipBackEdges) {
    std::set<const BasicBlock *> Seen;
    std::vector<const BasicBlock *> Work{From};
    while (!Work.empty()) {
      const BasicBlock *BB = Work.back();
      Work.pop_back();
      for (const BasicBlock *S : BB->successors())
        if (!(SkipBackEdges && LI.isBackEdge(BB, S)) && Seen.insert(S).second)
          Work.push_back(S);
    }
    return Seen;
  };
  for (const BasicBlock *A : F) {
    std::set<const BasicBlock *> Full = Oracle(A, false);
    std::set<const BasicBlock *> Forward = Oracle(A, true);
    for (const BasicBlock *B : F) {
      EXPECT_EQ(R.reaches(A, B), Full.count(B) != 0)
          << "seed " << GetParam() << ": " << A->getName() << " -> "
          << B->getName();
      EXPECT_EQ(R.forwardReaches(A, B), Forward.count(B) != 0)
          << "seed " << GetParam() << ": " << A->getName() << " -> "
          << B->getName();
    }
  }
}

TEST_P(CFGSeeds, BlocksCreatedLaterAreOutsideTheAnalyses) {
  auto M = randomCFG(GetParam() * 104729 + 5, 4 + GetParam() % 12);
  Function &F = *M->getFunction("main");
  DominatorTree DT(F), PDT(F, /*Post=*/true);
  LoopInfo LI(F, DT);
  unsigned Built = F.numBlockNumbers();
  const BasicBlock *Late[] = {F.createBlock("late"),
                              F.createBlockAfter(F.getEntryBlock(), "mid")};
  for (const BasicBlock *New : Late) {
    EXPECT_GE(New->getNumber(), Built);
    for (const DominatorTree *T : {&DT, &PDT}) {
      EXPECT_FALSE(T->contains(New));
      EXPECT_EQ(T->getIDom(New), nullptr);
      EXPECT_FALSE(T->dominates(New, New));
      for (const BasicBlock *BB : F) {
        EXPECT_FALSE(T->dominates(New, BB));
        EXPECT_FALSE(T->dominates(BB, New));
      }
    }
    EXPECT_EQ(LI.getLoopFor(New), nullptr);
    EXPECT_EQ(LI.getLoopDepth(New), 0u);
    for (const Loop *L : LI.loops()) {
      EXPECT_FALSE(L->contains(New));
      EXPECT_FALSE(LI.isBackEdge(New, L->getHeader()));
    }
    for (const BasicBlock *BB : F)
      EXPECT_FALSE(LI.isBackEdge(BB, New));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCFGs, CFGSeeds, ::testing::Range(1u, 26u));
