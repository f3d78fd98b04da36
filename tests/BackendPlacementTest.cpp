//===----------------------------------------------------------------------===//
///
/// \file
/// Back-end differential tests. The back end finds spill WARs with one
/// cut-free flood per slot load, places their checkpoints with the
/// middle end's range-group hitting set, and takes loop depth from
/// Cooper-Harvey-Kennedy dominators. Each is checked against the
/// algorithm it replaced, kept here as the reference:
///
///  - spill WARs per function equal a per-pair path scan (`warIsCut`);
///  - the inserted checkpoints equal the old rescanning greedy's, and
///    after insertion the path scan finds no uncut spill WAR;
///  - machine loop depth equals the bit-matrix dominators plus one
///    natural-loop walk per back edge.
///
/// Inputs: every workload under every placement configuration, the
/// random programs of PropertyTest's FuzzSuite, and random machine CFGs
/// and slot accesses.
///
//===----------------------------------------------------------------------===//

#include "PlacementConfigs.h"
#include "RandomProgram.h"

#include "backend/Backend.h"
#include "backend/Frame.h"
#include "backend/ISel.h"
#include "frontend/Frontend.h"
#include "ir/Cloning.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

using namespace wario;
using namespace wario::test;

namespace {

//===----------------------------------------------------------------------===//
// Reference algorithms
//===----------------------------------------------------------------------===//

/// Loop depth per block: dominators as dense bit rows iterated to a
/// fixpoint, then one natural-loop walk per back edge.
std::vector<unsigned> referenceLoopDepth(const MFunction &F) {
  unsigned N = unsigned(F.Blocks.size());
  std::vector<std::vector<int>> Preds(N);
  for (unsigned B = 0; B != N; ++B)
    for (int S : F.successors(int(B)))
      Preds[S].push_back(int(B));

  std::vector<std::vector<bool>> Dom(N, std::vector<bool>(N, true));
  Dom[0].assign(N, false);
  Dom[0][0] = true;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = 1; B != N; ++B) {
      std::vector<bool> New(N, true);
      if (Preds[B].empty())
        New.assign(N, false);
      for (int P : Preds[B])
        for (unsigned K = 0; K != N; ++K)
          New[K] = New[K] && Dom[P][K];
      New[B] = true;
      if (New != Dom[B]) {
        Dom[B] = std::move(New);
        Changed = true;
      }
    }
  }

  std::vector<unsigned> Depth(N, 0);
  for (unsigned U = 0; U != N; ++U)
    for (int H : F.successors(int(U))) {
      if (!Dom[U][H])
        continue;
      std::vector<bool> InLoop(N, false);
      InLoop[H] = true;
      std::vector<int> Work{int(U)};
      while (!Work.empty()) {
        int B = Work.back();
        Work.pop_back();
        if (InLoop[B])
          continue;
        InLoop[B] = true;
        for (int P : Preds[B])
          Work.push_back(P);
      }
      for (unsigned B = 0; B != N; ++B)
        Depth[B] += InLoop[B];
    }
  return Depth;
}

/// A program point: before Insts[Index] of block Block.
struct MPos {
  int Block;
  int Index;
  auto operator<=>(const MPos &) const = default;
};

bool isCut(const MInst &I) {
  return I.Op == MOp::Checkpoint || I.Op == MOp::Bl;
}

/// True if every path from just after \p Load to \p Store passes a
/// checkpoint or call: a block-by-block search per pair.
bool warIsCut(const MFunction &F, MPos Load, MPos Store) {
  enum ScanResult { FoundStore, Blocked, FellThrough };
  auto Scan = [&](int Block, int From) {
    const auto &Insts = F.Blocks[Block].Insts;
    for (int I = From; I < int(Insts.size()); ++I) {
      if (Block == Store.Block && I == Store.Index)
        return FoundStore;
      if (isCut(Insts[I]))
        return Blocked;
    }
    return FellThrough;
  };
  std::vector<int> Work;
  std::set<int> Visited;
  auto Enqueue = [&](int B) {
    for (int S : F.successors(B))
      if (Visited.insert(S).second)
        Work.push_back(S);
  };
  switch (Scan(Load.Block, Load.Index + 1)) {
  case FoundStore:
    return false;
  case Blocked:
    return true;
  case FellThrough:
    Enqueue(Load.Block);
    break;
  }
  while (!Work.empty()) {
    int B = Work.back();
    Work.pop_back();
    switch (Scan(B, 0)) {
    case FoundStore:
      return false;
    case Blocked:
      break;
    case FellThrough:
      Enqueue(B);
      break;
    }
  }
  return true;
}

/// Every (slot load, same-slot store) pair with an uncut path.
std::vector<std::pair<MPos, MPos>> referenceSpillWars(const MFunction &F) {
  std::vector<std::pair<MPos, int>> Loads, Stores;
  for (int B = 0; B != int(F.Blocks.size()); ++B)
    for (int I = 0; I != int(F.Blocks[B].Insts.size()); ++I) {
      const MInst &MI = F.Blocks[B].Insts[I];
      if (MI.Op == MOp::LdrSlot)
        Loads.push_back({{B, I}, MI.Slot});
      else if (MI.Op == MOp::StrSlot)
        Stores.push_back({{B, I}, MI.Slot});
    }
  std::vector<std::pair<MPos, MPos>> Wars;
  for (auto &[L, LSlot] : Loads)
    for (auto &[S, SSlot] : Stores)
      if (LSlot == SSlot && !warIsCut(F, L, S))
        Wars.emplace_back(L, S);
  return Wars;
}

/// The old placement: per WAR, the points a checkpoint resolves it at;
/// then a greedy that rescans every point per pick, taking the first
/// best score in (block, index) order. Inserts like insertSpillCheckpoints.
void referenceSpillCheckpoints(MFunction &F, bool HittingSet) {
  std::vector<std::pair<MPos, MPos>> Wars = referenceSpillWars(F);
  std::vector<MPos> InsertAt;
  if (!HittingSet) {
    std::set<MPos> Done;
    for (auto &[L, S] : Wars)
      if (Done.insert(S).second)
        InsertAt.push_back(S);
  } else {
    std::vector<unsigned> Depth = referenceLoopDepth(F);
    std::map<MPos, std::vector<unsigned>> Covers;
    for (unsigned Idx = 0; Idx != Wars.size(); ++Idx) {
      auto [L, S] = Wars[Idx];
      auto Add = [&](int From, int To) {
        for (int I = From; I <= To; ++I)
          Covers[{S.Block, I}].push_back(Idx);
      };
      if (L.Block != S.Block) {
        Add(0, S.Index);
      } else if (L.Index < S.Index) {
        Add(L.Index + 1, S.Index);
      } else {
        Add(L.Index + 1, int(F.Blocks[L.Block].Insts.size()) - 1);
        Add(0, S.Index);
      }
    }
    std::vector<bool> Resolved(Wars.size(), false);
    unsigned Remaining = unsigned(Wars.size());
    while (Remaining) {
      const MPos *Best = nullptr;
      double BestScore = -1.0;
      for (auto &[P, Ws] : Covers) {
        unsigned Count = 0;
        for (unsigned Idx : Ws)
          Count += !Resolved[Idx];
        double Cost = 1.0;
        for (unsigned D = 0; D != std::min(Depth[P.Block], 8u); ++D)
          Cost *= 4.0;
        if (Count && double(Count) / Cost > BestScore) {
          BestScore = double(Count) / Cost;
          Best = &P;
        }
      }
      ASSERT_TRUE(Best);
      InsertAt.push_back(*Best);
      for (unsigned Idx : Covers[*Best])
        if (!Resolved[Idx]) {
          Resolved[Idx] = true;
          --Remaining;
        }
    }
  }
  std::sort(InsertAt.begin(), InsertAt.end());
  for (auto It = InsertAt.rbegin(); It != InsertAt.rend(); ++It) {
    MInst C;
    C.Op = MOp::Checkpoint;
    C.Cause = CheckpointCause::BackendSpill;
    auto &Insts = F.Blocks[It->Block].Insts;
    Insts.insert(Insts.begin() + It->Index, C);
  }
}

//===----------------------------------------------------------------------===//
// Checks
//===----------------------------------------------------------------------===//

bool allReachable(const MFunction &F) {
  std::vector<bool> Seen(F.Blocks.size(), false);
  std::vector<int> Work{0};
  Seen[0] = true;
  while (!Work.empty()) {
    int B = Work.back();
    Work.pop_back();
    for (int S : F.successors(B))
      if (!Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
  }
  return std::find(Seen.begin(), Seen.end(), false) == Seen.end();
}

void expectLoopDepthMatches(const MFunction &F, const MachineCFG &CFG,
                            const std::string &Where) {
  std::vector<unsigned> Want = referenceLoopDepth(F);
  ASSERT_EQ(CFG.numBlocks(), Want.size()) << Where;
  for (unsigned B = 0; B != Want.size(); ++B)
    EXPECT_EQ(CFG.loopDepth(B), Want[B]) << Where << ", block " << B;
}

/// Runs insertSpillCheckpoints on a frame-lowered \p F and checks it
/// against the references: the WAR count, the exact checkpoints, and no
/// uncut spill WAR afterwards. Returns the WARs found.
unsigned expectSpillPlacementMatches(MFunction &F, const MachineCFG &CFG,
                                     bool HittingSet,
                                     const std::string &Where) {
  MFunction Ref = F;
  unsigned WantWars = unsigned(referenceSpillWars(F).size());
  referenceSpillCheckpoints(Ref, HittingSet);
  SpillCheckpointOptions Opts;
  Opts.HittingSet = HittingSet;
  SpillCheckpointStats Got = insertSpillCheckpoints(F, CFG, Opts);
  EXPECT_EQ(Got.WarsFound, WantWars) << Where;
  EXPECT_EQ(printMFunction(F), printMFunction(Ref)) << Where;
  EXPECT_TRUE(referenceSpillWars(F).empty()) << Where;
  return Got.WarsFound;
}

/// Lowers \p M as runBackend does for \p PO, checking every function's
/// loop depth (before allocation) and spill placement (after frame
/// lowering) against the references. Returns the spill WARs found.
unsigned checkBackend(const Module &M, const PipelineOptions &PO,
                      const std::string &Where) {
  BackendOptions BO = backendConfig(PO);
  RegAllocOptions RAOpts;
  RAOpts.StackSlotSharing = BO.StackSlotSharing;
  FrameOptions FOpts;
  FOpts.EpilogOptimizer = BO.EpilogOptimizer;
  FOpts.InsertCheckpoints = BO.InsertCheckpoints;
  unsigned Wars = 0;
  MModule MM = selectModule(M);
  for (MFunction &F : MM.Functions) {
    std::string At = Where + " @" + F.Name;
    EXPECT_TRUE(allReachable(F)) << At;
    MachineCFG CFG(F);
    expectLoopDepthMatches(F, CFG, At);
    allocateRegisters(F, CFG, RAOpts);
    lowerFrame(F, FOpts);
    Wars += expectSpillPlacementMatches(F, CFG, BO.HittingSetSpill, At);
  }
  return Wars;
}

//===----------------------------------------------------------------------===//
// Random machine code
//===----------------------------------------------------------------------===//

/// A random CFG whose blocks are all reachable from block 0: a random
/// spanning tree, then extra edges anywhere (self-loops, back edges,
/// edges into loop bodies, so irreducible regions too), sometimes a CBr
/// whose two targets agree. When \p Slots > 0 the blocks also get random
/// slot loads/stores, checkpoints and calls, and the function is marked
/// frame-lowered so insertSpillCheckpoints accepts it.
MFunction randomMachineFunction(std::mt19937 &Rng, unsigned Slots) {
  auto Pick = [&](unsigned N) { return unsigned(Rng() % N); };
  unsigned N = 1 + Pick(24);
  std::vector<std::vector<int>> Succs(N);
  for (unsigned B = 1; B != N; ++B) {
    unsigned P;
    do
      P = Pick(B);
    while (Succs[P].size() == 2);
    Succs[P].push_back(int(B));
  }
  for (unsigned B = 0; B != N; ++B)
    while (Succs[B].size() < 2 && Pick(3) == 0)
      Succs[B].push_back(int(Pick(N)));

  MFunction F;
  F.Name = "random";
  F.Slots.assign(Slots, {FrameSlot::Kind::Spill, 4, -1});
  F.FrameLowered = Slots > 0;
  for (unsigned B = 0; B != N; ++B) {
    MBasicBlock BB;
    BB.Name = "b" + std::to_string(B);
    for (unsigned I = Slots ? Pick(6) : 0; I != 0; --I) {
      MInst MI;
      switch (Pick(8)) {
      case 0:
        MI.Op = MOp::Checkpoint;
        break;
      case 1:
        MI.Op = MOp::Bl;
        MI.CalleeIdx = 0;
        break;
      case 2:
      case 3:
      case 4:
        MI.Op = MOp::LdrSlot;
        MI.Dst = R0;
        MI.Slot = int(Pick(Slots));
        break;
      default:
        MI.Op = MOp::StrSlot;
        MI.Src[0] = R0;
        MI.Slot = int(Pick(Slots));
        break;
      }
      BB.Insts.push_back(MI);
    }
    MInst T;
    if (Succs[B].empty()) {
      T.Op = MOp::Ret;
    } else if (Succs[B].size() == 1 && Pick(4) != 0) {
      T.Op = MOp::B;
      T.Target[0] = Succs[B][0];
    } else {
      T.Op = MOp::CBr;
      T.Src[0] = R0;
      T.Target[0] = Succs[B][0];
      T.Target[1] = Succs[B].back();
    }
    BB.Insts.push_back(T);
    F.Blocks.push_back(std::move(BB));
  }
  return F;
}

} // namespace

TEST(SpillPlacement, MatchesReferencesOnWorkloads) {
  for (const Workload &W : allWorkloads()) {
    DiagnosticEngine Diags;
    std::unique_ptr<Module> Front = buildWorkloadIR(W, Diags);
    ASSERT_TRUE(Front) << Diags.formatAll();
    PipelineStats FrontStats;
    runFrontHalf(*Front, FrontStats);
    for (const PlacementConfig &C : PlacementConfigs) {
      std::unique_ptr<Module> M = cloneModule(*Front);
      PipelineOptions PO = C.options();
      PipelineStats S;
      runMiddleEnd(*M, PO, S);
      std::string Where = W.Name + " @ " + C.Name;
      unsigned Wars = checkBackend(*M, PO, Where);
      // The pipeline's own count covers the same functions (it skips
      // placement, not detection, only under wario-diff).
      if (C.Strat != CheckpointStrategy::Differential) {
        runBackendStage(*M, PO, S);
        EXPECT_EQ(S.Backend.SpillWars, Wars) << Where;
      }
    }
  }
}

TEST(SpillPlacement, MatchesReferencesOnRandomPrograms) {
  unsigned Wars = 0;
  for (uint32_t Seed = 1; Seed != 61; ++Seed) {
    RandomProgramGenerator Gen(Seed);
    DiagnosticEngine Diags;
    std::unique_ptr<Module> Front = compileC(Gen.generate(), "fuzz", Diags);
    ASSERT_TRUE(Front) << "seed " << Seed << ": " << Diags.formatAll();
    PipelineStats FrontStats;
    runFrontHalf(*Front, FrontStats);
    for (const PlacementConfig &C : PlacementConfigs) {
      std::unique_ptr<Module> M = cloneModule(*Front);
      PipelineOptions PO = C.options();
      PipelineStats S;
      runMiddleEnd(*M, PO, S);
      Wars += checkBackend(*M, PO,
                           "seed " + std::to_string(Seed) + " @ " + C.Name);
    }
  }
  EXPECT_GT(Wars, 0u); // The programs do exercise spill WARs.
}

TEST(SpillPlacement, MatchesReferencesOnRandomMachineCode) {
  std::mt19937 Rng(20221);
  unsigned Wars = 0;
  for (unsigned Case = 0; Case != 2000; ++Case) {
    MFunction F = randomMachineFunction(Rng, 1 + Case % 3);
    MachineCFG CFG(F);
    Wars += expectSpillPlacementMatches(F, CFG, Case % 4 != 0,
                                        "case " + std::to_string(Case));
  }
  EXPECT_GT(Wars, 1000u);
}

TEST(MachineLoopDepth, MatchesDominatorMatrixOnRandomCFGs) {
  std::mt19937 Rng(7);
  unsigned Nested = 0;
  for (unsigned Case = 0; Case != 5000; ++Case) {
    MFunction F = randomMachineFunction(Rng, 0);
    ASSERT_TRUE(allReachable(F));
    MachineCFG CFG(F);
    expectLoopDepthMatches(F, CFG, "case " + std::to_string(Case));
    for (unsigned B = 0; B != CFG.numBlocks(); ++B)
      Nested += CFG.loopDepth(B) > 1;
  }
  EXPECT_GT(Nested, 0u);
}

/// Hand-built shapes the random CFGs hit only by chance: a self-loop, two
/// back edges into one header (two loops), a CBr whose targets agree
/// (one loop per edge), and an irreducible region entered at two blocks.
TEST(MachineLoopDepth, CountsOneLoopPerBackEdge) {
  auto Build = [](std::vector<std::vector<int>> Succs) {
    MFunction F;
    for (const std::vector<int> &S : Succs) {
      MBasicBlock BB;
      MInst T;
      T.Op = S.empty() ? MOp::Ret : S.size() == 1 ? MOp::B : MOp::CBr;
      for (unsigned I = 0; I != S.size(); ++I)
        T.Target[I] = S[I];
      BB.Insts.push_back(T);
      F.Blocks.push_back(BB);
    }
    return F;
  };
  auto Depths = [](const MFunction &F) {
    MachineCFG CFG(F);
    std::vector<unsigned> D;
    for (unsigned B = 0; B != CFG.numBlocks(); ++B)
      D.push_back(CFG.loopDepth(B));
    EXPECT_EQ(D, referenceLoopDepth(F));
    return D;
  };
  using V = std::vector<unsigned>;
  EXPECT_EQ(Depths(Build({{1}, {1, 2}, {}})), (V{0, 1, 0}));
  EXPECT_EQ(Depths(Build({{1}, {2, 3}, {1}, {1, 4}, {}})),
            (V{0, 2, 1, 1, 0}));
  EXPECT_EQ(Depths(Build({{1}, {2}, {1, 1}})), (V{0, 2, 2}));
  EXPECT_EQ(Depths(Build({{1, 2}, {2}, {1, 3}, {}})), (V{0, 0, 0, 0}));
}
