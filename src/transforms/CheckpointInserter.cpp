#include "transforms/CheckpointInserter.h"

#include "analysis/MemoryDependence.h"
#include "ir/IRBuilder.h"

#include <algorithm>
#include <queue>
#include <tuple>
#include <unordered_set>

using namespace wario;

namespace {

/// True for instructions that end an idempotent region: an executed
/// checkpoint, or a call (the callee's entry checkpoint fires before any
/// of its stores).
bool isRegionCut(const Instruction *I) {
  return I->getOpcode() == Opcode::Checkpoint ||
         I->getOpcode() == Opcode::Call;
}

/// The function's instructions in block order. Block B (numbered as in
/// CFGReachability) holds positions [Begin[B], Begin[B + 1]) and has its
/// first region cut at FirstCut[B] (its end if none). Instruction ids are
/// dense per function, so positions and blocks are looked up by id.
struct Layout {
  std::vector<Instruction *> Insts;
  std::vector<unsigned> Begin, FirstCut, PosOf, BlockOf;

  explicit Layout(const Function &F)
      : PosOf(F.nextInstId()), BlockOf(F.nextInstId()) {
    for (const BasicBlock *BB : F) {
      Begin.push_back(unsigned(Insts.size()));
      FirstCut.push_back(~0u);
      for (Instruction *I : *BB) {
        if (FirstCut.back() == ~0u && isRegionCut(I))
          FirstCut.back() = unsigned(Insts.size());
        PosOf[I->getId()] = unsigned(Insts.size());
        BlockOf[I->getId()] = unsigned(Begin.size() - 1);
        Insts.push_back(I);
      }
      FirstCut.back() = std::min(FirstCut.back(), unsigned(Insts.size()));
    }
    Begin.push_back(unsigned(Insts.size()));
  }
};

} // namespace

CheckpointInserterStats
wario::insertCheckpoints(Function &F, const CheckpointInserterOptions &Opts) {
  CheckpointInserterStats Stats;
  if (F.isDeclaration())
    return Stats;

  AliasAnalysis AA(Opts.Precision);
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  MemoryDependence MD(F, AA, LI);
  const CFGReachability &Reach = MD.reachability();
  Stats.WarsFound = unsigned(MD.deps().size());

  // A WAR is already cut when every path from just after the read R to
  // the write W passes a region cut. Blocks branch only at their end, so
  // one flood per read (the WAR list is grouped by read) over the blocks
  // a cut-free path enters at their head answers all of that read's
  // writes: a W later in R's block is reached iff it precedes the first
  // cut after R, any other W iff its block is entered and W precedes the
  // block's first cut.
  Layout L(F);
  std::vector<const MemDep *> Unresolved;
  std::vector<unsigned> EnteredAt(Reach.numBlocks(), 0), Work;
  const Instruction *Read = nullptr;
  unsigned Epoch = 0, RPos = 0, RBlock = 0, REnd = 0;
  for (const MemDep &D : MD.deps()) {
    if (D.Src != Read) {
      Read = D.Src;
      ++Epoch;
      RPos = L.PosOf[Read->getId()];
      RBlock = L.BlockOf[Read->getId()];
      REnd = RPos + 1;
      while (REnd != L.Begin[RBlock + 1] && !isRegionCut(L.Insts[REnd]))
        ++REnd;
      if (REnd == L.Begin[RBlock + 1])
        Work.push_back(RBlock); // Work holds blocks left at their end.
      while (!Work.empty()) {
        unsigned B = Work.back();
        Work.pop_back();
        for (unsigned S : Reach.successors(B))
          if (EnteredAt[S] != Epoch) {
            EnteredAt[S] = Epoch;
            if (L.FirstCut[S] == L.Begin[S + 1])
              Work.push_back(S);
          }
      }
    }
    unsigned W = L.PosOf[D.Dst->getId()], WBlock = L.BlockOf[D.Dst->getId()];
    if (WBlock == RBlock && W > RPos
            ? W >= REnd
            : EnteredAt[WBlock] != Epoch || W >= L.FirstCut[WBlock])
      ++Stats.WarsAlreadyCut;
    else
      Unresolved.push_back(&D);
  }
  if (Unresolved.empty())
    return Stats;
  if (Opts.Mode == CheckpointStrategy::Differential)
    return Stats; // Reboot rolls the dirty-page journal back past every
                  // uncommitted write, so unbroken WARs are harmless.
  if (Opts.Mode == CheckpointStrategy::Speculative) {
    // Speculative execution past the hazard: mark each WAR-completing
    // store for the emulator's word-granular undo log instead of
    // cutting the region.
    if (!Opts.SpecLogWars)
      return Stats; // Negative control: speculate without logging.
    std::unordered_set<Instruction *> Marked;
    for (const MemDep *V : Unresolved)
      if (Marked.insert(V->Dst).second) {
        assert(V->Dst->getOpcode() == Opcode::Store &&
               "WAR writer must be a store");
        V->Dst->setSpecLogged(true);
        ++Stats.StoresMarked;
      }
    return Stats;
  }
  if (!Opts.ResolveWars)
    return Stats;

  IRBuilder IRB(F.getParent());
  auto InsertBefore = [&](Instruction *X) {
    IRB.setInsertPoint(X);
    Instruction *C = IRB.createCheckpoint();
    C->setCheckpointCause(CheckpointCause::MiddleEndWar);
    ++Stats.Inserted;
  };

  if (Opts.Strategy == PlacementStrategy::PerWrite) {
    std::unordered_set<Instruction *> Done;
    for (const MemDep *V : Unresolved)
      if (Done.insert(V->Dst).second)
        InsertBefore(V->Dst);
    return Stats;
  }

  // Greedy minimum hitting set. A checkpoint resolves the WAR (R, W) when
  // it goes immediately before a point on all R->W paths. Blocks are only
  // entered at their head and only left at their terminator, so those are
  // the non-phi instructions of:
  //  - (R, W] when R precedes W in a shared block and the WAR is direct
  //    (the fall-through instance);
  //  - (R, block end) and [block head, W] when they share a block
  //    otherwise: the path leaves the block past R and re-enters at its
  //    head before W. A point in both ranges counts twice;
  //  - [head of W's block, W] when R lies in another block, since every
  //    R->W path ends with that segment. This is what lets one checkpoint
  //    resolve a whole cluster of writes parked at a loop latch.
  // Each list is thus a range from Lo to W in W's block, wrapping around
  // the block end in the second case. WARs with equal (Lo, W, Wrap) have
  // identical lists and form one group, weighted by its size.
  struct Group {
    unsigned Block, Lo, W;
    bool Wrap;
    unsigned Weight;
  };
  std::vector<Group> Groups;
  std::unordered_map<uint64_t, unsigned> GroupOf;
  for (const MemDep *V : Unresolved) {
    unsigned R = L.PosOf[V->Src->getId()], W = L.PosOf[V->Dst->getId()];
    unsigned Block = L.BlockOf[V->Dst->getId()];
    bool SameBlock = L.BlockOf[V->Src->getId()] == Block;
    bool Wrap = SameBlock && (V->LoopCarried || W < R);
    unsigned Lo = SameBlock ? R + 1 : L.Begin[Block];
    auto [It, Fresh] = GroupOf.try_emplace(
        uint64_t(Lo) << 33 | uint64_t(W) << 1 | Wrap, unsigned(Groups.size()));
    if (Fresh)
      Groups.push_back({Block, Lo, W, Wrap, 0});
    ++Groups[It->second].Weight;
  }

  // Count[P]: the unresolved WARs a checkpoint before position P resolves.
  std::vector<int> Count(L.Insts.size(), 0);
  auto AddToPoints = [&](const Group &G, int Delta) {
    auto Range = [&](unsigned From, unsigned To) {
      for (unsigned P = From; P != To; ++P)
        if (L.Insts[P]->getOpcode() != Opcode::Phi)
          Count[P] += Delta;
    };
    Range(G.Lo, G.Wrap ? L.Begin[G.Block + 1] : G.W + 1);
    if (G.Wrap)
      Range(L.Begin[G.Block], G.W + 1);
  };
  std::vector<std::vector<unsigned>> GroupsIn(Reach.numBlocks());
  for (unsigned G = 0; G != Groups.size(); ++G) {
    AddToPoints(Groups[G], int(Groups[G].Weight));
    GroupsIn[Groups[G].Block].push_back(G);
  }

  // Cost grows with loop depth so the greedy choice prefers resolving many
  // WARs with one checkpoint outside hot loops when possible.
  auto ScoreOf = [&](unsigned P) {
    unsigned Depth = std::min(LI.getLoopDepth(L.Insts[P]->getParent()), 8u);
    double Cost = 1.0;
    for (unsigned I = 0; Opts.DepthWeightedCost && I != Depth; ++I)
      Cost *= 4.0;
    return double(Count[P]) / Cost;
  };

  // Lazy max-heap of (score, ~id, position): the best score pops first,
  // and the lowest instruction id among equals. Scores only fall as WARs
  // are resolved, so a popped entry whose score is still current is the
  // greedy pick; a stale one is re-queued at its current score.
  std::priority_queue<std::tuple<double, unsigned, unsigned>> Heap;
  for (unsigned P = 0; P != Count.size(); ++P)
    if (Count[P])
      Heap.emplace(ScoreOf(P), ~L.Insts[P]->getId(), P);
  std::vector<bool> Resolved(Groups.size(), false);
  size_t Remaining = Groups.size();
  while (Remaining != 0 && !Heap.empty()) {
    auto [Score, NotId, P] = Heap.top();
    Heap.pop();
    if (double Now = ScoreOf(P); Now < Score) {
      if (Count[P])
        Heap.emplace(Now, NotId, P);
      continue;
    }
    InsertBefore(L.Insts[P]);
    for (unsigned G : GroupsIn[L.BlockOf[~NotId]]) {
      const Group &Gr = Groups[G];
      if (Resolved[G] || (Gr.Wrap ? P < Gr.Lo && P > Gr.W
                                  : P < Gr.Lo || P > Gr.W))
        continue; // Already resolved, or P is not one of its points.
      Resolved[G] = true;
      --Remaining;
      AddToPoints(Gr, -int(Gr.Weight));
    }
  }
  assert(Remaining == 0 && "hitting set left a WAR uncovered");
  return Stats;
}

CheckpointInserterStats
wario::insertCheckpoints(Module &M, const CheckpointInserterOptions &Opts) {
  CheckpointInserterStats Total;
  for (auto &F : M.functions()) {
    CheckpointInserterStats S = insertCheckpoints(*F, Opts);
    Total.WarsFound += S.WarsFound;
    Total.WarsAlreadyCut += S.WarsAlreadyCut;
    Total.Inserted += S.Inserted;
    Total.StoresMarked += S.StoresMarked;
  }
  return Total;
}
