#include "transforms/CheckpointInserter.h"

#include "analysis/WarDependence.h"
#include "ir/IRBuilder.h"
#include "support/WarPlacement.h"

#include <algorithm>
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

} // namespace

CheckpointInserterStats
wario::insertCheckpoints(Function &F, const CheckpointInserterOptions &Opts) {
  CheckpointInserterStats Stats;
  if (F.isDeclaration())
    return Stats;

  AliasAnalysis AA(Opts.Precision);
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  CFGReachability Reach(F, LI);
  std::vector<MemDep> Wars = findWars(F, AA, LI, Reach);
  Stats.WarsFound = unsigned(Wars.size());

  // The function's instructions as program points, blocks numbered as in
  // CFGReachability; instruction ids are dense, so points are looked up
  // by id.
  std::vector<Instruction *> Insts;
  std::vector<unsigned> PosOf(F.nextInstId());
  PointLayout L;
  for (const BasicBlock *BB : F) {
    for (Instruction *I : *BB) {
      PosOf[I->getId()] = unsigned(Insts.size());
      Insts.push_back(I);
      L.addPoint(isRegionCut(I));
    }
    L.endBlock();
  }

  // A WAR is already cut when every path from just after the read to the
  // write passes a region cut: one flood per read (the WAR list is
  // grouped by read) answers all of that read's writes.
  std::vector<const MemDep *> Unresolved;
  CutFreeFlood Flood(L);
  const Instruction *Read = nullptr;
  for (const MemDep &D : Wars) {
    if (D.Src != Read) {
      Read = D.Src;
      Flood.from(PosOf[Read->getId()], Reach);
    }
    if (Flood.reaches(PosOf[D.Dst->getId()]))
      Unresolved.push_back(&D);
    else
      ++Stats.WarsAlreadyCut;
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

  // Greedy minimum hitting set. Cost grows with loop depth so the greedy
  // choice prefers resolving many WARs with one checkpoint outside hot
  // loops when possible; phis are no insertion points.
  HittingSet HS(L);
  for (const MemDep *V : Unresolved)
    HS.addWar(PosOf[V->Src->getId()], PosOf[V->Dst->getId()],
              V->LoopCarried);
  std::vector<double> BlockCost;
  for (const BasicBlock *BB : F) {
    unsigned Depth = std::min(LI.getLoopDepth(BB), 8u);
    BlockCost.push_back(1.0);
    for (unsigned I = 0; Opts.DepthWeightedCost && I != Depth; ++I)
      BlockCost.back() *= 4.0;
  }
  for (unsigned P : HS.solve(
           BlockCost,
           [&](unsigned P) { return Insts[P]->getOpcode() != Opcode::Phi; },
           [&](unsigned P) { return Insts[P]->getId(); }))
    InsertBefore(Insts[P]);
  return Stats;
}
