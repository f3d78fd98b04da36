#include "backend/SpillCheckpoint.h"

#include "support/WarPlacement.h"

#include <algorithm>

using namespace wario;

SpillCheckpointStats
wario::insertSpillCheckpoints(MFunction &F, const MachineCFG &CFG,
                              const SpillCheckpointOptions &Opts) {
  assert(F.FrameLowered && "run after frame lowering");
  SpillCheckpointStats Stats;

  // Program points in block order, the slot loads among them, and each
  // slot's stores. Checkpoints and calls cut regions.
  PointLayout L;
  std::vector<std::pair<unsigned, int>> Loads; // (point, slot).
  std::vector<std::vector<unsigned>> StoresTo(F.Slots.size());
  for (const MBasicBlock &BB : F.Blocks) {
    for (const MInst &I : BB.Insts) {
      if (I.Op == MOp::LdrSlot)
        Loads.emplace_back(L.numPoints(), I.Slot);
      else if (I.Op == MOp::StrSlot)
        StoresTo[I.Slot].push_back(L.numPoints());
      L.addPoint(I.Op == MOp::Checkpoint || I.Op == MOp::Bl);
    }
    L.endBlock();
  }

  // WARs: a slot load and a same-slot store one cut-free flood from the
  // load reaches. A same-block pair is one WAR whatever the direction.
  CutFreeFlood Flood(L);
  HittingSet HS(L);
  std::vector<unsigned> InsertAt;
  for (auto [R, Slot] : Loads) {
    Flood.from(R, CFG);
    for (unsigned W : StoresTo[Slot])
      if (Flood.reaches(W)) {
        ++Stats.WarsFound;
        HS.addWar(R, W, /*LoopCarried=*/false);
        InsertAt.push_back(W);
      }
  }
  if (!Stats.WarsFound)
    return Stats;

  if (Opts.HittingSet) {
    std::vector<double> BlockCost;
    for (unsigned B = 0; B != CFG.numBlocks(); ++B) {
      BlockCost.push_back(1.0);
      for (unsigned D = 0; D != std::min(CFG.loopDepth(B), 8u); ++D)
        BlockCost.back() *= 4.0;
    }
    InsertAt = HS.solve(BlockCost, [](unsigned) { return true; },
                        [](unsigned P) { return P; });
  }

  // Apply insertions bottom-up so indices stay valid; per-write placement
  // puts one checkpoint before each WAR-completing store.
  std::sort(InsertAt.begin(), InsertAt.end());
  InsertAt.erase(std::unique(InsertAt.begin(), InsertAt.end()),
                 InsertAt.end());
  for (auto It = InsertAt.rbegin(); It != InsertAt.rend(); ++It) {
    MInst C;
    C.Op = MOp::Checkpoint;
    C.Cause = CheckpointCause::BackendSpill;
    unsigned B = L.BlockOf[*It];
    auto &Insts = F.Blocks[B].Insts;
    Insts.insert(Insts.begin() + (*It - L.Begin[B]), C);
    ++Stats.Inserted;
  }
  return Stats;
}
