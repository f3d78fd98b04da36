#include "backend/SpillCheckpoint.h"

#include "backend/MachineCFG.h"

#include <algorithm>
#include <map>
#include <set>

using namespace wario;

namespace {

/// A program point: before Insts[Index] of block Block.
struct MPos {
  int Block;
  int Index;
  bool operator<(const MPos &O) const {
    return std::tie(Block, Index) < std::tie(O.Block, O.Index);
  }
  bool operator==(const MPos &O) const {
    return Block == O.Block && Index == O.Index;
  }
};

bool isCut(const MInst &I) {
  return I.Op == MOp::Checkpoint || I.Op == MOp::Bl;
}

/// Exact "is every load->store path cut" check at MIR granularity (the
/// middle-end CheckpointInserter asks the same of each IR WAR).
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
  switch (Scan(Load.Block, Load.Index + 1)) {
  case FoundStore:
    return false;
  case Blocked:
    return true;
  case FellThrough:
    for (int S : F.successors(Load.Block))
      if (Visited.insert(S).second)
        Work.push_back(S);
    break;
  }
  while (!Work.empty()) {
    int B = Work.back();
    Work.pop_back();
    switch (Scan(B, 0)) {
    case FoundStore:
      return false;
    case Blocked:
      continue;
    case FellThrough:
      for (int S : F.successors(B))
        if (Visited.insert(S).second)
          Work.push_back(S);
      break;
    }
  }
  return true;
}

/// Program points at which a checkpoint provably resolves (Load, Store);
/// the same ranges the middle-end CheckpointInserter derives per WAR.
std::vector<MPos> resolvingPoints(const MFunction &F, MPos Load,
                                  MPos Store) {
  std::vector<MPos> Points;
  if (Load.Block == Store.Block) {
    if (Load.Index < Store.Index) {
      for (int I = Load.Index + 1; I <= Store.Index; ++I)
        Points.push_back({Load.Block, I});
      return Points;
    }
    int N = int(F.Blocks[Load.Block].Insts.size());
    for (int I = Load.Index + 1; I < N; ++I)
      Points.push_back({Load.Block, I});
    for (int I = 0; I <= Store.Index; ++I)
      Points.push_back({Load.Block, I});
    return Points;
  }
  // Cross-block: blocks are entered only at their head, so every point up
  // to the store within its block lies on all load->store paths.
  for (int I = 0; I <= Store.Index; ++I)
    Points.push_back({Store.Block, I});
  return Points;
}

} // namespace

SpillCheckpointStats
wario::insertSpillCheckpoints(MFunction &F,
                              const SpillCheckpointOptions &Opts) {
  assert(F.FrameLowered && "run after frame lowering");
  SpillCheckpointStats Stats;

  // Collect slot accesses.
  struct Access {
    MPos Pos;
    int Slot;
    bool IsStore;
  };
  std::vector<Access> Accesses;
  for (int B = 0; B != int(F.Blocks.size()); ++B)
    for (int I = 0; I != int(F.Blocks[B].Insts.size()); ++I) {
      const MInst &MI = F.Blocks[B].Insts[I];
      if (MI.Op == MOp::LdrSlot)
        Accesses.push_back({{B, I}, MI.Slot, false});
      else if (MI.Op == MOp::StrSlot)
        Accesses.push_back({{B, I}, MI.Slot, true});
    }
  if (Accesses.empty())
    return Stats;

  // WAR pairs: a slot load that can reach a same-slot store uncut.
  std::vector<std::pair<MPos, MPos>> Wars;
  for (const Access &L : Accesses) {
    if (L.IsStore)
      continue;
    for (const Access &S : Accesses) {
      if (!S.IsStore || S.Slot != L.Slot)
        continue;
      if (!warIsCut(F, L.Pos, S.Pos))
        Wars.emplace_back(L.Pos, S.Pos);
    }
  }
  Stats.WarsFound = unsigned(Wars.size());
  if (Wars.empty())
    return Stats;

  std::vector<MPos> InsertAt;
  if (!Opts.HittingSet) {
    std::set<MPos> Done;
    for (auto &[L, S] : Wars)
      if (Done.insert(S).second)
        InsertAt.push_back(S);
  } else {
    std::vector<unsigned> Depth = computeMachineLoopDepth(F);
    std::map<MPos, std::vector<unsigned>> Covers;
    for (unsigned Idx = 0; Idx != Wars.size(); ++Idx)
      for (const MPos &P : resolvingPoints(F, Wars[Idx].first,
                                           Wars[Idx].second))
        Covers[P].push_back(Idx);
    auto CostOf = [&](const MPos &P) {
      unsigned D = std::min(Depth[P.Block], 8u);
      double C = 1.0;
      for (unsigned I = 0; I != D; ++I)
        C *= 4.0;
      return C;
    };
    std::vector<bool> Resolved(Wars.size(), false);
    unsigned Remaining = unsigned(Wars.size());
    while (Remaining) {
      const MPos *Best = nullptr;
      double BestScore = -1.0;
      for (auto &[P, Ws] : Covers) {
        unsigned Count = 0;
        for (unsigned Idx : Ws)
          if (!Resolved[Idx])
            ++Count;
        if (!Count)
          continue;
        double Score = double(Count) / CostOf(P);
        if (Score > BestScore) {
          BestScore = Score;
          Best = &P;
        }
      }
      assert(Best && "hitting set failed to cover spill WARs");
      InsertAt.push_back(*Best);
      for (unsigned Idx : Covers[*Best])
        if (!Resolved[Idx]) {
          Resolved[Idx] = true;
          --Remaining;
        }
    }
  }

  // Apply insertions bottom-up per block so indices stay valid.
  std::sort(InsertAt.begin(), InsertAt.end());
  for (auto It = InsertAt.rbegin(); It != InsertAt.rend(); ++It) {
    MInst C;
    C.Op = MOp::Checkpoint;
    C.Cause = CheckpointCause::BackendSpill;
    auto &Insts = F.Blocks[It->Block].Insts;
    Insts.insert(Insts.begin() + It->Index, C);
    ++Stats.Inserted;
  }
  return Stats;
}
