//===----------------------------------------------------------------------===//
///
/// \file
/// WAR placement shared by the middle end's CheckpointInserter and the
/// back end's SpillCheckpoint: a function's program points in block
/// order, one cut-free flood per read that tells which of the read's WARs
/// are already cut, and a greedy minimum hitting set (after de Kruijf et
/// al.) over the WARs that are not. A point is a position in the
/// function's instructions, block by block; a checkpoint "at P" goes
/// immediately before the instruction at P.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_SUPPORT_WARPLACEMENT_H
#define WARIO_SUPPORT_WARPLACEMENT_H

#include <cassert>
#include <cstdint>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace wario {

/// Program points in block order. Block B holds [Begin[B], Begin[B + 1]);
/// NextCut[P] is the first region cut at or after P in P's block, or the
/// block's end if there is none.
struct PointLayout {
  std::vector<unsigned> Begin{0}, BlockOf, NextCut;

  /// Appends the next instruction of the block being built.
  void addPoint(bool IsCut) {
    BlockOf.push_back(numBlocks());
    NextCut.push_back(IsCut ? numPoints() - 1 : ~0u);
  }
  /// Closes the block being built.
  void endBlock() {
    unsigned End = numPoints();
    for (unsigned P = End; P-- != Begin.back();)
      if (NextCut[P] == ~0u)
        NextCut[P] = P + 1 == End ? End : NextCut[P + 1];
    Begin.push_back(End);
  }
  unsigned numBlocks() const { return unsigned(Begin.size() - 1); }
  unsigned numPoints() const { return unsigned(BlockOf.size()); }
  /// The first cut in block \p B at or after \p P (at most the block end).
  unsigned cutFrom(unsigned P, unsigned B) const {
    return P == Begin[B + 1] ? P : NextCut[P];
  }
};

/// The points a path from just after one read reaches before it passes a
/// region cut. Blocks branch only at their end, so the flood visits the
/// blocks such a path enters at their head: a point later in the read's
/// block is reached iff it precedes the first cut after the read, any
/// other point iff its block is entered and it precedes the block's
/// first cut.
class CutFreeFlood {
public:
  explicit CutFreeFlood(const PointLayout &L)
      : L(L), EnteredAt(L.numBlocks(), 0) {}

  /// Floods from just after point \p R over \p G, whose successors(B)
  /// lists the successor blocks of block B.
  template <typename Graph> void from(unsigned R, const Graph &G) {
    ++Epoch;
    Read = R;
    unsigned B = L.BlockOf[R];
    ReadEnd = L.cutFrom(R + 1, B);
    if (ReadEnd == L.Begin[B + 1])
      Work.push_back(B); // Work holds blocks left at their end.
    while (!Work.empty()) {
      unsigned X = Work.back();
      Work.pop_back();
      for (unsigned S : G.successors(X))
        if (EnteredAt[S] != Epoch) {
          EnteredAt[S] = Epoch;
          if (L.cutFrom(L.Begin[S], S) == L.Begin[S + 1])
            Work.push_back(S);
        }
    }
  }

  /// True if the last flood reaches point \p W.
  bool reaches(unsigned W) const {
    unsigned B = L.BlockOf[W];
    if (B == L.BlockOf[Read] && W > Read)
      return W < ReadEnd;
    return EnteredAt[B] == Epoch && W < L.cutFrom(L.Begin[B], B);
  }

private:
  const PointLayout &L;
  std::vector<unsigned> EnteredAt, Work;
  unsigned Epoch = 0, Read = 0, ReadEnd = 0;
};

/// Greedy minimum hitting set over uncut WARs. A checkpoint resolves the
/// WAR (R, W) when it goes immediately before a point on all R->W paths.
/// Blocks are only entered at their head and only left at their end, so
/// those are the points of:
///  - (R, W] when R precedes W in a shared block and the WAR is direct
///    (the fall-through instance);
///  - (R, block end) and [block head, W] when they share a block
///    otherwise: the path leaves the block past R and re-enters at its
///    head before W. A point in both ranges counts twice;
///  - [head of W's block, W] when R lies in another block, since every
///    R->W path ends with that segment. This is what lets one checkpoint
///    resolve a whole cluster of writes parked at a loop latch.
/// Each list is thus a range from Lo to W in W's block, wrapping around
/// the block end in the second case. WARs with equal (Lo, W, Wrap) have
/// identical lists and form one group, weighted by its size.
class HittingSet {
public:
  explicit HittingSet(const PointLayout &L) : L(L) {}

  /// Adds the WAR from read point \p R to write point \p W; a
  /// \p LoopCarried instance within one block wraps even when R < W.
  void addWar(unsigned R, unsigned W, bool LoopCarried) {
    unsigned Block = L.BlockOf[W];
    bool SameBlock = L.BlockOf[R] == Block;
    bool Wrap = SameBlock && (LoopCarried || W < R);
    unsigned Lo = SameBlock ? R + 1 : L.Begin[Block];
    auto [It, Fresh] = GroupOf.try_emplace(
        uint64_t(Lo) << 33 | uint64_t(W) << 1 | Wrap, unsigned(Groups.size()));
    if (Fresh)
      Groups.push_back({Block, Lo, W, Wrap, 0});
    ++Groups[It->second].Weight;
  }

  /// Picks points until every WAR is resolved and returns them in pick
  /// order. Each pick has the highest score: the unresolved WARs a
  /// checkpoint there resolves over its block's \p BlockCost. Among equal
  /// scores the lowest \p Rank(P) wins. \p IsPoint(P) says whether a
  /// checkpoint may go before P at all.
  template <typename PointFn, typename RankFn>
  std::vector<unsigned> solve(const std::vector<double> &BlockCost,
                              PointFn IsPoint, RankFn Rank) {
    // Count[P]: the unresolved WARs a checkpoint at P resolves.
    std::vector<int> Count(L.numPoints(), 0);
    auto AddToPoints = [&](const Group &G, int Delta) {
      auto Range = [&](unsigned From, unsigned To) {
        for (unsigned P = From; P != To; ++P)
          if (IsPoint(P))
            Count[P] += Delta;
      };
      Range(G.Lo, G.Wrap ? L.Begin[G.Block + 1] : G.W + 1);
      if (G.Wrap)
        Range(L.Begin[G.Block], G.W + 1);
    };
    std::vector<std::vector<unsigned>> GroupsIn(L.numBlocks());
    for (unsigned G = 0; G != Groups.size(); ++G) {
      AddToPoints(Groups[G], int(Groups[G].Weight));
      GroupsIn[Groups[G].Block].push_back(G);
    }
    auto ScoreOf = [&](unsigned P) {
      return double(Count[P]) / BlockCost[L.BlockOf[P]];
    };

    // Lazy max-heap of (score, ~rank, point): the best score pops first,
    // and the lowest rank among equals. Scores only fall as WARs are
    // resolved, so a popped entry whose score is still current is the
    // greedy pick; a stale one is re-queued at its current score.
    std::priority_queue<std::tuple<double, unsigned, unsigned>> Heap;
    for (unsigned P = 0; P != Count.size(); ++P)
      if (Count[P])
        Heap.emplace(ScoreOf(P), ~unsigned(Rank(P)), P);
    std::vector<bool> Resolved(Groups.size(), false);
    size_t Remaining = Groups.size();
    std::vector<unsigned> Picks;
    while (Remaining != 0 && !Heap.empty()) {
      auto [Score, NotRank, P] = Heap.top();
      Heap.pop();
      if (double Now = ScoreOf(P); Now < Score) {
        if (Count[P])
          Heap.emplace(Now, NotRank, P);
        continue;
      }
      Picks.push_back(P);
      for (unsigned G : GroupsIn[L.BlockOf[P]]) {
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
    return Picks;
  }

private:
  struct Group {
    unsigned Block, Lo, W;
    bool Wrap;
    unsigned Weight;
  };
  const PointLayout &L;
  std::vector<Group> Groups;
  std::unordered_map<uint64_t, unsigned> GroupOf;
};

} // namespace wario

#endif // WARIO_SUPPORT_WARPLACEMENT_H
