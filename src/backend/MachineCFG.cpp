#include "backend/MachineCFG.h"

#include "support/Dominance.h"

using namespace wario;

MachineCFG::MachineCFG(const MFunction &F) : Depth(F.Blocks.size(), 0) {
  unsigned N = numBlocks();
  std::vector<std::vector<int>> Preds(N);
  for (unsigned B = 0; B != N; ++B) {
    for (int S : F.successors(int(B))) {
      Succ.push_back(S);
      Preds[S].push_back(int(B));
    }
    SuccBegin.push_back(unsigned(Succ.size()));
  }

  const unsigned Entry = 0;
  Dominance Dom = computeDominance(
      N, {&Entry, 1}, [&](unsigned B) { return successors(B); },
      [&](unsigned B) -> const std::vector<int> & { return Preds[B]; });

  // Each back edge U -> H (H dominates U) adds one to the depth of every
  // block of its natural loop: the header plus the blocks reaching the
  // edge's source without passing the header.
  std::vector<unsigned> InLoop(N, 0);
  std::vector<int> Work;
  unsigned Edge = 0;
  for (unsigned U : std::span(Dom.RPO).subspan(1)) // Past the virtual root.
    for (int H : successors(U)) {
      if (!Dom.dominates(unsigned(H), U))
        continue;
      InLoop[H] = ++Edge;
      ++Depth[H];
      Work.push_back(int(U));
      while (!Work.empty()) {
        int B = Work.back();
        Work.pop_back();
        if (InLoop[B] == Edge)
          continue;
        InLoop[B] = Edge;
        ++Depth[B];
        Work.insert(Work.end(), Preds[B].begin(), Preds[B].end());
      }
    }
}
