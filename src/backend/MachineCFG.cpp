#include "backend/MachineCFG.h"

#include <algorithm>

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

  // Reverse post-order of the blocks reachable from the entry.
  std::vector<int> RPO;
  std::vector<unsigned> Order(N, ~0u);
  std::vector<std::pair<int, unsigned>> Stack{{0, 0}};
  Order[0] = 0;
  while (!Stack.empty()) {
    auto &[B, Next] = Stack.back();
    if (Next != successors(B).size()) {
      int S = successors(B)[Next++];
      if (Order[S] == ~0u) {
        Order[S] = 0;
        Stack.push_back({S, 0});
      }
      continue;
    }
    RPO.push_back(B);
    Stack.pop_back();
  }
  std::reverse(RPO.begin(), RPO.end());
  for (unsigned I = 0; I != RPO.size(); ++I)
    Order[RPO[I]] = I;

  // Immediate dominators by the Cooper-Harvey-Kennedy iteration, as in
  // analysis/Dominators: a block's idom is the nearest common ancestor of
  // its processed predecessors, and RPO numbers fall along idom chains.
  std::vector<int> IDom(N, -1);
  IDom[0] = 0;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned I = 1; I < RPO.size(); ++I) {
      int New = -1;
      for (int P : Preds[RPO[I]]) {
        if (IDom[P] < 0)
          continue;
        int A = P, B = New < 0 ? P : New;
        while (A != B) {
          while (Order[A] > Order[B])
            A = IDom[A];
          while (Order[B] > Order[A])
            B = IDom[B];
        }
        New = A;
      }
      if (IDom[RPO[I]] != New) {
        IDom[RPO[I]] = New;
        Changed = true;
      }
    }
  }

  // Each back edge adds one to the depth of every block of its natural
  // loop: the header plus the blocks reaching the edge's source without
  // passing the header.
  std::vector<unsigned> InLoop(N, 0);
  std::vector<int> Work;
  unsigned Edge = 0;
  for (int U : RPO)
    for (int H : successors(U)) {
      int D = U;
      while (Order[D] > Order[H])
        D = IDom[D];
      if (D != H)
        continue; // H does not dominate U.
      InLoop[H] = ++Edge;
      ++Depth[H];
      Work.push_back(U);
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
