#include "analysis/LoopInfo.h"

#include <algorithm>

using namespace wario;

BasicBlock *Loop::getLatch() const {
  std::vector<BasicBlock *> Latches = getLatches();
  return Latches.size() == 1 ? Latches.front() : nullptr;
}

std::vector<BasicBlock *> Loop::getLatches() const {
  std::vector<BasicBlock *> Latches;
  for (BasicBlock *P : Header->predecessors())
    if (contains(P))
      Latches.push_back(P);
  return Latches;
}

BasicBlock *Loop::getPreheader() const {
  BasicBlock *Pre = nullptr;
  for (BasicBlock *P : Header->predecessors()) {
    if (contains(P))
      continue;
    if (Pre)
      return nullptr; // Multiple outside predecessors.
    Pre = P;
  }
  if (!Pre)
    return nullptr;
  // A proper preheader branches only into the loop.
  if (Pre->successors().size() != 1)
    return nullptr;
  return Pre;
}

std::vector<std::pair<BasicBlock *, BasicBlock *>> Loop::getExitEdges() const {
  std::vector<std::pair<BasicBlock *, BasicBlock *>> Edges;
  for (BasicBlock *BB : BlockList)
    for (BasicBlock *S : BB->successors())
      if (!contains(S))
        Edges.emplace_back(BB, S);
  return Edges;
}

LoopInfo::LoopInfo(const Function &F, const DominatorTree &DT) {
  assert(!DT.isPostDom() && "LoopInfo needs a forward dominator tree");
  if (F.isDeclaration())
    return;
  unsigned N = F.numBlockNumbers();
  BlockMap.assign(N, nullptr);
  HeaderLoop.assign(N, nullptr);

  // 1-2. Find back edges U -> H, where H dominates U, and build one loop
  // per header from the union of its natural-loop bodies.
  for (BasicBlock *U : F) {
    if (!DT.contains(U))
      continue; // Skip unreachable blocks.
    for (BasicBlock *H : U->successors()) {
      if (!DT.dominates(H, U))
        continue;
      Loop *&L = HeaderLoop[H->getNumber()];
      if (!L) {
        Storage.push_back(std::make_unique<Loop>());
        L = Storage.back().get();
        L->Header = H;
        L->Blocks.assign(N, false);
        L->Blocks[H->getNumber()] = true;
      }
      // Walk backwards from U, stopping at H.
      std::vector<BasicBlock *> Work{U};
      while (!Work.empty()) {
        BasicBlock *BB = Work.back();
        Work.pop_back();
        if (L->Blocks[BB->getNumber()])
          continue;
        L->Blocks[BB->getNumber()] = true;
        for (BasicBlock *P : BB->predecessors())
          if (DT.contains(P))
            Work.push_back(P);
      }
    }
  }

  // Deterministic block lists: function block order.
  std::vector<unsigned> Position(N);
  unsigned Idx = 0;
  for (BasicBlock *BB : F) {
    Position[BB->getNumber()] = Idx++;
    for (auto &L : Storage)
      if (L->contains(BB))
        L->BlockList.push_back(BB);
  }

  // 3. Nesting: loop A is inside loop B iff B contains A's header and
  // A != B. Parent = smallest strict superset.
  for (auto &A : Storage) {
    Loop *Best = nullptr;
    for (auto &B : Storage) {
      if (A.get() == B.get() || !B->contains(A->Header))
        continue;
      if (!Best || B->BlockList.size() < Best->BlockList.size())
        Best = B.get();
    }
    A->Parent = Best;
    if (Best)
      Best->SubLoops.push_back(A.get());
  }
  for (auto &L : Storage) {
    unsigned D = 1;
    for (Loop *P = L->Parent; P; P = P->Parent)
      ++D;
    L->Depth = D;
  }

  // 4. Block -> innermost loop map.
  for (auto &L : Storage)
    for (const BasicBlock *BB : L->BlockList) {
      Loop *&Slot = BlockMap[BB->getNumber()];
      if (!Slot || L->Depth > Slot->Depth)
        Slot = L.get();
    }

  // 5. Deterministic overall order: by depth, then by header order in the
  // function (outermost loops first).
  for (auto &L : Storage)
    AllLoops.push_back(L.get());
  std::sort(AllLoops.begin(), AllLoops.end(), [&](Loop *A, Loop *B) {
    if (A->Depth != B->Depth)
      return A->Depth < B->Depth;
    return Position[A->Header->getNumber()] < Position[B->Header->getNumber()];
  });
}
