#include "analysis/Dominators.h"

#include <algorithm>

using namespace wario;

namespace {

/// The blocks after \p BB in a walk of the CFG, or of the reversed CFG
/// when \p Reversed: its successors, or its predecessors.
std::span<BasicBlock *const> nexts(const BasicBlock *BB, bool Reversed) {
  if (!Reversed)
    return BB->successors();
  const ArenaVec<BasicBlock *> &P = BB->predecessors();
  return {P.begin(), P.size()};
}

} // namespace

DominatorTree::DominatorTree(const Function &F, bool Post) : Post(Post) {
  if (F.isDeclaration())
    return;
  F.ensureCFG();
  Nodes.resize(F.numBlockNumbers());
  auto NodeOf = [&](const BasicBlock *BB) -> Node & {
    return Nodes[BB->getNumber()];
  };

  // Collect roots: the entry block, or every exit block in post mode.
  std::vector<BasicBlock *> Roots;
  std::vector<bool> IsRoot(Nodes.size());
  if (!Post) {
    Roots.push_back(F.getEntryBlock());
  } else {
    for (BasicBlock *BB : F)
      if (BB->successors().empty())
        Roots.push_back(BB);
  }
  for (BasicBlock *R : Roots)
    IsRoot[R->getNumber()] = true;

  // Post-order DFS over the walk direction, then reverse.
  std::vector<bool> Seen(Nodes.size());
  auto DFS = [&](auto &Self, BasicBlock *BB) -> void {
    Seen[BB->getNumber()] = true;
    for (BasicBlock *S : nexts(BB, Post))
      if (!Seen[S->getNumber()])
        Self(Self, S);
    RPO.push_back(BB);
  };
  for (BasicBlock *R : Roots)
    if (!Seen[R->getNumber()])
      DFS(DFS, R);
  std::reverse(RPO.begin(), RPO.end());
  for (unsigned I = 0; I != RPO.size(); ++I)
    NodeOf(RPO[I]).RPONum = I;

  // Cooper-Harvey-Kennedy iteration. Roots hang off a virtual super-root
  // represented as nullptr, so climbing above a root yields nullptr and
  // intersect() of nodes under different roots converges to the super-root.
  std::vector<bool> Processed = IsRoot;

  // Intersect two (possibly virtual) dominator-tree ancestors by climbing
  // RPO numbers. nullptr is the virtual super-root and absorbs everything.
  auto Intersect = [&](BasicBlock *A, BasicBlock *B) -> BasicBlock * {
    while (A != B) {
      if (!A || !B)
        return nullptr;
      while (A != B && NodeOf(A).RPONum > NodeOf(B).RPONum) {
        A = NodeOf(A).IDom;
        if (!A)
          return nullptr;
      }
      while (A != B && NodeOf(B).RPONum > NodeOf(A).RPONum) {
        B = NodeOf(B).IDom;
        if (!B)
          return nullptr;
      }
      if (A != B && NodeOf(A).RPONum == NodeOf(B).RPONum)
        return nullptr; // Two distinct roots: meet at the super-root.
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : RPO) {
      if (IsRoot[BB->getNumber()])
        continue;
      BasicBlock *NewIDom = nullptr;
      bool HaveFirst = false;
      bool VirtualRooted = false;
      for (BasicBlock *P : nexts(BB, !Post)) {
        if (!Processed[P->getNumber()])
          continue;
        if (!HaveFirst) {
          NewIDom = P;
          HaveFirst = true;
          continue;
        }
        NewIDom = Intersect(NewIDom, P);
        if (!NewIDom) {
          VirtualRooted = true;
          break;
        }
      }
      if (!HaveFirst)
        continue; // No processed predecessor yet; try next iteration.
      BasicBlock *Final = VirtualRooted ? nullptr : NewIDom;
      if (!Processed[BB->getNumber()] || NodeOf(BB).IDom != Final) {
        NodeOf(BB).IDom = Final;
        Processed[BB->getNumber()] = true;
        Changed = true;
      }
    }
  }

  // Assign DFS in/out numbers over the dominator tree for O(1) queries,
  // visiting roots and children in RPO. Nodes never processed
  // (unreachable in walk direction) stay outside the tree.
  std::vector<BasicBlock *> FirstChild(Nodes.size()), Next(Nodes.size());
  BasicBlock *FirstRoot = nullptr;
  for (auto It = RPO.rbegin(); It != RPO.rend(); ++It) {
    if (!Processed[(*It)->getNumber()])
      continue;
    BasicBlock *IDom = NodeOf(*It).IDom;
    BasicBlock *&Head = IDom ? FirstChild[IDom->getNumber()] : FirstRoot;
    Next[(*It)->getNumber()] = Head;
    Head = *It;
  }
  unsigned Clock = 1;
  auto Number = [&](auto &Self, BasicBlock *BB) -> void {
    NodeOf(BB).In = Clock++;
    for (BasicBlock *C = FirstChild[BB->getNumber()]; C;
         C = Next[C->getNumber()])
      Self(Self, C);
    NodeOf(BB).Out = Clock++;
  };
  for (BasicBlock *R = FirstRoot; R; R = Next[R->getNumber()])
    Number(Number, R);
}

bool DominatorTree::dominates(const BasicBlock *A,
                              const BasicBlock *B) const {
  const Node *NA = node(A), *NB = node(B);
  return NA && NB && NA->In <= NB->In && NB->Out <= NA->Out;
}

bool DominatorTree::dominates(const Instruction *A,
                              const Instruction *B) const {
  const BasicBlock *ABB = A->getParent(), *BBB = B->getParent();
  assert(ABB && BBB && "dominance query on detached instructions");
  if (ABB != BBB)
    return dominates(ABB, BBB);
  if (A == B)
    return true;
  // Same block: list order decides (reversed meaning for post-dominance).
  for (const Instruction *I : *ABB) {
    if (I == A)
      return !Post;
    if (I == B)
      return Post;
  }
  assert(false && "instructions not found in their parent block");
  return false;
}
