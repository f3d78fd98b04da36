#include "analysis/Dominators.h"

#include "support/Dominance.h"

#include <ranges>

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
  unsigned N = F.numBlockNumbers();
  Nodes.resize(N);

  // Roots: the entry block, or every exit block in post mode.
  std::vector<BasicBlock *> Blocks(N);
  std::vector<unsigned> Roots;
  for (BasicBlock *BB : F) {
    Blocks[BB->getNumber()] = BB;
    if (Post && BB->successors().empty())
      Roots.push_back(BB->getNumber());
  }
  if (!Post)
    Roots.push_back(F.getEntryBlock()->getNumber());
  auto Walk = [&](bool Reversed) {
    return [&, Reversed](unsigned U) {
      return std::views::transform(
          nexts(Blocks[U], Reversed),
          [](const BasicBlock *BB) { return BB->getNumber(); });
    };
  };
  Dominance D = computeDominance(N, Roots, Walk(Post), Walk(!Post));

  // Children lists in RPO, then DFS in/out numbers over the tree for
  // O(1) queries. Roots, and in post mode blocks whose paths reach
  // different exits, hang off the virtual root and get no IDom.
  const unsigned Virtual = D.virtualRoot(), None = Dominance::None;
  std::vector<unsigned> FirstChild(N + 1, None), Next(N, None);
  for (unsigned I = unsigned(D.RPO.size()); I-- > 1;) {
    unsigned U = D.RPO[I], Parent = D.IDom[U];
    Nodes[U].IDom = Parent == Virtual ? nullptr : Blocks[Parent];
    Next[U] = FirstChild[Parent];
    FirstChild[Parent] = U;
  }
  unsigned Clock = 1;
  auto Number = [&](auto &Self, unsigned U) -> void {
    Nodes[U].In = Clock++;
    for (unsigned C = FirstChild[U]; C != None; C = Next[C])
      Self(Self, C);
    Nodes[U].Out = Clock++;
  };
  for (unsigned R = FirstChild[Virtual]; R != None; R = Next[R])
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
