//===----------------------------------------------------------------------===//
///
/// \file
/// Immediate dominators by the Cooper-Harvey-Kennedy iteration ("A
/// Simple, Fast Dominance Algorithm"), shared by the IR's DominatorTree
/// (analysis/Dominators.h, both directions) and the back end's
/// MachineCFG. A graph is dense node numbers 0..N-1 with successor and
/// predecessor lists, walked from a list of roots; reversing the edges
/// and starting from the exits gives post-dominance.
///
/// Node N is an explicit virtual root whose successors are the roots, so
/// several roots (the exits of a post-dominator walk) still make one
/// tree: each root's idom is the virtual root, and nodes under different
/// roots meet there.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_SUPPORT_DOMINANCE_H
#define WARIO_SUPPORT_DOMINANCE_H

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

namespace wario {

/// The dominator tree of the nodes a depth-first walk from the virtual
/// root reaches (roots and successors taken in the order given).
struct Dominance {
  static constexpr unsigned None = ~0u;

  std::vector<unsigned> RPO;   ///< Reached nodes; RPO[0] is the virtual root.
  std::vector<unsigned> Order; ///< Per node: index in RPO, or None.
  std::vector<unsigned> IDom;  ///< Per node: idom (virtual root: itself), or None.

  unsigned virtualRoot() const { return unsigned(Order.size() - 1); }

  /// True if \p A dominates \p B; both must be reached. RPO indices fall
  /// along idom chains, so B's chain passes A's index only at A.
  bool dominates(unsigned A, unsigned B) const {
    while (Order[B] > Order[A])
      B = IDom[B];
    return A == B;
  }
};

/// The dominance of the graph over nodes 0..N-1 whose node U has
/// successors \p Succs(U) and predecessors \p Preds(U), each a sized,
/// random-access range of node numbers.
template <typename SuccsFn, typename PredsFn>
Dominance computeDominance(unsigned N, std::span<const unsigned> Roots,
                           SuccsFn Succs, PredsFn Preds) {
  constexpr unsigned None = Dominance::None;
  const unsigned Virtual = N;
  Dominance D;
  D.Order.assign(N + 1, None);
  D.IDom.assign(N + 1, None);

  // Iterative post-order walk; Order marks a node seen until the RPO
  // numbering below.
  std::vector<std::pair<unsigned, unsigned>> Stack{{Virtual, 0}};
  D.Order[Virtual] = 0;
  while (!Stack.empty()) {
    auto [U, I] = Stack.back();
    if (I == (U == Virtual ? Roots.size() : Succs(U).size())) {
      D.RPO.push_back(U);
      Stack.pop_back();
      continue;
    }
    ++Stack.back().second;
    unsigned S = U == Virtual ? Roots[I] : unsigned(Succs(U)[I]);
    if (D.Order[S] == None) {
      D.Order[S] = 0;
      Stack.push_back({S, 0});
    }
  }
  std::reverse(D.RPO.begin(), D.RPO.end());
  for (unsigned I = 0; I != D.RPO.size(); ++I)
    D.Order[D.RPO[I]] = I;

  // A node's idom is the nearest common ancestor of its predecessors
  // already in the tree; a root's only one is the virtual root. Sweep in
  // RPO until nothing moves.
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (D.Order[A] > D.Order[B])
        A = D.IDom[A];
      while (D.Order[B] > D.Order[A])
        B = D.IDom[B];
    }
    return A;
  };
  std::vector<bool> IsRoot(N + 1);
  D.IDom[Virtual] = Virtual;
  for (unsigned R : Roots) {
    IsRoot[R] = true;
    D.IDom[R] = Virtual;
  }
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned U : std::span(D.RPO).subspan(1)) {
      if (IsRoot[U])
        continue;
      unsigned New = None;
      for (unsigned P : Preds(U))
        if (D.IDom[P] != None)
          New = New == None ? P : Intersect(P, New);
      Changed |= D.IDom[U] != New;
      D.IDom[U] = New;
    }
  }
  return D;
}

} // namespace wario

#endif // WARIO_SUPPORT_DOMINANCE_H
