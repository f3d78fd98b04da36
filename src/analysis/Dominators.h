//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator and post-dominator trees, via the Cooper-Harvey-Kennedy
/// iterative algorithm (support/Dominance.h).
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_ANALYSIS_DOMINATORS_H
#define WARIO_ANALYSIS_DOMINATORS_H

#include "ir/Function.h"

namespace wario {

/// Dominator tree over the reachable blocks of a function.
///
/// With \p Post = true this computes the post-dominator tree instead,
/// using a virtual exit node that all Ret-terminated blocks lead to
/// (blocks on infinite loops with no path to any exit get no parent).
/// Nodes are indexed by block number; a block created after the tree was
/// built is not in it.
class DominatorTree {
public:
  explicit DominatorTree(const Function &F, bool Post = false);

  /// True if \p A dominates (post-dominates) \p B. A block dominates
  /// itself. Returns false if either block is unreachable (resp. cannot
  /// reach an exit).
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;

  /// Instruction-granular dominance: within one block, list order decides;
  /// an instruction dominates itself.
  bool dominates(const Instruction *A, const Instruction *B) const;

  /// The immediate dominator, or nullptr for the root / unreachable blocks.
  BasicBlock *getIDom(const BasicBlock *BB) const {
    const Node *N = node(BB);
    return N ? N->IDom : nullptr;
  }

  /// True if \p BB was reachable when the tree was built (for post mode:
  /// can reach an exit).
  bool contains(const BasicBlock *BB) const { return node(BB) != nullptr; }

  bool isPostDom() const { return Post; }

private:
  struct Node {
    BasicBlock *IDom = nullptr;
    // DFS-in/out numbering of the dominator tree for O(1) queries; In is
    // 0 for blocks outside the tree.
    unsigned In = 0, Out = 0;
  };

  const Node *node(const BasicBlock *BB) const {
    unsigned N = BB->getNumber();
    return N < Nodes.size() && Nodes[N].In ? &Nodes[N] : nullptr;
  }

  bool Post;
  std::vector<Node> Nodes; ///< By block number.
};

} // namespace wario

#endif // WARIO_ANALYSIS_DOMINATORS_H
