//===----------------------------------------------------------------------===//
///
/// \file
/// CFG and cleanup utilities shared by the WARio transformations.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_TRANSFORMS_UTILS_H
#define WARIO_TRANSFORMS_UTILS_H

#include "analysis/LoopInfo.h"

namespace wario {

/// Splits the CFG edge From->To by inserting a fresh block containing only
/// a jump. Phi nodes in \p To are retargeted. Returns the new block.
///
/// If the terminator of \p From targets \p To more than once, every such
/// edge is routed through the one new block.
BasicBlock *splitEdge(BasicBlock *From, BasicBlock *To);

/// Ensures \p L has a preheader (a unique outside predecessor of the
/// header whose only successor is the header); creates one if needed.
/// Returns it. Invalidates analyses if it mutates the CFG.
BasicBlock *ensurePreheader(Loop &L);

/// Ensures every exit edge of \p L targets a block whose predecessors are
/// all inside the loop and which has exactly one predecessor ("dedicated"
/// exits, one block per exit edge). Returns true if the CFG changed.
bool ensureDedicatedExits(Loop &L);

/// Deletes blocks unreachable from the entry. Returns true if changed.
bool removeUnreachableBlocks(Function &F);

/// Folds jumps to empty forwarder blocks, merges single-pred/single-succ
/// straight-line pairs, and turns constant conditional branches into
/// jumps. Returns true if anything changed.
bool simplifyCFG(Function &F);

/// Removes value-producing instructions with no users and no side effects
/// (including dead loads; loads have no side effects in this IR).
/// Iterates to a fixed point. Returns true if anything changed.
bool eliminateDeadCode(Function &F);

/// Folds instructions with all-constant operands and simplifies trivial
/// phis (all incoming values identical or self). Returns true if changed.
bool foldConstants(Function &F);

/// Runs the standard cleanup sequence (constant folding, DCE, CFG
/// simplification) to a combined fixed point.
void cleanup(Function &F);

} // namespace wario

#endif // WARIO_TRANSFORMS_UTILS_H
