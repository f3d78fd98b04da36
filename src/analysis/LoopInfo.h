//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop detection and the Loop abstraction consumed by the Loop
/// Write Clusterer (WARio Algorithm 1) and the loop unroller.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_ANALYSIS_LOOPINFO_H
#define WARIO_ANALYSIS_LOOPINFO_H

#include "analysis/Dominators.h"

#include <memory>

namespace wario {

/// One natural loop: header plus the blocks that can reach a latch without
/// leaving through the header. Membership is indexed by block number; a
/// block created after the loop was found is not in it.
class Loop {
public:
  BasicBlock *getHeader() const { return Header; }
  Loop *getParent() const { return Parent; }
  const std::vector<Loop *> &getSubLoops() const { return SubLoops; }
  unsigned getDepth() const { return Depth; }

  bool contains(const BasicBlock *BB) const {
    return BB->getNumber() < Blocks.size() && Blocks[BB->getNumber()];
  }
  bool contains(const Instruction *I) const {
    return I->getParent() && contains(I->getParent());
  }
  const std::vector<BasicBlock *> &blocks() const { return BlockList; }

  /// The unique in-loop predecessor of the header, or nullptr if the loop
  /// has multiple latches.
  BasicBlock *getLatch() const;

  /// All latches (in-loop predecessors of the header).
  std::vector<BasicBlock *> getLatches() const;

  /// The unique out-of-loop predecessor of the header, or nullptr.
  BasicBlock *getPreheader() const;

  /// Edges leaving the loop, as (exiting block, outside successor) pairs.
  std::vector<std::pair<BasicBlock *, BasicBlock *>> getExitEdges() const;

private:
  friend class LoopInfo;

  BasicBlock *Header = nullptr;
  Loop *Parent = nullptr;
  std::vector<Loop *> SubLoops;
  unsigned Depth = 1;
  std::vector<bool> Blocks;             // By block number.
  std::vector<BasicBlock *> BlockList; // Deterministic order.
};

/// Finds all natural loops of a function.
class LoopInfo {
public:
  LoopInfo(const Function &F, const DominatorTree &DT);

  /// All loops, outermost first, in a deterministic order.
  const std::vector<Loop *> &loops() const { return AllLoops; }

  /// Innermost loop containing \p BB, or nullptr.
  Loop *getLoopFor(const BasicBlock *BB) const {
    return BB->getNumber() < BlockMap.size() ? BlockMap[BB->getNumber()]
                                              : nullptr;
  }

  /// Loop nesting depth of \p BB (0 = not in any loop).
  unsigned getLoopDepth(const BasicBlock *BB) const {
    Loop *L = getLoopFor(BB);
    return L ? L->getDepth() : 0;
  }

  /// True if the CFG edge From->To is a back edge of some natural loop:
  /// To heads a loop containing From (a header dominates its whole loop).
  bool isBackEdge(const BasicBlock *From, const BasicBlock *To) const {
    return To->getNumber() < HeaderLoop.size() &&
           HeaderLoop[To->getNumber()] &&
           HeaderLoop[To->getNumber()]->contains(From);
  }

private:
  std::vector<std::unique_ptr<Loop>> Storage;
  std::vector<Loop *> AllLoops;
  std::vector<Loop *> BlockMap;   ///< Innermost loop, by block number.
  std::vector<Loop *> HeaderLoop; ///< Loop headed by the block, by number.
};

} // namespace wario

#endif // WARIO_ANALYSIS_LOOPINFO_H
