//===----------------------------------------------------------------------===//
///
/// \file
/// WAR dependence analysis: the write-after-read edges of a Program
/// Dependence Graph, the only kind the WARio passes read. For every load
/// and every store that can execute after it and may touch the same
/// address, findWars() records a WAR, flagged as loop-carried when the
/// store is only reachable around a back edge.
///
/// Cross-function effects need no modeling here: every function entry and
/// exit carries a forced checkpoint (as in Ratchet), so no idempotent
/// region ever spans a call boundary.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_ANALYSIS_WARDEPENDENCE_H
#define WARIO_ANALYSIS_WARDEPENDENCE_H

#include "analysis/AliasAnalysis.h"
#include "analysis/LoopInfo.h"

namespace wario {

/// One WAR: the read Src can execute before the write Dst and the
/// accesses may overlap.
struct MemDep {
  Instruction *Src;
  Instruction *Dst;
  /// True when Dst is reachable from Src only via a loop back edge.
  bool LoopCarried;
  AliasResult Alias;
};

/// Block-level reachability over a function CFG, with and without back
/// edges. Blocks are indexed by their position in the function; the
/// successor lists and one bit row per block are built once.
class CFGReachability {
public:
  CFGReachability(const Function &F, const LoopInfo &LI);

  unsigned numBlocks() const { return unsigned(Succs.size()); }
  unsigned index(const BasicBlock *BB) const {
    assert(BB->getNumber() < Index.size() &&
           Index[BB->getNumber()] < numBlocks() && "block not in the CFG");
    return Index[BB->getNumber()];
  }
  const std::vector<unsigned> &successors(unsigned B) const { return Succs[B]; }

  /// True if a path with at least one edge leads from \p From to \p To.
  bool reaches(unsigned From, unsigned To) const {
    return Full[From * Words + To / 64] >> To % 64 & 1;
  }
  /// Same, but using no loop back edges.
  bool forwardReaches(unsigned From, unsigned To) const {
    return Forward[From * Words + To / 64] >> To % 64 & 1;
  }
  bool reaches(const BasicBlock *From, const BasicBlock *To) const {
    return reaches(index(From), index(To));
  }
  bool forwardReaches(const BasicBlock *From, const BasicBlock *To) const {
    return forwardReaches(index(From), index(To));
  }
  /// True if \p BB lies on a cycle.
  bool onCycle(const BasicBlock *BB) const { return reaches(BB, BB); }

private:
  std::vector<unsigned> Index; ///< Position, by block number.
  std::vector<std::vector<unsigned>> Succs;
  size_t Words = 0;                    ///< 64-bit words per row.
  std::vector<uint64_t> Full, Forward; ///< [from][to] bit rows.
};

/// The WARs of \p F (of \p Scope only, when given), grouped by read in
/// program order and, per read, by write in program order; a direct
/// dependence precedes the loop-carried one of the same pair. \p Reach
/// must have been built for \p F and \p LI.
std::vector<MemDep> findWars(const Function &F, const AliasAnalysis &AA,
                             const LoopInfo &LI, const CFGReachability &Reach,
                             const Loop *Scope = nullptr);

} // namespace wario

#endif // WARIO_ANALYSIS_WARDEPENDENCE_H
