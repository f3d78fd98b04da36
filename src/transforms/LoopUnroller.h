//===----------------------------------------------------------------------===//
///
/// \file
/// Partial loop unrolling by a compile-time factor N, as used by the Loop
/// Write Clusterer (paper Section 3.1.2, "Loop Unrolling"). The body is
/// replicated N-1 times; each replica keeps its exit checks, producing the
/// "early exit" structure of Figure 3 that ModifyExits later compensates.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_TRANSFORMS_LOOPUNROLLER_H
#define WARIO_TRANSFORMS_LOOPUNROLLER_H

#include "analysis/LoopInfo.h"

namespace wario {

/// Outcome of unrollLoop.
struct UnrollResult {
  bool Unrolled = false;
  /// Iterations[k] lists iteration k's blocks in loop-body RPO;
  /// Iterations[0] is the original body.
  std::vector<std::vector<BasicBlock *>> Iterations;

  /// All body blocks of the unrolled loop, iteration-major.
  std::vector<BasicBlock *> allBlocks() const {
    std::vector<BasicBlock *> All;
    for (const auto &It : Iterations)
      All.insert(All.end(), It.begin(), It.end());
    return All;
  }
};

/// Unrolls \p L by factor \p N (N >= 2).
///
/// Requirements (checked; returns Unrolled=false when unmet): innermost
/// loop, unique latch, and a body free of calls. The function ensures a
/// preheader and dedicated exits itself (a CFG mutation even on failure
/// paths that return early, so callers should recompute analyses).
///
/// After a successful unroll, every use of a loop-defined value outside
/// the loop is rewired through SSA reconstruction, and exit-block phis
/// carry one incoming entry per replica.
UnrollResult unrollLoop(Loop &L, unsigned N);

/// Loop-body blocks in reverse post-order of the body DAG (back edges to
/// the header removed): a topological order of one iteration.
std::vector<BasicBlock *> loopBodyRPO(Loop &L);

/// The ordinary -O3-style unroller, applied to *every* build (the paper
/// applies the user-specified optimization level to all environments,
/// Section 4.6). Unrolls innermost, call-free loops whose body has at
/// most \p MaxBodyInsts instructions by \p Factor. Loops the Loop Write
/// Clusterer already expanded exceed the cap and are left alone.
/// Returns the number of loops unrolled.
unsigned unrollStandardLoops(Function &F, unsigned Factor,
                             unsigned MaxBodyInsts);

} // namespace wario

#endif // WARIO_TRANSFORMS_LOOPUNROLLER_H
