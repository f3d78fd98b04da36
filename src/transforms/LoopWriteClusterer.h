//===----------------------------------------------------------------------===//
///
/// \file
/// Loop Write Clusterer (paper Algorithm 1 / Figure 3): unrolls candidate
/// loops by a factor N and postpones the write halves of their WAR
/// violations to the loop latch, so one checkpoint resolves the WARs of N
/// iterations. Early exits get compensating write-backs; reads that may
/// depend on a postponed write are guarded with compare+select chains.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_TRANSFORMS_LOOPWRITECLUSTERER_H
#define WARIO_TRANSFORMS_LOOPWRITECLUSTERER_H

#include "analysis/AliasAnalysis.h"

namespace wario {

struct LoopWriteClustererOptions {
  /// Unroll factor N. The paper evaluates N in [1, 35] and defaults to 8
  /// (Section 5.2.4); N <= 1 disables the pass.
  unsigned UnrollFactor = 8;
  AliasPrecision Precision = AliasPrecision::Precise;
};

struct LoopWriteClustererStats {
  unsigned LoopsTransformed = 0;
  unsigned StoresPostponed = 0;
  unsigned ExitCopies = 0;     ///< Compensating stores on early exits.
  unsigned RuntimeChecks = 0;  ///< compare+select pairs inserted.
};

/// Runs the Loop Write Clusterer over every candidate loop of \p F.
LoopWriteClustererStats
runLoopWriteClusterer(Function &F, const LoopWriteClustererOptions &Opts);

} // namespace wario

#endif // WARIO_TRANSFORMS_LOOPWRITECLUSTERER_H
