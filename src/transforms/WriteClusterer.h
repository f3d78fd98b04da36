//===----------------------------------------------------------------------===//
///
/// \file
/// Write Clusterer (paper Section 3.1.2): within each basic block, sinks
/// the write halves of independent WAR violations next to each other so
/// that the checkpoint inserter's hitting set can resolve the whole
/// cluster with one checkpoint. Unlike the Loop Write Clusterer it never
/// inserts runtime checks — a store is only sunk across instructions it
/// provably does not interact with.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_TRANSFORMS_WRITECLUSTERER_H
#define WARIO_TRANSFORMS_WRITECLUSTERER_H

#include "analysis/AliasAnalysis.h"

namespace wario {

/// Runs write clustering on every block of \p F. Returns the number of
/// stores sunk.
unsigned runWriteClusterer(Function &F, const AliasAnalysis &AA);

} // namespace wario

#endif // WARIO_TRANSFORMS_WRITECLUSTERER_H
