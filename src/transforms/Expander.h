//===----------------------------------------------------------------------===//
///
/// \file
/// Expander (paper Sections 3.1.2 and 4.3): aggressively inlines calls to
/// pointer-manipulating functions that sit inside innermost loops. A call
/// in a loop forces an entry and an exit checkpoint per iteration and
/// blocks the Loop Write Clusterer (calls disqualify candidate loops), so
/// expanding such calls both removes forced checkpoints and unlocks write
/// clustering.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_TRANSFORMS_EXPANDER_H
#define WARIO_TRANSFORMS_EXPANDER_H

#include "ir/Module.h"

namespace wario {

struct ExpanderStats {
  unsigned CandidateFunctions = 0;
  unsigned CallsInlined = 0;
};

/// Runs the Expander over the whole module.
ExpanderStats runExpander(Module &M);

} // namespace wario

#endif // WARIO_TRANSFORMS_EXPANDER_H
