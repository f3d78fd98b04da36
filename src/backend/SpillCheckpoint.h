//===----------------------------------------------------------------------===//
///
/// \file
/// Stack Spill Checkpoint Inserter (paper Sections 3.1.3 / 4.4): resolves
/// WAR violations on register-spill stack slots that only materialize in
/// the back end. Two placements are provided:
///
///  - Basic (Ratchet 4.1): a checkpoint immediately before every spill
///    store that completes an unresolved WAR.
///  - Hitting set (WARio contribution #2): the same greedy minimum
///    hitting set as the middle end (support/WarPlacement.h), driven by
///    stack-slot identities instead of the PDG (which no longer exists at
///    this stage), weighted by machine-loop depth.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_BACKEND_SPILLCHECKPOINT_H
#define WARIO_BACKEND_SPILLCHECKPOINT_H

#include "backend/MachineCFG.h"

namespace wario {

struct SpillCheckpointOptions {
  /// Use the hitting-set placement (WARio) instead of per-write (Ratchet).
  bool HittingSet = true;
};

struct SpillCheckpointStats {
  unsigned WarsFound = 0;
  unsigned Inserted = 0;
};

/// Inserts BackendSpill checkpoints into \p F (must be frame-lowered;
/// \p CFG must have been built for F).
SpillCheckpointStats insertSpillCheckpoints(MFunction &F, const MachineCFG &CFG,
                                            const SpillCheckpointOptions &Opts);

} // namespace wario

#endif // WARIO_BACKEND_SPILLCHECKPOINT_H
