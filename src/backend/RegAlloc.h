//===----------------------------------------------------------------------===//
///
/// \file
/// Linear-scan register allocation for the modeled Cortex-M target.
///
/// r0-r9 are allocatable (intervals live across calls are restricted to
/// callee-saved r4-r9); r10-r12 are reserved as spill scratch. Spilled
/// virtual registers receive frame slots; the paper-relevant knob is
/// StackSlotSharing: WARio compiles with "-no-stack-slot-sharing" so only
/// loops can create spill-slot WARs (Section 4.4), while the legacy
/// baseline shares slots and relies on per-write checkpoints.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_BACKEND_REGALLOC_H
#define WARIO_BACKEND_REGALLOC_H

#include "backend/MachineCFG.h"

namespace wario {

struct RegAllocOptions {
  /// Reuse spill slots between non-overlapping live ranges.
  bool StackSlotSharing = false;
};

struct RegAllocStats {
  unsigned VRegs = 0;
  unsigned Spilled = 0;
  unsigned SpillSlots = 0;
};

/// Allocates \p F in place: every vreg reference becomes a PReg, spill
/// code is inserted, and Call/Arg/Ret pseudos are expanded to the register
/// calling convention. Sets F.PostRA. \p CFG must have been built for F.
RegAllocStats allocateRegisters(MFunction &F, const MachineCFG &CFG,
                                const RegAllocOptions &Opts);

} // namespace wario

#endif // WARIO_BACKEND_REGALLOC_H
