//===----------------------------------------------------------------------===//
///
/// \file
/// Region Bounder — an implementation of the paper's Section 6 future
/// work ("Location-specific Checkpoints"): guarantee that no idempotent
/// region exceeds a target cycle budget, so devices with very small
/// storage capacitors can still make forward progress.
///
/// WAR-free loops (table initialization, output folding, search loops)
/// contain no checkpoints at all, so their regions grow with the trip
/// count. The paper's related work notes that counter-based loop
/// checkpointing "does not work when the main memory is NV" — because a
/// counter kept in NVM would itself be a WAR. The trick here is that our
/// counter is an SSA value: it lives in a register, is saved and
/// restored *by* the checkpoint like any other register, and never
/// touches memory. Each candidate loop gets
///
///   k' = k + perIterationCycles
///   if (k' >= budget) { checkpoint; k'' = 0 }
///
/// folded into its latch, bounding the region at ~budget cycles with one
/// compare+branch of steady-state overhead per iteration.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_TRANSFORMS_REGIONBOUNDER_H
#define WARIO_TRANSFORMS_REGIONBOUNDER_H

#include "ir/Module.h"

namespace wario {

struct RegionBounderOptions {
  /// Target maximum idempotent region length, in (estimated) cycles.
  uint64_t MaxRegionCycles = 20'000;
  /// Active checkpoint strategy. The rollback strategies leave WAR
  /// loops checkpoint-free, so the bounder is their only in-loop region
  /// cut; under Speculative the per-iteration estimate also charges
  /// undo-logged stores their extra runtime cost (cycles::SpecLogStore)
  /// so the budget stays honored in emulated cycles.
  CheckpointStrategy Strat = CheckpointStrategy::Idempotent;
};

struct RegionBounderStats {
  unsigned LoopsBounded = 0;
};

/// Bounds every cut-free loop of \p F. Run after the clustering passes
/// and before (or after) the checkpoint inserter — the inserted
/// checkpoints also count as region cuts for later passes.
RegionBounderStats boundRegions(Function &F,
                                const RegionBounderOptions &Opts);

/// The static per-instruction cycle estimate the bounder uses (a
/// conservative mirror of the emulator's cycle model).
uint64_t estimateCycles(const Instruction &I);

} // namespace wario

#endif // WARIO_TRANSFORMS_REGIONBOUNDER_H
