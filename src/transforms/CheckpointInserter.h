//===----------------------------------------------------------------------===//
///
/// \file
/// PDG Checkpoint Inserter (paper Section 3.1.2): breaks every remaining
/// WAR violation by inserting register checkpoints, choosing locations
/// with a greedy minimum hitting set over each violation's set of
/// resolving program points (after de Kruijf et al., cited as [11]).
///
/// The same component also implements the baselines: with conservative
/// aliasing it reproduces Ratchet's over-instrumentation; with the
/// PerWrite strategy it reproduces naive before-every-write placement
/// (used as an ablation of the hitting set).
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_TRANSFORMS_CHECKPOINTINSERTER_H
#define WARIO_TRANSFORMS_CHECKPOINTINSERTER_H

#include "analysis/AliasAnalysis.h"

namespace wario {

/// How checkpoint locations are chosen.
enum class PlacementStrategy {
  HittingSet, ///< Greedy min hitting set, loop-depth-weighted costs.
  PerWrite,   ///< One checkpoint immediately before every WAR write.
};

struct CheckpointInserterOptions {
  AliasPrecision Precision = AliasPrecision::Precise;
  PlacementStrategy Strategy = PlacementStrategy::HittingSet;
  /// How unresolved WARs are handled. Idempotent breaks them with
  /// checkpoints (the placement machinery below). Differential leaves
  /// them unbroken — the runtime's dirty-page journal rolls uncommitted
  /// state back at reboot, so no placement runs at all. Speculative
  /// marks each unresolved WAR write as undo-logged (Instruction::
  /// isSpecLogged) instead of inserting checkpoints.
  CheckpointStrategy Mode = CheckpointStrategy::Idempotent;
  /// Negative-control knob for the speculative mode: when false, WAR
  /// writes are NOT marked for logging, so rollback is provably
  /// incomplete and the fault injector must catch it.
  bool SpecLogWars = true;
  /// Weight candidate locations by 4^loop-depth (ablation knob; the
  /// paper's hitting set costs locations "primarily depending on the
  /// loop depth").
  bool DepthWeightedCost = true;
  /// Negative-control knob for the crash-consistency fault injector
  /// (src/verify/): when false, WARs are detected and counted but the
  /// resolution step is skipped entirely — no breaking checkpoints are
  /// inserted, so the compiled program is deliberately NOT idempotent.
  bool ResolveWars = true;
};

struct CheckpointInserterStats {
  unsigned WarsFound = 0;      ///< WAR violations detected.
  unsigned WarsAlreadyCut = 0; ///< Resolved by existing cuts (calls etc).
  unsigned Inserted = 0;       ///< Checkpoints inserted.
  unsigned StoresMarked = 0;   ///< WAR writes marked !log (speculative).
};

/// Inserts middle-end WAR checkpoints into \p F.
CheckpointInserterStats
insertCheckpoints(Function &F, const CheckpointInserterOptions &Opts);

} // namespace wario

#endif // WARIO_TRANSFORMS_CHECKPOINTINSERTER_H
