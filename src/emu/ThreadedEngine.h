//===----------------------------------------------------------------------===//
///
/// \file
/// Public surface of the direct-threaded execution engine: engine
/// selection (EmulatorOptions::Engine + the WARIO_ENGINE environment
/// kill switch) and the dispatch statistics the engine can report.
///
/// The engine itself lives in ThreadedEngine.cpp as an alternative
/// implementation of Machine's inner loop: the decoded program is
/// lowered once per module into a fused-group stream (Fusion.h), and a
/// computed-goto dispatch loop executes whole groups per dispatch,
/// under every checkpoint strategy. The
/// interpreter in Emulator.cpp remains the differential oracle —
/// byte-identical results are enforced by
/// tests/EngineEquivalenceTest.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_EMU_THREADEDENGINE_H
#define WARIO_EMU_THREADEDENGINE_H

#include "emu/Emulator.h"

namespace wario {

/// Dispatch statistics of the threaded engine, accumulated across every
/// boot/re-execution of a run (and across runs when one EngineStats is
/// passed to many). All zero under the interpreter. Deliberately not
/// part of EmulatorResult: results stay byte-comparable across engines.
struct EngineStats {
  /// Executed dispatches (groups), fused or identity.
  uint64_t Dispatches = 0;
  /// Executed dispatches of fused (multi-instruction) groups.
  uint64_t FusedDispatches = 0;
  /// Instructions retired inside fused groups.
  uint64_t FusedInstructions = 0;
  /// Instructions retired inside the threaded loop (the remainder up to
  /// EmulatorResult::InstructionsExecuted ran on the interpreter path:
  /// event-boundary single-stepping and rare bail-outs).
  uint64_t ThreadedInstructions = 0;
  /// Always zero: the hot-trace superblock tier these counted was
  /// removed (DESIGN.md §7.9). Kept so readers of the old counters
  /// still compile.
  uint64_t SuperblockDispatches = 0;
  uint64_t SideExits = 0;

  EngineStats &operator+=(const EngineStats &O) {
    Dispatches += O.Dispatches;
    FusedDispatches += O.FusedDispatches;
    FusedInstructions += O.FusedInstructions;
    ThreadedInstructions += O.ThreadedInstructions;
    SuperblockDispatches += O.SuperblockDispatches;
    SideExits += O.SideExits;
    return *this;
  }
};

/// Resolves Auto against the WARIO_ENGINE environment variable, read
/// fresh on every call so tests can flip it with setenv: "interp" (or
/// "interpreter") forces the oracle; anything else — "threaded", any
/// other value, or unset — selects the threaded engine. Explicit option
/// values win unchanged.
EngineKind resolveEngine(EngineKind Requested);

const char *engineName(EngineKind K);

} // namespace wario

#endif // WARIO_EMU_THREADEDENGINE_H
