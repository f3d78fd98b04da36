//===----------------------------------------------------------------------===//
///
/// \file
/// Cycle-counting emulator for the modeled Cortex-M-class MCU with
/// byte-addressable non-volatile main memory (paper Section 5.1.1).
///
/// Modeled features, mirroring the paper's Unicorn-based emulator:
///  - performance statistics: executed cycles (3-stage-pipeline refill
///    model), checkpoint counts and causes, cycles between checkpoints
///    (idempotent region sizes), instruction counts;
///  - WAR-violation absence verification on every memory access, covering
///    middle-end, back-end, and "assembly" (prologue/epilog/ISR) accesses;
///  - power-failure injection from a PowerSchedule, with double-buffered
///    register checkpoints, boot/restore costs, and re-execution;
///  - optional periodic interrupts with hardware stacking, to exercise
///    the idempotent pop converter and epilog optimizer.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_EMU_EMULATOR_H
#define WARIO_EMU_EMULATOR_H

#include "backend/MIR.h"
#include "emu/PowerTrace.h"
#include "ir/MemoryLayout.h"

#include <memory>

namespace wario {

class SnapshotChain;
struct EmulatorScratch;
struct ReplayPlan;
struct ReplayOutcome;
struct EngineStats;

/// Which execution engine runs the instruction stream. Both engines are
/// byte-identical in every result, counter, event trace, and snapshot
/// journal under every checkpoint strategy — the choice only trades
/// dispatch cost (see DESIGN.md §7.7). Auto defers to the WARIO_ENGINE
/// environment variable ("interp" selects the interpreter; anything
/// else, or unset, means threaded — the interpreter remains available
/// as the kill switch and the differential oracle).
enum class EngineKind : uint8_t {
  Auto,     ///< WARIO_ENGINE, defaulting to Threaded.
  Interp,   ///< The classic central-switch interpreter (the oracle).
  Threaded, ///< Direct-threaded dispatch over the fused stream.
};

/// Cycle-model constants (documented in DESIGN.md; the shape of results,
/// not absolute values, is what matters for reproduction).
namespace cycles {
inline constexpr uint64_t PipelineRefill = 2; ///< Taken-branch penalty.
inline constexpr uint64_t Boot = 1000;        ///< Power-up sequence.
inline constexpr uint64_t Restore = 40;       ///< Checkpoint restoration.
inline constexpr uint64_t Checkpoint = 40;    ///< Save 17 words, flip.
inline constexpr uint64_t IsrOverhead = 60;   ///< Entry+body+exit.
// Strategy runtimes (docs/STRATEGIES.md). Differential commits pay per
// dirty 256 B journal page on top of the register save; speculative
// undo-logged stores pay a copy-out per store and a per-entry replay
// cost when a reboot rolls the log back.
inline constexpr uint64_t DiffPageCommit = 16; ///< Commit one dirty page.
inline constexpr uint64_t SpecLogStore = 4;    ///< Journal old word.
inline constexpr uint64_t SpecUndo = 2;        ///< Replay one log entry.
} // namespace cycles

/// Reserved NVM range for the double-buffered register checkpoint
/// (Section 4.5). The range is exempt from WAR monitoring (the checkpoint
/// routine is incorruptible by design) and must also be excluded from any
/// differential end-state comparison: two runs that took different crash
/// paths legitimately leave different register snapshots here (see
/// src/verify/FaultInjector.h).
namespace ckpt {
inline constexpr uint32_t Base = 0x100;
inline constexpr uint32_t End = Base + 0x100;
} // namespace ckpt

struct EmulatorOptions {
  PowerSchedule Power = PowerSchedule::continuous();
  /// Fire an interrupt every N active cycles (0 = disabled).
  uint64_t InterruptPeriod = 0;
  /// Abort after this many total cycles (runaway guard).
  uint64_t MaxCycles = 40'000'000'000ull;
  /// Abort after this many power failures without a committed checkpoint
  /// advancing (no-forward-progress guard).
  unsigned MaxStalledBoots = 64;
  /// Record every idempotent region size (disable for very long runs).
  bool CollectRegionSizes = true;
  /// Treat a WAR violation as a fatal error (else just count).
  bool WarIsFatal = true;
  /// Record the event trace the crash-consistency fault injector consumes
  /// (EmulatorResult::Commits / StoreCycles): active-cycle stamps of every
  /// committed checkpoint and of every monitored NVM store.
  bool CollectEventTrace = false;
  /// When TraceWindowHi != 0, record the textual form of every executed
  /// instruction whose start falls in [TraceWindowLo, TraceWindowHi]
  /// active-cycles-since-boot (EmulatorResult::Window) — the fault
  /// injector's "surrounding instruction window" for crash reports.
  uint64_t TraceWindowLo = 0;
  uint64_t TraceWindowHi = 0;
  /// Execution engine. Results never depend on it (the equivalence bar
  /// EngineEquivalenceTest enforces), so snapshot chains recorded under
  /// one engine replay under the other; it still participates in
  /// operator<=> so benchmark caches keep per-engine cells distinct.
  EngineKind Engine = EngineKind::Auto;

  /// Ordered by the full configuration so result caches can key on the
  /// actual options (see bench/Harness.cpp).
  auto operator<=>(const EmulatorOptions &) const = default;
};

/// Executed-checkpoint counts by cause (paper Figure 5).
struct CheckpointCauses {
  uint64_t MiddleEndWar = 0;
  uint64_t BackendSpill = 0;
  uint64_t FunctionEntry = 0;
  uint64_t FunctionExit = 0;
  uint64_t total() const {
    return MiddleEndWar + BackendSpill + FunctionEntry + FunctionExit;
  }
  bool operator==(const CheckpointCauses &) const = default;
};

struct EmulatorResult {
  bool Ok = false;
  std::string Error;
  int32_t ReturnValue = 0;
  std::vector<int32_t> Output;

  uint64_t TotalCycles = 0;  ///< All on-time incl. boot/restore/re-exec.
  uint64_t InstructionsExecuted = 0;
  uint64_t CheckpointsExecuted = 0;
  CheckpointCauses Causes;
  unsigned PowerFailures = 0;
  uint64_t InterruptsTaken = 0;
  uint64_t WarViolations = 0;
  std::vector<std::string> WarReports; ///< First few diagnostics.
  std::vector<uint64_t> RegionSizes;   ///< Cycles between checkpoints.

  /// Final NVM image (for checking benchmark result buffers).
  std::vector<uint8_t> FinalMemory;

  /// One committed checkpoint (CollectEventTrace only). Cycle stamps are
  /// active-cycles-since-boot, so on a continuous-power run they equal
  /// TotalCycles and can be replayed as on-duration budgets: a power
  /// schedule whose first on-period is BeginCycle fails immediately
  /// *before* this commit executes; EndCycle fails immediately after it.
  struct CommitEvent {
    uint64_t BeginCycle = 0; ///< Active cycles before the commit executes.
    uint64_t EndCycle = 0;   ///< Active cycles after the commit completes.
    CheckpointCause Cause = CheckpointCause::MiddleEndWar;
    bool operator==(const CommitEvent &) const = default;
  };
  std::vector<CommitEvent> Commits; ///< CollectEventTrace only.
  /// Active-cycle budget that crashes immediately *after* each monitored
  /// NVM store instruction (CollectEventTrace only).
  std::vector<uint64_t> StoreCycles;
  /// Executed instructions inside [TraceWindowLo, TraceWindowHi].
  std::vector<std::string> Window;

  /// Reads the 32-bit little-endian word at \p Addr from the final NVM
  /// image. Out-of-range reads assert in debug builds and return 0 in
  /// release builds (previously: unchecked indexing past FinalMemory).
  uint32_t readWord(uint32_t Addr) const {
    assert(uint64_t(Addr) + 4 <= FinalMemory.size() &&
           "readWord past the final memory image");
    if (uint64_t(Addr) + 4 > FinalMemory.size())
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= uint32_t(FinalMemory[Addr + I]) << (8 * I);
    return V;
  }

  /// Field-wise equality (the snapshot tests assert that resumed and
  /// cold runs are byte-identical on every field).
  bool operator==(const EmulatorResult &) const = default;
};

/// Runs \p Entry (default "main") of the machine module to completion
/// under the given options.
EmulatorResult emulate(const MModule &M, const EmulatorOptions &Opts = {},
                       const std::string &Entry = "main");

/// A machine module prepared for repeated emulation: the program is
/// flattened and pre-decoded once and the initial NVM image is
/// precomputed, so a campaign that re-runs the same module thousands of
/// times pays the setup cost once instead of per run. The free
/// emulate() above wraps a throwaway instance. The module must outlive
/// the Emulator.
class Emulator {
public:
  explicit Emulator(const MModule &M);
  ~Emulator();
  Emulator(const Emulator &) = delete;
  Emulator &operator=(const Emulator &) = delete;

  const MModule &module() const;

  /// Runs \p Entry to completion under \p Opts — identical results to
  /// the free emulate(). \p Scratch, when given, supplies the reusable
  /// per-worker memory arrays (see EmulatorScratch); results do not
  /// depend on whether or how often a scratch was reused. \p Stats,
  /// when given, accumulates engine dispatch statistics (ThreadedEngine.h)
  /// — never part of the result, so engines stay byte-comparable.
  EmulatorResult run(const EmulatorOptions &Opts = {},
                     const std::string &Entry = "main",
                     EmulatorScratch *Scratch = nullptr,
                     EngineStats *Stats = nullptr) const;

  /// Golden-run recording: executes exactly like run() — the returned
  /// result is byte-identical — while journaling periodic snapshots of
  /// the machine state into \p Chain (see Snapshot.h). Requires a
  /// continuous power schedule; \p Chain is cleared (left invalid) if
  /// the run fails.
  EmulatorResult record(const EmulatorOptions &Opts, SnapshotChain &Chain,
                        const std::string &Entry = "main",
                        EmulatorScratch *Scratch = nullptr,
                        EngineStats *Stats = nullptr) const;

  /// Replays under \p Opts, resuming from the governing snapshot of
  /// Plan.Chain when one exists and the chain's recorded options are
  /// compatible — otherwise falls back to a cold run. Either way the
  /// result is byte-identical to run() under the same options (modulo
  /// Plan.StopAtActiveCycle, which truncates the run identically on
  /// both paths). See ReplayPlan for tail splicing.
  EmulatorResult replay(const EmulatorOptions &Opts, const ReplayPlan &Plan,
                        const std::string &Entry = "main",
                        EmulatorScratch *Scratch = nullptr,
                        ReplayOutcome *Outcome = nullptr,
                        EngineStats *Stats = nullptr) const;

  struct Impl; ///< Public so the in-file interpreter can bind to it.

private:
  /// The one body of run/record/replay: a Machine on \p Scratch (or on a
  /// throwaway scratch when null), recording into \p Chain and/or
  /// replaying \p Plan when set.
  EmulatorResult runMachine(const EmulatorOptions &Opts,
                            const std::string &Entry, EmulatorScratch *Scratch,
                            EngineStats *Stats, SnapshotChain *Chain,
                            const ReplayPlan *Plan,
                            ReplayOutcome *Outcome) const;

  std::unique_ptr<Impl> I;
};

} // namespace wario

#endif // WARIO_EMU_EMULATOR_H
