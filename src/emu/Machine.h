//===----------------------------------------------------------------------===//
///
/// \file
/// The emulated machine: registers, cycle counters, WAR-monitored NVM,
/// the checkpoint/power substrate, and the snapshot/replay hooks —
/// shared by the two execution engines. Emulator.cpp defines the outer
/// event loop and the central-switch interpreter (step); Threaded-
/// Engine.cpp defines the direct-threaded fast loop (runThreaded) over
/// the same state, entered by the outer loop whenever no interpreter-
/// visible event (power failure, interrupt, stop/trace/cycle budget)
/// can fire within the dispatch margin.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_EMU_MACHINE_H
#define WARIO_EMU_MACHINE_H

#include "emu/Emulator.h"
#include "emu/Fusion.h"
#include "emu/Snapshot.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace wario {

/// The per-module preparation an Emulator instance amortizes across
/// runs: the flattened + decoded program, its fused engine stream, and
/// the initial NVM image.
struct Emulator::Impl {
  const MModule &M;
  /// Process-unique instance id (EmulatorScratch::Owner) — never an
  /// address, so scratch reuse is immune to allocator address reuse
  /// across Emulator lifetimes.
  const uint64_t Uid;
  std::vector<emu_detail::CodeRef> Code; ///< Diagnostics (WAR reports).
  std::vector<emu_detail::DecodedInst> Prog; ///< Dense execution form.
  std::vector<emu_detail::FastInst> Fast; ///< Merged engine records.
  std::vector<uint32_t> FuncEntry; ///< Entry code index per function.
  std::vector<uint8_t> BaseImage;  ///< Initial NVM (zeros + InitImage).

  explicit Impl(const MModule &M);
};

namespace emu_detail {

class Machine {
public:
  /// \p Persistent: the scratch outlives this run (its arrays must stay
  /// coherent for reuse), so the final NVM image is copied out instead
  /// of moved.
  Machine(const Emulator::Impl &P, const EmulatorOptions &Opts,
          EmulatorScratch &Scr, bool Persistent)
      : P(P), Opts(Opts), Scr(Scr), Persistent(Persistent),
        Strat(P.M.Strat) {}

  /// Journals periodic snapshots into \p C while running.
  void enableRecord(SnapshotChain *C) { Chain = C; }

  /// Resumes from / splices against Plan.Chain per the plan.
  void enableReplay(const ReplayPlan &P, ReplayOutcome *O) {
    Plan = &P;
    Out = O;
    StopAt = P.StopAtActiveCycle;
  }

  /// Accumulates dispatch statistics (ThreadedEngine.h) into \p S.
  void setStats(EngineStats *S) { Stats = S; }

  EmulatorResult run(const std::string &Entry);

  // --- Helpers --------------------------------------------------------------
  void fail(std::string Msg) {
    if (!Failed) {
      Failed = true;
      ErrorMsg = std::move(Msg);
    }
  }

  void spend(uint64_t C) {
    Res.TotalCycles += C;
    ActiveSinceBoot += C;
    CyclesSinceIrq += C;
  }

  uint32_t &reg(int R) {
    assert(R >= 0 && R < NumPRegs);
    return Regs[R];
  }

  // --- Scratch / page tracking ----------------------------------------------
  void prepareScratch();

  void touchPage(uint32_t Pg) {
    if (!Scr.TouchedMark[Pg]) {
      Scr.TouchedMark[Pg] = 1;
      Scr.Touched.push_back(Pg);
    }
  }

  /// Page-grain write tracking: which pages diverged from the base
  /// image (scratch reuse + splice comparison) and which were dirtied
  /// since the last snapshot (the copy-on-write journal). Off — a
  /// single predictable branch — on plain cold runs.
  void noteWrite(uint32_t Addr, unsigned Size) {
    if (!TrackWrites)
      return;
    uint32_t P0 = Addr >> snapshot::PageShift;
    uint32_t P1 = (Addr + Size - 1) >> snapshot::PageShift;
    for (uint32_t Pg = P0; Pg <= P1; ++Pg) {
      touchPage(Pg);
      if (Chain && !SnapMark[Pg]) {
        SnapMark[Pg] = 1;
        SnapDirty.push_back(Pg);
      }
    }
  }

  // --- Memory with WAR monitoring -------------------------------------------
  enum class Access : uint8_t { Read, Write };

  bool monitored(uint32_t Addr) const {
    if (Addr >= CkptBase && Addr < CkptEnd)
      return false; // Checkpoint buffers are incorruptible by design.
    return true;
  }

  /// Starts a fresh idempotent region: previous first-access records are
  /// invalidated by bumping the epoch instead of clearing a map, so a
  /// region reset is O(1). The epoch lives in the scratch and keeps
  /// increasing across runs, which is what makes scratch reuse safe.
  /// Stamps pack (epoch << 1) | kind in 16 bits, so the epoch wraps at
  /// 2^15 (one O(MemSize) refill every 32k regions).
  void clearFirstAccess() {
    if (++Scr.Epoch >= 0x8000u) { // Wrapped: stale entries are invalid.
      std::fill(Scr.Access.begin(), Scr.Access.end(), uint16_t(0));
      Scr.Epoch = 1;
    }
  }

  /// \p Logged: the write is a speculative-strategy undo-logged WAR
  /// store — it may legally target a read-first byte (the undo log
  /// restores the read value at rollback), so the monitor records it
  /// without counting a violation.
  void recordAccess(uint32_t Addr, unsigned Size, Access Kind,
                    bool Logged = false);
  uint32_t loadMem(uint32_t Addr, unsigned Size, bool SignExtend);
  void storeMem(uint32_t Addr, unsigned Size, uint32_t V,
                bool Logged = false);

  /// Raw word load bypassing the monitor (checkpoint machinery).
  uint32_t rawLoad(uint32_t Addr);

  // --- Strategy runtimes (docs/STRATEGIES.md) ---------------------------------
  /// Differential: saves a pristine copy of every page the region is
  /// about to dirty, so an uncommitted region can be rolled back at
  /// reboot. Called from storeMem before the bytes change.
  void diffJournal(uint32_t Addr, unsigned Size) {
    uint32_t P0 = Addr >> snapshot::PageShift;
    uint32_t P1 = (Addr + Size - 1) >> snapshot::PageShift;
    for (uint32_t Pg = P0; Pg <= P1; ++Pg) {
      if (DiffMark[Pg])
        continue;
      DiffMark[Pg] = 1;
      DiffPages.push_back(Pg);
      const uint8_t *Page = Scr.Mem.data() + size_t(Pg) * snapshot::PageSize;
      DiffBlob.insert(DiffBlob.end(), Page, Page + snapshot::PageSize);
    }
  }

  /// Rolls uncommitted state back at a reboot boundary and clears the
  /// journals: differential restores every dirty page from its saved
  /// copy; speculative replays the undo log in reverse. No-ops (beyond
  /// the clears) for the idempotent strategy, whose regions re-execute.
  void rollbackUncommitted();

  /// Drops journaled rollback state without applying it (commit, cold
  /// start, snapshot restore — every point where the region is fresh).
  void clearStrategyJournals() {
    for (uint32_t Pg : DiffPages)
      DiffMark[Pg] = 0;
    DiffPages.clear();
    DiffBlob.clear();
    SpecLog.clear();
  }

  // --- Snapshots -------------------------------------------------------------
  bool compatible(const SnapshotChain &C) const;
  void maybeSnapshot();
  void takeSnapshot();
  void restoreFrom(const SnapshotChain &C, int K);
  bool trySplice();

  // --- Power / checkpoints ----------------------------------------------------
  void coldStart();
  void reboot();
  void commitCheckpoint(CheckpointCause Cause);
  void serviceInterrupt();

  // --- Execution --------------------------------------------------------------
  const CodeRef &Cur() const { return P.Code[Pc & ~CodeAddrBit]; }

  /// One interpreter step (the oracle path; also serves the threaded
  /// engine for event-boundary single-stepping and bail-outs).
  void step();

  /// Direct-threaded fast loop (ThreadedEngine.cpp): executes fused
  /// groups until ActiveSinceBoot would reach \p Limit, a checkpoint
  /// commits under ExitOnCommit, or the run ends. Every checkpoint
  /// commits through commitCheckpoint. The caller guarantees Limit is
  /// at least FusedCostLimit under the next interpreter-visible event
  /// cycle, so no event can fire at a group-interior instruction
  /// boundary. Runs every checkpoint strategy, with the strategy
  /// runtimes below.
  void runThreaded(uint64_t Limit);

  /// The earliest active-cycle at which an outer-loop event could fire:
  /// the power budget \p OnBudget, the stop point, the interrupt timer,
  /// the cycle budget, or a requested trace window. The threaded engine
  /// may run only while strictly below fastLimit() - FusedCostLimit.
  uint64_t fastLimit(uint64_t OnBudget) const {
    uint64_t L = OnBudget;
    uint64_t Left = Opts.MaxCycles - Res.TotalCycles;
    if (Left <= UINT64_MAX - ActiveSinceBoot)
      L = std::min(L, ActiveSinceBoot + Left);
    if (StopAt)
      L = std::min(L, StopAt);
    if (Opts.InterruptPeriod && !Primask)
      L = std::min(L, ActiveSinceBoot +
                          (Opts.InterruptPeriod - CyclesSinceIrq));
    if (Opts.TraceWindowHi && ActiveSinceBoot <= Opts.TraceWindowHi)
      L = std::min(L, Opts.TraceWindowLo);
    return L;
  }

  // --- State ------------------------------------------------------------------
  const Emulator::Impl &P;
  EmulatorOptions Opts;
  EmulatorScratch &Scr;
  bool Persistent;
  std::string CurEntry;
  uint32_t MainEntry = 0;

  uint32_t Regs[NumPRegs] = {};
  uint32_t Pc = 0;
  bool Primask = false;
  bool Pending = false;
  bool Done = false;
  bool Failed = false;
  bool Stopped = false;
  std::string ErrorMsg;

  uint64_t RegionStartCycles = 0;
  uint64_t ActiveSinceBoot = 0;
  uint64_t CyclesSinceIrq = 0;
  bool ProgressThisBoot = false;
  /// The WAR live set is empty and no instruction has executed since
  /// the last commit/boot — the only states snapshots record and
  /// splices match against.
  bool RegionFresh = false;
  bool TrackWrites = false;
  /// Resolved engine choice for this run (run() sets it; the threaded
  /// loop additionally requires a non-empty fused stream).
  bool UseThreaded = false;
  /// The threaded loop must return to the outer loop after every
  /// checkpoint commit (snapshot cadence under recording, splice
  /// matching under replay); otherwise it continues in-loop.
  bool ExitOnCommit = false;

  // Recording state.
  SnapshotChain *Chain = nullptr;
  uint64_t EffInterval = 0; ///< Current minimum cycles between snapshots.
  size_t GrowAt = 0;        ///< Snapshot count at which EffInterval doubles.
  std::vector<uint8_t> SnapMark;   ///< Per page: dirty since last snap.
  std::vector<uint32_t> SnapDirty; ///< Pages with SnapMark set.

  // Replay state.
  const ReplayPlan *Plan = nullptr;
  ReplayOutcome *Out = nullptr;
  uint64_t StopAt = 0;
  uint32_t ResumeLogEnd = 0;
  bool SpliceEnabled = false;
  unsigned SpliceAttempts = 4;
  bool Spliced = false;

  EngineStats *Stats = nullptr;

  // Strategy-runtime state (docs/STRATEGIES.md). The journals are only
  // populated for their strategy and are empty at every region-fresh
  // point, so snapshots and splices need no extra bookkeeping.
  CheckpointStrategy Strat;
  std::vector<uint8_t> DiffMark;   ///< Per page: journaled this region.
  std::vector<uint32_t> DiffPages; ///< Journaled pages, journal order.
  std::vector<uint8_t> DiffBlob;   ///< Saved page copies (parallel).
  struct SpecEntry {
    uint32_t Addr;
    uint8_t Size;
    uint32_t Old;
  };
  std::vector<SpecEntry> SpecLog;  ///< Speculative undo log (append).

  EmulatorResult Res;
};

} // namespace emu_detail
} // namespace wario

#endif // WARIO_EMU_MACHINE_H
