#include "emu/Emulator.h"

#include "emu/Machine.h"
#include "emu/ThreadedEngine.h"
#include "ir/ConstEval.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <sstream>

using namespace wario;
using namespace wario::emu_detail;

namespace {
// Snapshot cadence while recording: start dense and double the interval
// every SnapshotsPerBackoff snapshots, so short programs get fine-grained
// coverage and long ones stay under the cap (recording continues past
// it; later crash points resume from the last snapshot).
constexpr uint64_t FirstSnapshotInterval = 1024; ///< Active cycles.
constexpr size_t SnapshotsPerBackoff = 2048;
constexpr size_t MaxSnapshots = 16384;
} // namespace

static uint64_t nextEmulatorUid() {
  static std::atomic<uint64_t> Counter{0};
  return ++Counter; // Ids start at 1; 0 marks a never-primed scratch.
}

Emulator::Impl::Impl(const MModule &M)
    : M(M), Uid(nextEmulatorUid()), BaseImage(memmap::MemSize, 0) {
  assert(!M.InitImage.empty() || M.DataEnd == 0);
  std::copy(M.InitImage.begin(), M.InitImage.end(), BaseImage.begin());

  // Pass 1: flatten code, recording function entries and block starts.
  FuncEntry.reserve(M.Functions.size());
  std::vector<std::vector<uint32_t>> BlockStart(M.Functions.size());
  for (size_t FI = 0; FI != M.Functions.size(); ++FI) {
    const MFunction &F = M.Functions[FI];
    FuncEntry.push_back(uint32_t(Code.size()));
    for (int B = 0; B != int(F.Blocks.size()); ++B) {
      BlockStart[FI].push_back(uint32_t(Code.size()));
      for (int I = 0; I != int(F.Blocks[B].Insts.size()); ++I)
        Code.push_back({&F, B, I});
    }
  }

  // Pass 2: decode into the dense program with resolved targets.
  Prog.reserve(Code.size());
  for (size_t FI = 0; FI != M.Functions.size(); ++FI) {
    const MFunction &F = M.Functions[FI];
    for (const MBasicBlock &BB : F.Blocks) {
      for (const MInst &I : BB.Insts) {
        DecodedInst D;
        D.Op = I.Op;
        D.Alu = aluOpcode(I.Op);
        D.Size = I.Size;
        D.Signed = I.Signed;
        D.MovCost = (uint64_t(I.Imm) & 0xFFFF0000u) ? 2 : 1;
        D.Pred = I.Pred;
        D.Cause = I.Cause;
        D.Dst = int16_t(I.Dst);
        for (int S = 0; S != 3; ++S)
          D.Src[S] = int16_t(I.Src[S]);
        D.Slot = I.Slot;
        D.SlotOff = 0;
        if ((I.Op == MOp::LdrSlot || I.Op == MOp::StrSlot ||
             I.Op == MOp::FrameAddr) &&
            I.Slot >= 0 && I.Slot < int(F.Slots.size()))
          D.SlotOff = F.Slots[unsigned(I.Slot)].Offset;
        D.RegList = I.RegList;
        D.Logged = I.Logged;
        D.Imm = uint32_t(I.Imm);
        D.Target[0] = D.Target[1] = BadTarget;
        if (I.Op == MOp::B || I.Op == MOp::CBr) {
          for (int T = 0; T != 2; ++T)
            if (I.Target[T] >= 0)
              D.Target[T] = BlockStart[FI][unsigned(I.Target[T])];
        } else if (I.Op == MOp::Bl) {
          if (I.CalleeIdx >= 0 && I.CalleeIdx < int(M.Functions.size()))
            D.Target[0] = FuncEntry[unsigned(I.CalleeIdx)];
        }
        D.F = &F;
        Prog.push_back(D);
      }
    }
  }

  // Lower the decoded program into the merged per-pc records the
  // threaded engine dispatches over (one entry per pc, each carrying the
  // group that starts there; identity groups included).
  Fast = buildFastProgram(Prog);
}

namespace wario::emu_detail {

EmulatorResult Machine::run(const std::string &Entry) {
  const MFunction *Main = P.M.getFunction(Entry);
  if (!Main) {
    EmulatorResult R;
    R.Error = "entry function '" + Entry + "' not found";
    return R;
  }
  MainEntry = P.FuncEntry[unsigned(Main - P.M.Functions.data())];
  CurEntry = Entry;
  prepareScratch();

  // Every strategy runs threaded: the engine's access fast paths keep
  // the strategy journals exactly as the member paths do, and its
  // checkpoints commit through commitCheckpoint.
  UseThreaded =
      resolveEngine(Opts.Engine) != EngineKind::Interp && !P.Fast.empty();
  if (Strat == CheckpointStrategy::Differential)
    DiffMark.assign(snapshot::NumPages, 0);

  if (Chain) {
    Chain->clear();
    Chain->Module = &P.M;
    Chain->Entry = Entry;
    Chain->RecordedEO = Opts;
    Chain->PerPage.resize(snapshot::NumPages);
    SnapMark.assign(snapshot::NumPages, 0);
    EffInterval = FirstSnapshotInterval;
    GrowAt = SnapshotsPerBackoff;
  }

  // Resume decision: the run is byte-identical to a cold run up to
  // the earliest cycle where options can make it diverge from the
  // recorded golden run — the first power failure, the start of a
  // requested trace window, or the stop point — so the governing
  // snapshot at or before that cycle is a safe entry.
  int ResumeIdx = -1;
  if (Plan && Plan->Chain && compatible(*Plan->Chain)) {
    uint64_t Target = UINT64_MAX;
    uint64_t First = Opts.Power.onDuration(0);
    if (First != UINT64_MAX)
      Target = std::min(Target, First);
    if (Opts.TraceWindowHi)
      Target = std::min(Target, Opts.TraceWindowLo);
    if (StopAt)
      Target = std::min(Target, StopAt);
    ResumeIdx = Plan->Chain->governing(Target);
  }
  if (Out) {
    Out->Resumed = ResumeIdx >= 0;
    Out->ResumeSnapshot = ResumeIdx;
  }

  SpliceEnabled = Plan && Plan->AllowTailSplice && StopAt == 0 &&
                  Plan->Chain && compatible(*Plan->Chain) &&
                  Plan->Chain->Final.Ok && !Opts.CollectEventTrace &&
                  Opts.TraceWindowHi == 0 && Opts.InterruptPeriod == 0;
  TrackWrites = Persistent || Chain != nullptr || ResumeIdx >= 0 ||
                SpliceEnabled;
  // Snapshot cadence and splice matching live in the outer loop, so
  // the threaded loop must hand back at every region boundary when
  // either consumer is active.
  ExitOnCommit = Chain != nullptr || SpliceEnabled;

  if (ResumeIdx >= 0) {
    restoreFrom(*Plan->Chain, ResumeIdx);
    ResumeLogEnd = Plan->Chain->Snaps[unsigned(ResumeIdx)].PageLogEnd;
  } else {
    coldStart();
  }
  unsigned StalledBoots = 0;

  while (true) {
    if (Res.TotalCycles >= Opts.MaxCycles) {
      fail("cycle budget exhausted (runaway program?)");
      break;
    }
    if (!Failed && Done)
      break;
    if (Failed)
      break;
    if (StopAt && ActiveSinceBoot >= StopAt) {
      Stopped = true;
      break;
    }
    if (Chain && RegionFresh)
      maybeSnapshot();

    // Power failure?
    uint64_t OnBudget = Opts.Power.onDuration(Res.PowerFailures);
    if (ActiveSinceBoot >= OnBudget) {
      ++Res.PowerFailures;
      if (!ProgressThisBoot) {
        if (++StalledBoots >= Opts.MaxStalledBoots) {
          std::ostringstream OS;
          OS << "no forward progress across " << StalledBoots
             << " consecutive boots (limit " << Opts.MaxStalledBoots
             << "): " << Res.CheckpointsExecuted
             << " checkpoints committed so far, last committed "
                "checkpoint id ";
          if (Res.CheckpointsExecuted)
            OS << (Res.CheckpointsExecuted - 1);
          else
            OS << "none (re-executing from cold start)";
          OS << ", on-period budget " << OnBudget << " cycles";
          fail(OS.str());
          break;
        }
      } else {
        StalledBoots = 0;
      }
      reboot();
      continue;
    }

    // Interrupt delivery at instruction boundaries. The inter-arrival
    // clock restarts when the handler *returns* (resetting before it
    // runs would re-pend immediately whenever the service cost exceeds
    // the period — an interrupt storm that starves user code).
    if (Opts.InterruptPeriod && !Primask &&
        (Pending || CyclesSinceIrq >= Opts.InterruptPeriod)) {
      Pending = false;
      serviceInterrupt();
      CyclesSinceIrq = 0;
      if (Failed)
        break;
      continue;
    }

    // Tail splice: once no further power failures are pending, a
    // region-fresh state that exactly matches a recorded snapshot
    // evolves identically to the golden run from here on.
    if (SpliceEnabled && SpliceAttempts && RegionFresh &&
        OnBudget == UINT64_MAX && trySplice())
      break;

    // Threaded fast path: dispatch fused groups while no event above
    // can fire, keeping a FusedCostLimit margin so no event cycle can
    // land inside a dispatched group (step() handles the boundary
    // approach exactly; see DESIGN.md §7.7).
    if (UseThreaded) {
      uint64_t Limit = fastLimit(OnBudget);
      if (ActiveSinceBoot + FusedCostLimit < Limit) {
        runThreaded(Limit - FusedCostLimit);
        continue;
      }
    }

    step();
  }

  EmulatorResult R = std::move(Res);
  if (Spliced) {
    R.Ok = true;
    if (!Plan->OmitFinalMemoryOnSplice)
      R.FinalMemory = Plan->Chain->Final.FinalMemory;
  } else {
    if (Persistent)
      R.FinalMemory = Scr.Mem; // Copy: the scratch stays reusable.
    else
      R.FinalMemory = std::move(Scr.Mem);
    R.Ok = !Failed;
    if (Failed)
      R.Error = ErrorMsg;
  }
  if (Chain) {
    // Only a completed, successful run yields a usable chain.
    if (R.Ok && !Stopped)
      Chain->Final = R;
    else
      Chain->clear();
  }
  return R;
}

// --- Scratch / page tracking --------------------------------------------------
/// Brings the scratch arrays to the module's initial state: a full
/// (re)initialization when the scratch last served a different
/// Emulator, otherwise an O(touched pages) patch from the base image.
void Machine::prepareScratch() {
  if (Scr.Owner != P.Uid) {
    Scr.Mem.assign(P.BaseImage.begin(), P.BaseImage.end());
    Scr.Access.assign(memmap::MemSize, 0);
    Scr.Epoch = 0;
    Scr.TouchedMark.assign(snapshot::NumPages, 0);
    Scr.Touched.clear();
    Scr.Owner = P.Uid;
    return;
  }
  for (uint32_t Pg : Scr.Touched) {
    std::copy_n(P.BaseImage.begin() + size_t(Pg) * snapshot::PageSize,
                snapshot::PageSize,
                Scr.Mem.begin() + size_t(Pg) * snapshot::PageSize);
    Scr.TouchedMark[Pg] = 0;
  }
  Scr.Touched.clear();
}

// --- Memory with WAR monitoring -----------------------------------------------
void Machine::recordAccess(uint32_t Addr, unsigned Size, Access Kind,
                           bool Logged) {
  if (!monitored(Addr))
    return;
  // Differential does not rely on idempotent re-execution at all — the
  // page journal rolls every uncommitted write back — so WAR monitoring
  // is meaningless (and off) for it.
  if (Strat == CheckpointStrategy::Differential)
    return;
  const uint32_t WantR = Scr.Epoch << 1;
  bool CountedThisAccess = false;
  for (unsigned I = 0; I != Size; ++I) {
    uint32_t A = Addr + I;
    uint32_t S = Scr.Access[A];
    if ((S >> 1) != Scr.Epoch) {
      // First access of this byte in the region: stamp epoch + kind.
      Scr.Access[A] = uint16_t(WantR | uint32_t(Kind));
      continue;
    }
    if (Kind == Access::Write && Logged) {
      // Undo-logged speculative store: a WAR here is harmless (the log
      // restores the read value at rollback). Record the write so the
      // byte stops looking read-first, but count nothing.
      Scr.Access[A] = uint16_t(S | 1u);
      continue;
    }
    if (Kind == Access::Write && (S & 1u) == 0) {
      // One violation per offending store, not per overlapping byte.
      if (!CountedThisAccess)
        ++Res.WarViolations;
      CountedThisAccess = true;
      if (Res.WarReports.size() < 8) {
        std::ostringstream OS;
        OS << "WAR violation: write to 0x" << std::hex << A
           << " first read in the same idempotent region (function @"
           << Cur().F->Name << ", block "
           << Cur().F->Blocks[Cur().Block].Name << ")";
        Res.WarReports.push_back(OS.str());
      }
      if (Opts.WarIsFatal)
        fail(Res.WarReports.empty() ? "WAR violation"
                                    : Res.WarReports.back());
      // Record as write so each spot reports once.
      Scr.Access[A] = uint16_t(S | 1u);
    }
  }
}

uint32_t Machine::loadMem(uint32_t Addr, unsigned Size, bool SignExtend) {
  if (Addr > memmap::MemSize - Size) {
    fail("load out of bounds");
    return 0;
  }
  recordAccess(Addr, Size, Access::Read);
  uint32_t V = 0;
  for (unsigned I = 0; I != Size; ++I)
    V |= uint32_t(Scr.Mem[Addr + I]) << (8 * I);
  if (SignExtend && Size < 4) {
    uint32_t SignBit = 1u << (Size * 8 - 1);
    if (V & SignBit)
      V |= ~((SignBit << 1) - 1);
  }
  return V;
}

void Machine::storeMem(uint32_t Addr, unsigned Size, uint32_t V,
                       bool Logged) {
  if (Addr == memmap::OutPort) {
    Res.Output.push_back(int32_t(V));
    return;
  }
  if (Addr > memmap::MemSize - Size) {
    fail("store out of bounds");
    return;
  }
  recordAccess(Addr, Size, Access::Write, Logged);
  // Stamp ActiveSinceBoot + 1: the store's own cycles are spent after
  // storeMem returns, so this is the smallest on-period budget whose
  // first power-failure check lands at the instruction boundary right
  // *after* this store (the adversarial crash point).
  if (Opts.CollectEventTrace && monitored(Addr) &&
      (Res.StoreCycles.empty() ||
       Res.StoreCycles.back() != ActiveSinceBoot + 1))
    Res.StoreCycles.push_back(ActiveSinceBoot + 1);
  if (monitored(Addr)) {
    if (Strat == CheckpointStrategy::Differential) {
      diffJournal(Addr, Size);
    } else if (Strat == CheckpointStrategy::Speculative && Logged) {
      // Copy the old value out before it is overwritten; reverse-order
      // replay at rollback then restores the oldest (= last-committed)
      // value no matter how often the address is re-logged.
      uint32_t Old = 0;
      for (unsigned I = 0; I != Size; ++I)
        Old |= uint32_t(Scr.Mem[Addr + I]) << (8 * I);
      SpecLog.push_back({Addr, uint8_t(Size), Old});
      spend(cycles::SpecLogStore);
    }
  }
  noteWrite(Addr, Size);
  for (unsigned I = 0; I != Size; ++I)
    Scr.Mem[Addr + I] = uint8_t(V >> (8 * I));
}

uint32_t Machine::rawLoad(uint32_t Addr) {
  uint32_t V = 0;
  for (unsigned I = 0; I != 4; ++I)
    V |= uint32_t(Scr.Mem[Addr + I]) << (8 * I);
  return V;
}

// --- Snapshots -----------------------------------------------------------------
/// A chain's recorded configuration serves a replay under Opts when
/// every option that influences the pre-divergence execution prefix
/// matches, and every result vector the replay collects was also
/// collected while recording (prefix restoration). The engine choice is
/// deliberately absent: both engines produce identical journals, so
/// chains recorded under one engine replay under the other.
bool Machine::compatible(const SnapshotChain &C) const {
  const EmulatorOptions &R = C.RecordedEO;
  return C.valid() && C.Module == &P.M && C.Entry == CurEntry &&
         R.InterruptPeriod == Opts.InterruptPeriod &&
         R.MaxCycles == Opts.MaxCycles &&
         R.MaxStalledBoots == Opts.MaxStalledBoots &&
         R.WarIsFatal == Opts.WarIsFatal &&
         (!Opts.CollectEventTrace || R.CollectEventTrace) &&
         (!Opts.CollectRegionSizes || R.CollectRegionSizes);
}

void Machine::maybeSnapshot() {
  if (Chain->Snaps.size() >= MaxSnapshots)
    return;
  if (!Chain->Snaps.empty() &&
      ActiveSinceBoot - Chain->Snaps.back().ActiveCycle < EffInterval)
    return;
  takeSnapshot();
}

void Machine::takeSnapshot() {
  // Journal the pages dirtied since the previous snapshot (ascending
  // page order keeps the chain deterministic).
  std::sort(SnapDirty.begin(), SnapDirty.end());
  for (uint32_t Pg : SnapDirty) {
    SnapMark[Pg] = 0;
    uint32_t Off = uint32_t(Chain->Blob.size());
    const uint8_t *Page = Scr.Mem.data() + size_t(Pg) * snapshot::PageSize;
    Chain->Blob.insert(Chain->Blob.end(), Page, Page + snapshot::PageSize);
    if (Chain->PerPage[Pg].empty())
      Chain->JournaledPages.push_back(Pg);
    Chain->PageLog.push_back({Pg, Off});
    Chain->PerPage[Pg].push_back({uint32_t(Chain->Snaps.size()), Off});
  }
  SnapDirty.clear();

  SnapshotChain::Snap S;
  S.ActiveCycle = ActiveSinceBoot;
  S.TotalCycles = Res.TotalCycles;
  S.Instructions = Res.InstructionsExecuted;
  S.Checkpoints = Res.CheckpointsExecuted;
  S.InterruptsTaken = Res.InterruptsTaken;
  S.WarViolations = Res.WarViolations;
  S.CyclesSinceIrq = CyclesSinceIrq;
  S.RegionStartCycles = RegionStartCycles;
  S.Causes = Res.Causes;
  std::copy(Regs, Regs + NumPRegs, S.Regs);
  S.Pc = Pc;
  S.Primask = Primask;
  S.ProgressThisBoot = ProgressThisBoot;
  S.CommitAligned = Res.CheckpointsExecuted > 0;
  S.OutputLen = uint32_t(Res.Output.size());
  S.RegionSizesLen = uint32_t(Res.RegionSizes.size());
  S.WarReportsLen = uint32_t(Res.WarReports.size());
  S.CommitsLen = uint32_t(Res.Commits.size());
  S.StoreCyclesLen = uint32_t(Res.StoreCycles.size());
  S.PageLogEnd = uint32_t(Chain->PageLog.size());
  Chain->Snaps.push_back(S);

  // Back off geometrically as the recording grows so arbitrarily long
  // programs stay under the snapshot cap.
  if (Chain->Snaps.size() >= GrowAt) {
    EffInterval *= 2;
    GrowAt += SnapshotsPerBackoff;
  }
}

/// Rebuilds the exact machine state of snapshot \p K: counters and
/// registers from the Snap record, result vectors as prefixes of the
/// recorded finals, memory as base image + journal, and an empty WAR
/// live set (snapshots are only taken at region-fresh boundaries).
void Machine::restoreFrom(const SnapshotChain &C, int K) {
  const SnapshotChain::Snap &S = C.Snaps[unsigned(K)];
  const EmulatorResult &F = C.Final;
  Res.TotalCycles = S.TotalCycles;
  Res.InstructionsExecuted = S.Instructions;
  Res.CheckpointsExecuted = S.Checkpoints;
  Res.Causes = S.Causes;
  Res.InterruptsTaken = S.InterruptsTaken;
  Res.WarViolations = S.WarViolations;
  Res.Output.assign(F.Output.begin(), F.Output.begin() + S.OutputLen);
  Res.WarReports.assign(F.WarReports.begin(),
                        F.WarReports.begin() + S.WarReportsLen);
  if (Opts.CollectRegionSizes)
    Res.RegionSizes.assign(F.RegionSizes.begin(),
                           F.RegionSizes.begin() + S.RegionSizesLen);
  if (Opts.CollectEventTrace) {
    Res.Commits.assign(F.Commits.begin(), F.Commits.begin() + S.CommitsLen);
    Res.StoreCycles.assign(F.StoreCycles.begin(),
                           F.StoreCycles.begin() + S.StoreCyclesLen);
  }
  std::copy(S.Regs, S.Regs + NumPRegs, Regs);
  Pc = S.Pc;
  Primask = S.Primask;
  Pending = false;
  ActiveSinceBoot = S.ActiveCycle;
  CyclesSinceIrq = S.CyclesSinceIrq;
  RegionStartCycles = S.RegionStartCycles;
  ProgressThisBoot = S.ProgressThisBoot;
  for (uint32_t Pg : C.JournaledPages) {
    const uint8_t *Src = C.pageAt(Pg, K);
    if (!Src)
      continue;
    std::copy_n(Src, snapshot::PageSize,
                Scr.Mem.begin() + size_t(Pg) * snapshot::PageSize);
    touchPage(Pg);
  }
  clearFirstAccess();
  clearStrategyJournals(); // Snapshots are taken at region-fresh points.
  RegionFresh = true;
}

/// Attempts to end the run by splicing the recorded golden tail: at a
/// region-fresh boundary with commit count N, an exact register +
/// memory match against the commit-aligned snapshot with N commits
/// means the remainder of this run is, by determinism, identical to
/// the remainder of the golden run — so its counters, output, and
/// return value can be adopted wholesale (as deltas).
bool Machine::trySplice() {
  const SnapshotChain &C = *Plan->Chain;
  auto It = std::lower_bound(
      C.Snaps.begin(), C.Snaps.end(), Res.CheckpointsExecuted,
      [](const SnapshotChain::Snap &S, uint64_t N) {
        return S.Checkpoints < N;
      });
  if (It == C.Snaps.end() || It->Checkpoints != Res.CheckpointsExecuted ||
      !It->CommitAligned)
    return false;
  int K = int(It - C.Snaps.begin());
  const SnapshotChain::Snap &S = *It;

  // Splicing must not mask a cycle-budget exhaustion the real run
  // would hit. The synthesized total equals the real run's total, so
  // one failed check disqualifies every later candidate too.
  uint64_t TailCycles = C.Final.TotalCycles - S.TotalCycles;
  if (Res.TotalCycles + TailCycles >= Opts.MaxCycles) {
    SpliceAttempts = 0;
    return false;
  }

  if (!std::equal(S.Regs, S.Regs + NumPRegs, Regs) || Pc != S.Pc ||
      Primask != S.Primask) {
    --SpliceAttempts;
    return false;
  }
  // Memory: pages this run wrote (or restored) are compared against
  // the golden image at K; pages only the *golden* run dirtied in
  // (resume, K] must still equal the base image here. Everything else
  // equals the base image on both sides.
  for (uint32_t Pg : Scr.Touched) {
    const uint8_t *G = C.pageAt(Pg, K);
    if (!G)
      G = P.BaseImage.data() + size_t(Pg) * snapshot::PageSize;
    if (std::memcmp(Scr.Mem.data() + size_t(Pg) * snapshot::PageSize, G,
                    snapshot::PageSize) != 0) {
      --SpliceAttempts;
      return false;
    }
  }
  for (uint32_t LI = ResumeLogEnd; LI != S.PageLogEnd; ++LI) {
    uint32_t Pg = C.PageLog[LI].Page;
    if (Scr.TouchedMark[Pg])
      continue; // Compared above.
    const uint8_t *G = C.pageAt(Pg, K);
    if (G &&
        std::memcmp(P.BaseImage.data() + size_t(Pg) * snapshot::PageSize,
                    G, snapshot::PageSize) != 0) {
      --SpliceAttempts;
      return false;
    }
  }

  // Exact match: adopt the golden tail.
  const EmulatorResult &F = C.Final;
  Res.TotalCycles += TailCycles;
  Res.InstructionsExecuted += F.InstructionsExecuted - S.Instructions;
  Res.CheckpointsExecuted += F.CheckpointsExecuted - S.Checkpoints;
  Res.Causes.MiddleEndWar += F.Causes.MiddleEndWar - S.Causes.MiddleEndWar;
  Res.Causes.BackendSpill += F.Causes.BackendSpill - S.Causes.BackendSpill;
  Res.Causes.FunctionEntry += F.Causes.FunctionEntry - S.Causes.FunctionEntry;
  Res.Causes.FunctionExit += F.Causes.FunctionExit - S.Causes.FunctionExit;
  Res.InterruptsTaken += F.InterruptsTaken - S.InterruptsTaken;
  Res.WarViolations += F.WarViolations - S.WarViolations;
  Res.Output.insert(Res.Output.end(), F.Output.begin() + S.OutputLen,
                    F.Output.end());
  if (Opts.CollectRegionSizes)
    Res.RegionSizes.insert(Res.RegionSizes.end(),
                           F.RegionSizes.begin() + S.RegionSizesLen,
                           F.RegionSizes.end());
  for (size_t I = S.WarReportsLen;
       I < F.WarReports.size() && Res.WarReports.size() < 8; ++I)
    Res.WarReports.push_back(F.WarReports[I]);
  Res.ReturnValue = F.ReturnValue;
  Spliced = true;
  if (Out) {
    Out->Spliced = true;
    Out->SpliceSnapshot = K;
  }
  return true;
}

// --- Power / checkpoints --------------------------------------------------------
/// Strategy rollback at a reboot boundary: undoes every NVM write since
/// the last committed checkpoint, then clears the journals. Runs before
/// the register restore (the firmware repairs memory first, then
/// resumes), in both reboot paths — uncommitted writes exist whether or
/// not a checkpoint was ever committed.
void Machine::rollbackUncommitted() {
  if (Strat == CheckpointStrategy::Differential) {
    // Negative control: drop the journal without restoring any page, so
    // every uncommitted write survives the reboot.
    size_t N = P.M.DiffFullRollback ? DiffPages.size() : 0;
    for (size_t J = 0; J != N; ++J) {
      uint32_t Pg = DiffPages[J];
      std::copy_n(DiffBlob.begin() + J * snapshot::PageSize,
                  snapshot::PageSize,
                  Scr.Mem.begin() + size_t(Pg) * snapshot::PageSize);
      noteWrite(uint32_t(Pg << snapshot::PageShift), snapshot::PageSize);
      spend(cycles::DiffPageCommit);
    }
  } else if (Strat == CheckpointStrategy::Speculative) {
    for (size_t J = SpecLog.size(); J-- != 0;) {
      const SpecEntry &E = SpecLog[J];
      for (unsigned I = 0; I != E.Size; ++I)
        Scr.Mem[E.Addr + I] = uint8_t(E.Old >> (8 * I));
      noteWrite(E.Addr, E.Size);
      spend(cycles::SpecUndo);
    }
  }
  clearStrategyJournals();
}

void Machine::coldStart() {
  for (uint32_t &R : Regs)
    R = 0;
  Regs[SP] = memmap::StackTop;
  Regs[LR] = LrSentinel;
  Pc = CodeAddrBit | MainEntry;
  Primask = false;
  Pending = false;
  clearFirstAccess();
  clearStrategyJournals();
  RegionStartCycles = Res.TotalCycles;
  ActiveSinceBoot = 0;
  ProgressThisBoot = false;
  spend(cycles::Boot);
  CyclesSinceIrq = 0; // The interrupt timer restarts on power-up.
  RegionFresh = true;
}

void Machine::reboot() {
  // Volatile state is lost; PRIMASK resets; NVM persists.
  ActiveSinceBoot = 0;
  ProgressThisBoot = false;
  Primask = false;
  Pending = false;
  spend(cycles::Boot);
  CyclesSinceIrq = 0; // The interrupt timer restarts on power-up.
  rollbackUncommitted();
  // Restore the last committed checkpoint, if any.
  uint32_t Active = rawLoad(CkptActiveWord);
  if (Active == 0) {
    // Never checkpointed: restart from scratch (registers only; any
    // NVM mutations persist, which is exactly what the WAR monitor
    // checks for).
    for (uint32_t &R : Regs)
      R = 0;
    Regs[SP] = memmap::StackTop;
    Regs[LR] = LrSentinel;
    Pc = CodeAddrBit | MainEntry;
    clearFirstAccess();
    RegionStartCycles = Res.TotalCycles;
    RegionFresh = true;
    return;
  }
  uint32_t Buf = (Active == 1) ? CkptBuf0 : CkptBuf1;
  for (int R = 0; R != 15; ++R)
    Regs[R] = rawLoad(Buf + 4 * unsigned(R));
  Pc = rawLoad(Buf + 4 * 15);
  spend(cycles::Restore);
  // Re-execution starts a fresh idempotent region attempt.
  clearFirstAccess();
  RegionStartCycles = Res.TotalCycles;
  RegionFresh = true;
}

/// The one checkpoint commit, for both engines (the threaded loop
/// flushes its locals, calls this, and reloads): r0-r14 and the resume
/// pc go to the buffer the active word does not name, then the word
/// flips to it.
void Machine::commitCheckpoint(CheckpointCause Cause) {
  uint64_t CommitBegin = ActiveSinceBoot;
  uint8_t *const Mem = Scr.Mem.data();
  const uint32_t Active = rawLoad(CkptActiveWord);
  const uint32_t Buf = (Active == 1) ? CkptBuf1 : CkptBuf0;
  const uint32_t NewActive = (Active == 1) ? 2 : 1;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::memcpy(Mem + Buf, Regs, 15 * 4);
  std::memcpy(Mem + Buf + 60, &Pc, 4); // Resume after this instruction.
  std::memcpy(Mem + CkptActiveWord, &NewActive, 4);
#else
  for (unsigned B = 0; B != 4; ++B) {
    for (int R = 0; R != 15; ++R)
      Mem[Buf + 4 * unsigned(R) + B] = uint8_t(Regs[R] >> (8 * B));
    Mem[Buf + 60 + B] = uint8_t(Pc >> (8 * B));
    Mem[CkptActiveWord + B] = uint8_t(NewActive >> (8 * B));
  }
#endif
  noteWrite(Buf, 64);
  noteWrite(CkptActiveWord, 4);
  // The register save, and under differential one flush per journal
  // page (only what the region dirtied); then the journals reset.
  spend(cycles::Checkpoint +
        uint64_t(DiffPages.size()) * cycles::DiffPageCommit);
  clearStrategyJournals();

  ++Res.CheckpointsExecuted;
  switch (Cause) {
  case CheckpointCause::MiddleEndWar: ++Res.Causes.MiddleEndWar; break;
  case CheckpointCause::BackendSpill: ++Res.Causes.BackendSpill; break;
  case CheckpointCause::FunctionEntry: ++Res.Causes.FunctionEntry; break;
  case CheckpointCause::FunctionExit: ++Res.Causes.FunctionExit; break;
  }
  if (Opts.CollectRegionSizes)
    Res.RegionSizes.push_back(Res.TotalCycles - RegionStartCycles);
  if (Opts.CollectEventTrace)
    Res.Commits.push_back({CommitBegin, ActiveSinceBoot, Cause});
  RegionStartCycles = Res.TotalCycles;
  clearFirstAccess();
  ProgressThisBoot = true;
  RegionFresh = true;
}

void Machine::serviceInterrupt() {
  ++Res.InterruptsTaken;
  // Hardware-assisted entry checkpoint (see DESIGN.md): closes the
  // region so the exception stacking below cannot complete a WAR.
  commitCheckpoint(CheckpointCause::FunctionEntry);
  // Exception stacking: {r0-r3, r12, lr, pc, xpsr} below SP.
  uint32_t SPv = Regs[SP] - 32;
  static const int Stacked[] = {R0, R1, R2, R3, R12, LR};
  for (int I = 0; I != 6; ++I)
    storeMem(SPv + 4 * unsigned(I), 4, Regs[Stacked[I]]);
  storeMem(SPv + 24, 4, Pc);
  storeMem(SPv + 28, 4, 0x01000000); // xPSR.
  // Handler body is modeled as a fixed-cost register-only routine.
  // Unstacking (reads).
  for (int I = 0; I != 6; ++I)
    Regs[Stacked[I]] = loadMem(SPv + 4 * unsigned(I), 4, false);
  (void)loadMem(SPv + 24, 4, false);
  (void)loadMem(SPv + 28, 4, false);
  spend(cycles::IsrOverhead);
  RegionFresh = false; // The stacking touched the fresh region.
}

// --- Interpreter step ------------------------------------------------------------
void Machine::step() {
  const DecodedInst &I = P.Prog[Pc & ~CodeAddrBit];
  RegionFresh = false;
  ++Res.InstructionsExecuted;
  if (Opts.TraceWindowHi && ActiveSinceBoot >= Opts.TraceWindowLo &&
      ActiveSinceBoot <= Opts.TraceWindowHi) {
    const CodeRef &C = Cur();
    std::ostringstream OS;
    OS << "cycle " << ActiveSinceBoot << ": " << C.F->Name << "/"
       << C.F->Blocks[C.Block].Name << " " << mopName(I.Op);
    Res.Window.push_back(OS.str());
  }
  uint32_t NextPc = Pc + 1;

  switch (I.Op) {
  case MOp::MovImm:
    reg(I.Dst) = I.Imm;
    spend(I.MovCost);
    break;
  case MOp::MovGlobal:
    fail("unlinked MovGlobal reached the emulator");
    return;
  case MOp::Mov:
    reg(I.Dst) = reg(I.Src[0]);
    spend(1);
    break;
  case MOp::Add: case MOp::Sub: case MOp::Mul: case MOp::And:
  case MOp::Orr: case MOp::Eor: case MOp::Lsl: case MOp::Lsr:
  case MOp::Asr:
    reg(I.Dst) = *constEvalBinary(I.Alu, reg(I.Src[0]), reg(I.Src[1]));
    spend(1);
    break;
  case MOp::UDiv:
  case MOp::SDiv: {
    auto V = constEvalBinary(I.Op == MOp::UDiv ? Opcode::UDiv : Opcode::SDiv,
                             reg(I.Src[0]), reg(I.Src[1]));
    if (!V) {
      fail("division by zero");
      return;
    }
    reg(I.Dst) = *V;
    spend(6);
    break;
  }
  case MOp::AddImm:
    reg(I.Dst) = reg(I.Src[0]) + I.Imm;
    spend(1);
    break;
  case MOp::SetCond:
    reg(I.Dst) = constEvalPred(I.Pred, reg(I.Src[0]), reg(I.Src[1])) ? 1 : 0;
    spend(2);
    break;
  case MOp::SelectR:
    reg(I.Dst) = reg(I.Src[0]) != 0 ? reg(I.Src[1]) : reg(I.Src[2]);
    spend(2);
    break;
  case MOp::Ldr:
    reg(I.Dst) = loadMem(reg(I.Src[0]) + I.Imm, I.Size, I.Signed);
    spend(2);
    break;
  case MOp::Str:
    storeMem(reg(I.Src[1]) + I.Imm, I.Size, reg(I.Src[0]), I.Logged);
    spend(2);
    break;
  case MOp::LdrSlot:
    reg(I.Dst) = loadMem(Regs[SP] + uint32_t(I.SlotOff), 4, false);
    spend(2);
    break;
  case MOp::StrSlot:
    storeMem(Regs[SP] + uint32_t(I.SlotOff), 4, reg(I.Src[0]));
    spend(2);
    break;
  case MOp::FrameAddr:
    reg(I.Dst) = Regs[SP] + uint32_t(I.SlotOff);
    spend(1);
    break;
  case MOp::Bl:
    if (I.Target[0] == BadTarget) {
      fail("call through an unlinked or bad function index");
      return;
    }
    Regs[LR] = NextPc;
    Pc = CodeAddrBit | I.Target[0];
    spend(1 + cycles::PipelineRefill);
    return;
  case MOp::B:
    Pc = CodeAddrBit | I.Target[0];
    spend(1 + cycles::PipelineRefill);
    return;
  case MOp::CBr:
    Pc = CodeAddrBit | I.Target[reg(I.Src[0]) != 0 ? 0 : 1];
    spend(1 + cycles::PipelineRefill);
    return;
  case MOp::Ret:
    if (Regs[LR] == LrSentinel) {
      Done = true;
      Res.ReturnValue = int32_t(Regs[R0]);
      spend(1 + cycles::PipelineRefill);
      return;
    }
    if (!(Regs[LR] & CodeAddrBit)) {
      fail("return to a non-code address (corrupt lr)");
      return;
    }
    Pc = Regs[LR];
    spend(1 + cycles::PipelineRefill);
    return;
  case MOp::Push: {
    unsigned N = unsigned(std::popcount(unsigned(I.RegList)));
    uint32_t Base = Regs[SP] - 4 * N;
    unsigned Idx = 0;
    for (int R = 0; R != NumPRegs; ++R)
      if (I.RegList & (1u << R))
        storeMem(Base + 4 * Idx++, 4, Regs[R]);
    Regs[SP] = Base;
    spend(1 + N);
    break;
  }
  case MOp::Pop:
  case MOp::PopLoads: {
    unsigned N = unsigned(std::popcount(unsigned(I.RegList)));
    unsigned Idx = 0;
    for (int R = 0; R != NumPRegs; ++R)
      if (I.RegList & (1u << R))
        Regs[R] = loadMem(Regs[SP] + 4 * Idx++, 4, false);
    if (I.Op == MOp::Pop)
      Regs[SP] += 4 * N;
    spend(1 + N);
    break;
  }
  case MOp::SpAdjust:
    Regs[SP] += I.Imm;
    spend(1);
    break;
  case MOp::Checkpoint:
    // Commit with the resume point after this instruction.
    Pc = NextPc;
    commitCheckpoint(I.Cause);
    return;
  case MOp::Out:
    Res.Output.push_back(int32_t(reg(I.Src[0])));
    spend(2);
    break;
  case MOp::IntMask:
    Primask = true;
    spend(1);
    break;
  case MOp::IntUnmask:
    Primask = false;
    spend(1);
    break;
  case MOp::Nop:
    spend(1);
    break;
  case MOp::CallPseudo:
  case MOp::ArgGet:
    fail("unexpanded pseudo instruction reached the emulator");
    return;
  }
  Pc = NextPc;
}

} // namespace wario::emu_detail

Emulator::Emulator(const MModule &M) : I(std::make_unique<Impl>(M)) {}
Emulator::~Emulator() = default;

const MModule &Emulator::module() const { return I->M; }

EmulatorResult Emulator::runMachine(const EmulatorOptions &Opts,
                                    const std::string &Entry,
                                    EmulatorScratch *Scratch,
                                    EngineStats *Stats, SnapshotChain *Chain,
                                    const ReplayPlan *Plan,
                                    ReplayOutcome *Outcome) const {
  EmulatorScratch Local;
  Machine Mach(*I, Opts, Scratch ? *Scratch : Local,
               /*Persistent=*/Scratch != nullptr);
  if (Chain)
    Mach.enableRecord(Chain);
  if (Plan)
    Mach.enableReplay(*Plan, Outcome);
  Mach.setStats(Stats);
  return Mach.run(Entry);
}

EmulatorResult Emulator::run(const EmulatorOptions &Opts,
                             const std::string &Entry,
                             EmulatorScratch *Scratch,
                             EngineStats *Stats) const {
  return runMachine(Opts, Entry, Scratch, Stats, nullptr, nullptr, nullptr);
}

EmulatorResult Emulator::record(const EmulatorOptions &Opts,
                                SnapshotChain &Chain,
                                const std::string &Entry,
                                EmulatorScratch *Scratch,
                                EngineStats *Stats) const {
  // Snapshots index the continuous-power timeline; anything else
  // records nothing but still runs correctly.
  bool Records = Opts.Power.isContinuous() && Opts.TraceWindowHi == 0;
  if (!Records)
    Chain.clear();
  return runMachine(Opts, Entry, Scratch, Stats, Records ? &Chain : nullptr,
                    nullptr, nullptr);
}

EmulatorResult Emulator::replay(const EmulatorOptions &Opts,
                                const ReplayPlan &Plan,
                                const std::string &Entry,
                                EmulatorScratch *Scratch,
                                ReplayOutcome *Outcome,
                                EngineStats *Stats) const {
  if (Outcome)
    *Outcome = ReplayOutcome{};
  return runMachine(Opts, Entry, Scratch, Stats, nullptr, &Plan, Outcome);
}

EmulatorResult wario::emulate(const MModule &M, const EmulatorOptions &Opts,
                              const std::string &Entry) {
  Emulator E(M);
  return E.run(Opts, Entry);
}
