//===----------------------------------------------------------------------===//
///
/// \file
/// Snapshot/restore engine for the emulator: incremental replay for
/// crash-consistency campaigns (src/verify/FaultInjector.h, its only
/// user outside the tests and microbenchmarks).
///
/// The emulator is fully deterministic, and a crash-injected run is
/// byte-identical to the continuous-power golden run up to the crash
/// point. A SnapshotChain therefore records, during one golden run,
/// periodic machine snapshots — registers, cycle counters, the prefix
/// lengths of every append-only result vector, and memory as a
/// dirty-page copy-on-write journal — so a run that only diverges after
/// active cycle C can resume from the last snapshot at or before C
/// instead of re-executing from boot (Emulator::replay). A snapshot
/// costs O(pages dirtied since the previous snapshot), not O(memory).
///
/// Snapshots are taken only at "region-fresh" instruction boundaries:
/// immediately after a checkpoint commit, or the first boundary after
/// cold boot. At those points the WAR monitor's first-access set is
/// empty by construction, so no live-set capture is needed — restoring
/// is an O(dirty pages) memory patch plus an O(1) epoch bump.
///
/// Journal format: memory is divided into fixed 256-byte pages
/// (snapshot::PageSize). While recording, the machine marks each page
/// dirtied since the last snapshot; at a snapshot, the dirty pages are
/// copied (in ascending page order) into one append-only byte Blob, and
/// (page, blob offset) entries are appended to both a global PageLog
/// (grouped per snapshot — Snap::PageLogEnd delimits the groups) and a
/// per-page index (sorted by snapshot, enabling binary search). The
/// memory image at snapshot k is then: the base image, overlaid with
/// each page's latest journal entry at or before k.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_EMU_SNAPSHOT_H
#define WARIO_EMU_SNAPSHOT_H

#include "emu/Emulator.h"

namespace wario {

namespace snapshot {
inline constexpr uint32_t PageShift = 8;
inline constexpr uint32_t PageSize = 1u << PageShift;
inline constexpr uint32_t NumPages = memmap::MemSize >> PageShift;
static_assert(memmap::MemSize % PageSize == 0);
} // namespace snapshot

/// Reusable per-worker emulator state: the NVM image and the WAR
/// monitor's flat per-byte stamp array (3 MiB total). A campaign that
/// re-runs the same module thousands of times hands one scratch per
/// worker thread to Emulator::run/replay; between runs only the pages
/// that diverged from the module's base image are reset (Touched), and
/// the WAR epoch counter keeps increasing so stale access stamps never
/// match. Owner identifies the Emulator the arrays are primed for; a
/// different owner forces a full re-initialization.
struct EmulatorScratch {
  std::vector<uint8_t> Mem;
  /// Per-byte first-access stamp: (epoch << 1) | kind, kind 0 = read,
  /// 1 = write. Epoch and kind share one half-word so the threaded
  /// engine's hot path can test a 4-byte access with a single 8-byte
  /// compare (and the stamp array stays cache-resident: 2 bytes of
  /// stamp per byte of NVM instead of 4).
  std::vector<uint16_t> Access;
  uint32_t Epoch = 0; ///< Current region epoch (15 effective bits).
  std::vector<uint8_t> TouchedMark; ///< Per page: Mem differs from base.
  std::vector<uint32_t> Touched;    ///< Pages with TouchedMark set.
  /// Process-unique id of the owning Emulator (not its address: a
  /// freed Emulator's allocation can be reused for the next module's,
  /// and a thread_local scratch that matched on the address would then
  /// take the incremental-reset path against the wrong base image,
  /// keeping stale pages from the previous module).
  uint64_t Owner = 0;
};

/// The recorded artifact of one continuous-power golden run: the
/// snapshot sequence, the dirty-page journal, and a full copy of the
/// run's EmulatorResult (so resumed runs can restore result-vector
/// prefixes, and tail-spliced runs can borrow the golden tail).
class SnapshotChain {
public:
  /// One recorded machine state at a region-fresh boundary.
  struct Snap {
    uint64_t ActiveCycle = 0; ///< ActiveSinceBoot at the boundary.
    uint64_t TotalCycles = 0;
    uint64_t Instructions = 0;
    uint64_t Checkpoints = 0;
    uint64_t InterruptsTaken = 0;
    uint64_t WarViolations = 0;
    uint64_t CyclesSinceIrq = 0;
    uint64_t RegionStartCycles = 0;
    CheckpointCauses Causes;
    uint32_t Regs[NumPRegs] = {};
    uint32_t Pc = 0;
    bool Primask = false;
    bool ProgressThisBoot = false;
    /// Taken at the boundary right after a step()-path checkpoint
    /// commit (tail-splice candidates; the cold-boot snapshot is not).
    bool CommitAligned = false;
    /// Prefix lengths of the append-only result vectors at this
    /// boundary (indices into Final's vectors).
    uint32_t OutputLen = 0;
    uint32_t RegionSizesLen = 0;
    uint32_t WarReportsLen = 0;
    uint32_t CommitsLen = 0;
    uint32_t StoreCyclesLen = 0;
    /// PageLog entries [0, PageLogEnd) cover snapshots up to and
    /// including this one.
    uint32_t PageLogEnd = 0;
  };

  /// One journaled page copy: Blob[BlobOff, BlobOff + PageSize).
  struct PageRef {
    uint32_t Page = 0;
    uint32_t BlobOff = 0;
  };
  /// Per-page index entry: the page's content as of snapshot SnapIdx.
  struct PageEntry {
    uint32_t SnapIdx = 0;
    uint32_t BlobOff = 0;
  };

  bool valid() const { return Module != nullptr && !Snaps.empty(); }
  size_t size() const { return Snaps.size(); }
  void clear();
  /// Approximate footprint in bytes (snapshots + journal + final copy).
  size_t bytes() const;

  /// Index of the last snapshot with ActiveCycle <= Limit, or -1. A
  /// crash budget of C is safe to resume from any snapshot at or before
  /// C: loop-boundary active-cycle values are strictly increasing, so
  /// the failure fires at the same boundary either way.
  int governing(uint64_t Limit) const;

  /// The content of \p Page as of snapshot \p SnapIdx: the latest
  /// journal copy at or before it, or nullptr if the page still equals
  /// the base image there.
  const uint8_t *pageAt(uint32_t Page, int SnapIdx) const;

  // Engine-internal data (filled by Emulator::record, read by
  // Emulator::replay; exposed for the snapshot tests and benches).
  const MModule *Module = nullptr;
  std::string Entry;
  EmulatorOptions RecordedEO;
  std::vector<Snap> Snaps;
  std::vector<PageRef> PageLog;
  std::vector<std::vector<PageEntry>> PerPage; ///< snapshot::NumPages.
  std::vector<uint32_t> JournaledPages;        ///< Unique, first-touch order.
  std::vector<uint8_t> Blob;
  EmulatorResult Final;
};

/// How Emulator::replay should use a chain. Every field is advisory in
/// the sense that an invalid or incompatible chain degrades to a cold
/// run with identical results — callers never need their own fallback.
struct ReplayPlan {
  const SnapshotChain *Chain = nullptr;
  /// Stop (Ok, partial result) at the first instruction boundary where
  /// ActiveSinceBoot >= StopAtActiveCycle (0 = run to completion). The
  /// stop point is checked identically on cold and resumed runs.
  uint64_t StopAtActiveCycle = 0;
  /// After the last injected power failure, watch for the machine state
  /// to reconverge exactly with a recorded commit-aligned snapshot; on
  /// an exact match (registers + memory), splice the golden tail's
  /// counters/output instead of re-executing it. Only applies when the
  /// run collects no event trace/window and takes no interrupts.
  bool AllowTailSplice = false;
  /// Spliced runs copy the golden final NVM image by construction; set
  /// this to skip the 1 MiB copy when the caller will not read it.
  bool OmitFinalMemoryOnSplice = false;
};

/// What replay actually did (for stats and tests; results never vary).
struct ReplayOutcome {
  bool Resumed = false;
  bool Spliced = false;
  int ResumeSnapshot = -1;
  int SpliceSnapshot = -1;
};

} // namespace wario

#endif // WARIO_EMU_SNAPSHOT_H
