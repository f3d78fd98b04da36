//===----------------------------------------------------------------------===//
///
/// \file
/// Structured result of a crash-consistency fault-injection campaign
/// (src/verify/FaultInjector.h): what was tested, what diverged from the
/// continuous-power golden run, and — after bisection — the minimal crash
/// point that still reproduces each divergence.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_VERIFY_CRASHREPORT_H
#define WARIO_VERIFY_CRASHREPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace wario::verify {

/// One NVM byte whose end state differs between the golden run and a
/// crash-injected run.
struct AddrDiff {
  uint32_t Addr = 0;
  uint8_t Golden = 0;
  uint8_t Crashed = 0;
};

/// How a crash-injected run diverged from the golden run.
enum class DivergenceKind {
  NvmMismatch,    ///< Final NVM image differs (outside the ckpt range).
  ReturnMismatch, ///< main()'s return value differs.
  OutputMismatch, ///< Golden output is not a subsequence of the crash
                  ///< run's output (re-execution may replay out-writes —
                  ///< at-least-once semantics — but never alter them).
  RunError,       ///< The crash-injected run itself failed (stalled
                  ///< boots, WAR abort, out-of-bounds access, ...).
};

const char *divergenceKindName(DivergenceKind K);

struct Divergence {
  uint64_t CrashCycle = 0;   ///< Injected on-period budget (active cycles).
  uint64_t MinimalCycle = 0; ///< Earliest diverging budget found by
                             ///< bisection (== CrashCycle when disabled).
  /// Id of the last checkpoint the golden run committed before the
  /// minimal crash point (-1: crash precedes every commit).
  int RegionId = -1;
  DivergenceKind Kind = DivergenceKind::NvmMismatch;
  std::string Detail;          ///< Kind-specific one-liner.
  std::vector<AddrDiff> Addrs; ///< First few diverging NVM bytes.
  /// Golden-run instructions surrounding the minimal crash point.
  std::vector<std::string> Window;
};

struct CrashReport {
  /// The campaign ran: the golden run completed. (A dirty campaign —
  /// divergences found — still has Ok == true; see clean().)
  bool Ok = false;
  std::string Error; ///< Set when !Ok.

  // Caller-provided metadata, echoed into format().
  std::string Workload;
  std::string Config;
  std::string Mode;

  uint64_t GoldenCycles = 0;  ///< Golden run length (== active cycles).
  uint64_t GoldenCommits = 0; ///< Checkpoints the golden run committed.
  int32_t GoldenReturn = 0;
  unsigned CandidatePoints = 0; ///< Crash points the mode generated.
  unsigned PointsTested = 0;    ///< After any deterministic cap.
  unsigned EmulationsRun = 0;   ///< Including golden + bisection probes.
  std::vector<Divergence> Divergences;

  // Campaign-engine statistics, shared across the reports of one combined
  // runCrashCampaigns() call. EmulationsRun above stays the *logical*
  // per-mode count (so format() is byte-stable across engine changes);
  // these record what the snapshot/replay engine actually executed.
  unsigned UnionPoints = 0;  ///< Distinct crash points fanned out.
  unsigned SharedPoints = 0; ///< Duplicate mode points collapsed away.
  unsigned PhysicalRuns = 0; ///< Emulator executions incl. golden/probes.
  unsigned ResumedRuns = 0;  ///< Runs that started from a snapshot.
  unsigned SplicedRuns = 0;  ///< Runs that adopted the golden tail.
  unsigned Snapshots = 0;    ///< Snapshots the golden recording took.
  size_t SnapshotBytes = 0;  ///< Chain footprint (journal + final copy).

  bool clean() const { return Ok && Divergences.empty(); }

  /// Multi-line human-readable report (stable across runs: everything in
  /// it is deterministic).
  std::string format() const;
};

} // namespace wario::verify

#endif // WARIO_VERIFY_CRASHREPORT_H
