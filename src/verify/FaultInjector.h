//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-consistency fault-injection engine.
///
/// WARio's correctness claim is that the inserted checkpoints make every
/// region idempotent: a power failure at *any* cycle must re-execute to
/// the same NVM end state and program output as an uninterrupted run
/// (the memory-consistency property formalized by Surbatovich et al.).
/// The emulator's WAR monitor checks a sufficient static condition at
/// runtime; this engine checks the property itself, adversarially:
///
///  1. run the module once under continuous power with the event trace
///     enabled — the *golden* run (end state, output, return value, and
///     the cycle stamps of every checkpoint commit and NVM store);
///  2. pick crash points (active-cycle budgets) per campaign mode, then
///     deduplicate them across the requested modes:
///       - RegionBoundaries: immediately before and immediately after
///         every checkpoint commit (exhaustive over region boundaries);
///       - Stratified: N seeded, deterministic samples, one per equal
///         stratum of the golden cycle range;
///       - Adversarial: immediately before every commit and immediately
///         after every NVM store (where a WAR write has just landed);
///  3. re-run once per distinct point with a power schedule that fails
///     exactly there and then stays up, fanned out with parallelFor
///     (src/support/Parallel.h; FaultInjectorOptions::Jobs, WARIO_JOBS
///     honored);
///  4. differentially compare each run against the golden run — final
///     NVM image (minus the ckpt scratch range), return value, and
///     output (golden must be a subsequence of the crash run's output:
///     re-execution may replay out-writes but never alter them);
///  5. on divergence, bisect down to the earliest crash budget that
///     still diverges and emit a structured CrashReport naming the
///     region, the diverging addresses, and the golden instruction
///     window around the minimal crash point.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_VERIFY_FAULTINJECTOR_H
#define WARIO_VERIFY_FAULTINJECTOR_H

#include "emu/Emulator.h"
#include "verify/CrashReport.h"

namespace wario::verify {

enum class CampaignMode {
  RegionBoundaries, ///< Exhaustive over checkpoint-commit boundaries.
  Stratified,       ///< Seeded uniform sample per equal cycle stratum.
  Adversarial,      ///< Pre-commit + post-NVM-store placement.
};

const char *campaignModeName(CampaignMode M);

struct FaultInjectorOptions {
  /// Stratified mode: number of strata (= samples over the cycle range).
  unsigned Samples = 64;
  /// Stratified mode: RNG seed; equal seeds give identical crash points.
  uint32_t Seed = 0x5EED;
  /// Deterministic cap on tested points (0 = untested-point count is
  /// unbounded). When a mode generates more candidates, an evenly-strided
  /// subset is kept and the report records candidates vs tested.
  unsigned MaxPoints = 2048;
  /// Base emulator configuration for the golden and the injected runs.
  /// Power must be continuous (the injector owns the schedule); set
  /// WarIsFatal = false when campaigning against a deliberately weakened
  /// build (PipelineOptions::ResolveMiddleEndWars = false).
  EmulatorOptions BaseEO;
  std::string Entry = "main";
  /// Bisect each divergence to the earliest diverging crash budget.
  bool Bisect = true;
  /// Worker threads for the campaign fan-out (0 = WARIO_JOBS / cores).
  unsigned Jobs = 0;
  /// Use the emulator's snapshot/restore engine (src/emu/Snapshot.h):
  /// record a snapshot chain during the golden run, resume each injected
  /// run from the governing snapshot of its crash budget, and splice the
  /// golden tail once the post-crash state reconverges. Reports are
  /// byte-identical either way; this only trades wall-clock for memory.
  bool UseSnapshots = true;
  /// Metadata echoed into the report.
  std::string Workload;
  std::string Config;
};

/// Runs one fault-injection campaign over \p MM per entry of \p Modes,
/// all over a single shared golden run, deduplicating crash points
/// across modes before the fan-out (adversarial pre-commit/post-store
/// points frequently coincide with exhaustive region-boundary points;
/// each distinct point is injected once). Deterministic: equal modules
/// and options produce byte-identical reports regardless of Jobs, and
/// each returned report is byte-identical to the one a call with that
/// mode alone returns — the dedup savings appear only in the campaign
/// statistics (UnionPoints/SharedPoints/PhysicalRuns).
std::vector<CrashReport> runCrashCampaigns(const MModule &MM,
                                           const FaultInjectorOptions &Opts,
                                           const std::vector<CampaignMode> &Modes);

} // namespace wario::verify

#endif // WARIO_VERIFY_FAULTINJECTOR_H
