//===----------------------------------------------------------------------===//
///
/// \file
/// Shared harness for the experiment regenerators: compiles each
/// (workload, environment, unroll-factor) cell, runs the emulator, and
/// caches results behind one deduplicating, thread-safe store so every
/// Fig/Table regenerator shares a single parallel sweep (runMatrix).
///
/// The store itself is serve::StagedCache (src/serve/Cache.h) — the same
/// staged cache behind the wario-served daemon (front, compile and run
/// levels stored; middle-end runs counted, not stored), promoted out of
/// this harness; every cell emulates with plain emulate(), exactly as a
/// daemon request does. This wrapper adds the pieces only regenerators
/// want:
///
///  - a hard failure policy (regenerators have no use for partial data,
///    so any cached error aborts the process with a message),
///  - the --timing table (initHarness): the store's per-level misses and
///    hits beside the seconds each request actually computed
///    (serve::computedStages).
///
/// Snapshot chains are not used here: a same-run A/B found that
/// recording one per continuous-power cell, so that table3's
/// power-schedule cells could resume from it, cost more than it saved
/// (DESIGN.md §7.6).
///
/// Results come back as shared_ptr: entries stay valid for as long as a
/// caller holds them even if the cache evicts (globalCache() runs under
/// a byte budget — WARIO_CACHE_BYTES, default 512 MiB; a fresh
/// ResultCache defaults to unbounded).
///
/// Every cache key is derived from the actual PipelineOptions /
/// EmulatorOptions field values. (An earlier revision keyed on
/// (workload, env, unroll) plus a caller-provided string tag; forgetting
/// the tag silently deduped distinct cells against the default
/// configuration. Option-derived keys make that collision impossible.)
///
/// Also provides the table formatting used across all paper
/// figures/tables.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_BENCH_HARNESS_H
#define WARIO_BENCH_HARNESS_H

#include "serve/Cache.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace wario::bench {

/// Everything one (workload, environment) run produces. Shared with the
/// serving daemon; the harness's failure policy guarantees Error is
/// empty on every result it hands out.
using RunResult = serve::RunResult;

/// A compiled cell before emulation: what the compile-level cache stores.
/// Cells differing only in emulator options share one CompileResult.
using CompileResult = serve::CompileResult;

/// One cell of the experiment matrix: a workload compiled under a full
/// pipeline configuration and emulated under a power/interrupt
/// configuration. The cache keys on every field of PO and EO — two cells
/// that differ in *any* option never share a result entry.
struct MatrixCell {
  std::string Workload;
  PipelineOptions PO;
  EmulatorOptions EO;
};

/// Convenience: the default cell for (workload, environment, unroll).
MatrixCell cell(const std::string &Workload, Environment Env,
                unsigned UnrollFactor = 8);

/// True when WARIO_STRATEGIES=1: the regenerators append the wario-diff
/// and wario-spec checkpoint-strategy columns (docs/STRATEGIES.md). Off
/// by default so golden outputs stay byte-identical to the strategy-free
/// matrix.
bool strategiesEnabled();

/// The default cell for a non-idempotent checkpoint strategy: the full
/// WARio pipeline (Env = WarioComplete) with the strategy axis set.
MatrixCell strategyCell(const std::string &Workload, CheckpointStrategy S,
                        unsigned UnrollFactor = 8);

/// Column-friendly strategy names ("wario-diff", "wario-spec").
const char *strategyColName(CheckpointStrategy S);

/// Deduplicating, mutex-guarded, staged store of compilation artifacts
/// and run results. runMatrix computes all missing cells concurrently
/// (parallelFor over defaultJobs() workers — override the width with
/// WARIO_JOBS); cells already present, or duplicated within one call, are
/// computed exactly once, and cells sharing a stage artifact compute that
/// stage exactly once. Returned pointers stay valid for as long as the
/// caller holds them (shared ownership survives eviction).
class ResultCache {
public:
  /// \p ByteBudget bounds the resident artifact footprint across the
  /// three stored cache levels (0 = unbounded; evicted entries recompute
  /// on the next request).
  explicit ResultCache(size_t ByteBudget = 0);

  /// Computes every not-yet-cached cell in parallel and returns the
  /// results in cell order.
  std::vector<std::shared_ptr<const RunResult>>
  runMatrix(const std::vector<MatrixCell> &Cells);

  /// Single-cell lookup-or-compute.
  std::shared_ptr<const RunResult> run(const MatrixCell &Cell);

  /// Compile-level lookup-or-compute (no emulation); for code-size
  /// measurements and crash campaigns.
  std::shared_ptr<const CompileResult>
  compileCell(const std::string &Workload, const PipelineOptions &PO);

  /// Hit/miss/eviction and byte accounting of the underlying store.
  serve::CacheCounters counters() const;

private:
  serve::StagedCache Cache;
};

/// The process-lifetime cache shared by all regenerators, bounded by
/// WARIO_CACHE_BYTES (default 512 MiB, 0 = unbounded).
ResultCache &globalCache();

/// Prewarms the global cache for \p Cells in one parallel sweep and
/// returns the results in cell order.
std::vector<std::shared_ptr<const RunResult>>
runMatrix(const std::vector<MatrixCell> &Cells);

/// Process-lifetime cache of continuous-power runs (a view over
/// globalCache()).
std::shared_ptr<const RunResult> cachedRun(const std::string &Workload,
                                           Environment Env);

/// Regenerator entry hook: parses harness flags. `--timing` prints a
/// per-stage summary to stderr when the process exits: runs and hits are
/// globalCache()'s per-level misses and hits, seconds the stages the
/// harness's requests actually computed summed over workers, and a last
/// `wall` line the steady clock since this call (stdout stays
/// byte-identical either way).
void initHarness(int argc, char **argv);

/// Prints an aligned row: first column \p Width0 wide, then each value
/// right-aligned to \p Width.
void printRow(const std::string &Head, const std::vector<std::string> &Vals,
              int Width0 = 22, int Width = 12);

/// Formats "x.xx" / "+x.x%" style numbers.
std::string fmt2(double V);
std::string fmtPct(double V, bool ForceSign = false);

/// Column-friendly short environment names.
const char *shortEnvName(Environment E);

} // namespace wario::bench

#endif // WARIO_BENCH_HARNESS_H
