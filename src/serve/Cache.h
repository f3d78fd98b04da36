//===----------------------------------------------------------------------===//
///
/// \file
/// The shared multi-tenant staged result cache behind both the serving
/// daemon (src/serve/Server.h) and the experiment harness
/// (bench/Harness.h). Promoted out of bench/Harness.cpp so one resident
/// process can amortize compilation artifacts across heavy multi-client
/// traffic — the DietCode serving-compiler shape: a store keyed by
/// canonicalized compile configurations.
///
/// Three stored levels, each keyed by the option values themselves
/// (defaulted <=> over every field, so any option difference is a key
/// difference):
///
///   front    frontend + front half     per (tenant, workload)
///   compile  machine module            per (tenant, workload, PipelineOptions)
///   run      emulation result          per (tenant, workload, PO, EmulatorOptions)
///
/// A compile-level miss clones the front-level module, runs the middle
/// end and the back end on the clone and drops it. No middle-end module
/// is stored: only environments sharing a middle end (R-PDG and the
/// epilog optimizer) could reuse one, few request streams ask for both,
/// and each would hold a whole module in the byte budget. The middle end
/// keeps a counter level of its own (LevelMid), booked one miss per run
/// and never a hit, so every consumer of the counters still sees how
/// often it ran.
///
/// A run-level miss is one plain emulate() of the compiled module, for
/// the daemon and the harness alike: no snapshot chain is recorded or
/// replayed here (snapshots pay only in crash campaigns, DESIGN.md §7.6).
/// It then hashes the result's final NVM image and region sizes into
/// RunResult's reply digest, outside the emulate timer and before
/// publishing, failures included, so a run-level hit costs a lookup and
/// a copy, never a hash.
///
/// Tenancy: every key carries the requesting tenant's namespace, so two
/// tenants submitting identical options get distinct entries and can
/// never observe each other's cache state (not even as a hit/miss timing
/// difference).
///
/// Eviction: entries across all three levels share one LRU list and one
/// byte budget (0 = unbounded). Publishing an entry accounts its
/// approximate footprint and evicts least-recently-used entries until
/// the total fits the budget again; the most-recently-used entry is
/// never evicted, so a single oversized artifact still serves. Values
/// are handed out as shared_ptr, which makes eviction safe by
/// construction: holders keep their artifact alive, the cache merely
/// forgets it (a later lookup recomputes — results are pure functions
/// of the key, so recomputation is invisible except to the wall clock).
///
/// Concurrency: a slot is filled exactly once by the thread that claimed
/// it; concurrent requesters of the same key block on the slot and count
/// as hits. Hit/miss/eviction counters per level are exposed through
/// counters(), the daemon's `stats` request and the harness's --timing
/// table.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_SERVE_CACHE_H
#define WARIO_SERVE_CACHE_H

#include "driver/Pipeline.h"
#include "emu/Emulator.h"

#include <memory>
#include <string>

namespace wario::serve {

/// Everything one (workload, pipeline, emulator) request produces. On
/// failure (unknown workload, frontend diagnostics, emulation error)
/// Error is non-empty and Emu.Ok is false; failures are cached like
/// successes — they are just as deterministic, and negative caching
/// keeps a misbehaving client from re-running the frontend per request.
struct RunResult {
  PipelineStats Pipeline;
  EmulatorResult Emu;
  unsigned TextBytes = 0;
  std::string Error;
  /// The reply digest (serve/Protocol.h): fnv1a over Emu.FinalMemory and
  /// fnv1aU64s over Emu.RegionSizes. The run level computes it once,
  /// before it publishes the result, so a hit's reply copies it instead
  /// of rehashing 1 MiB of image and every region size. A RunResult
  /// built outside the cache must set it itself.
  uint64_t MemHash = 0;
  uint64_t RegionHash = 0;
};

/// A compiled cell before emulation: what the compile level stores.
/// Requests differing only in emulator options share one CompileResult.
struct CompileResult {
  MModule MM;
  PipelineStats Pipeline;
  unsigned TextBytes = 0;
  std::string Error;
};

/// One cache request: a tenant's workload compiled under a full pipeline
/// configuration and emulated under an emulator configuration. The
/// daemon's RunRequest is this type (serve/Protocol.h).
struct CacheRequest {
  std::string Tenant; ///< Namespace; "" is the default tenant.
  std::string Workload;
  PipelineOptions PO;
  EmulatorOptions EO;
  bool operator==(const CacheRequest &) const = default;
};

/// The counter levels, in dependency order (indexes into the counter
/// arrays below). LevelMid stores nothing: it counts middle-end runs as
/// misses and never hits.
enum CacheLevel : unsigned {
  LevelFront = 0,
  LevelMid = 1,
  LevelCompile = 2,
  LevelRun = 3,
  NumCacheLevels = 4,
};

/// Which levels answered from cache for one request. A level not
/// consulted (e.g. the compile level under a run-level hit) stays false.
/// MidHit is never set (no middle-end module is stored); it keeps its
/// wire bit so the reply format does not change.
struct Provenance {
  bool FrontHit = false;
  bool MidHit = false;
  bool CompileHit = false;
  bool RunHit = false;

  /// Wire form: bit 0 = front .. bit 3 = run.
  uint8_t bits() const {
    return uint8_t(FrontHit) | uint8_t(MidHit) << 1 |
           uint8_t(CompileHit) << 2 | uint8_t(RunHit) << 3;
  }
  static Provenance fromBits(uint8_t B) {
    return Provenance{(B & 1) != 0, (B & 2) != 0, (B & 4) != 0,
                      (B & 8) != 0};
  }
  bool operator==(const Provenance &) const = default;
};

/// \p S with the seconds of every stage \p P says came from cache zeroed:
/// what the request behind \p P actually spent. A hit at one level
/// answers that level's stage and every stage below it (frontend and
/// front half sit at the front level, emulate at the run level).
PipelineStats computedStages(const PipelineStats &S, Provenance P);

/// Snapshot of the cache's accounting, per level and in bytes.
struct CacheCounters {
  uint64_t Hits[NumCacheLevels] = {};
  uint64_t Misses[NumCacheLevels] = {};
  uint64_t Evictions[NumCacheLevels] = {};
  uint64_t BytesUsed = 0;    ///< Approximate bytes of resident entries.
  uint64_t ByteBudget = 0;   ///< Configured budget (0 = unbounded).
  uint64_t BytesEvicted = 0; ///< Cumulative bytes reclaimed.
  uint64_t Entries = 0;      ///< Resident (published) entries.
  bool operator==(const CacheCounters &) const = default;
};

struct CacheConfig {
  /// Byte budget shared by all three stored levels; 0 = never evict.
  size_t ByteBudget = 0;
};

/// The emulator options a request actually runs under: PlainC builds
/// carry no checkpoints, so WAR "violations" are expected and non-fatal
/// there. Shared by the cache, the soak test's cold-recompute oracle
/// and perfbench.
EmulatorOptions effectiveOptions(const PipelineOptions &PO,
                                 const EmulatorOptions &EO);

/// Deduplicating, mutex-guarded, staged, byte-budgeted store. Thread
/// safe; see the file comment for the slot/eviction contract.
class StagedCache {
public:
  explicit StagedCache(CacheConfig Config = {});
  ~StagedCache();
  StagedCache(const StagedCache &) = delete;
  StagedCache &operator=(const StagedCache &) = delete;

  /// Full lookup-or-compute through all three stored levels.
  std::shared_ptr<const RunResult> run(const CacheRequest &R,
                                       Provenance *Prov = nullptr);

  /// Compile-level lookup-or-compute (no emulation); R.EO is ignored.
  std::shared_ptr<const CompileResult> compileCell(const CacheRequest &R,
                                                   Provenance *Prov = nullptr);

  CacheCounters counters() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace wario::serve

#endif // WARIO_SERVE_CACHE_H
