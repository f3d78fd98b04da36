#include "Harness.h"

#include "emu/Snapshot.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

using namespace wario;
using namespace wario::bench;

//===----------------------------------------------------------------------===//
// --timing accumulator
//===----------------------------------------------------------------------===//

namespace {

/// Process-wide stage accounting: seconds actually spent computing each
/// stage and how often each staged store answered from cache. Printed to
/// stderr on exit when --timing was passed (stdout stays byte-identical).
struct HarnessTiming {
  std::mutex M;
  double Seconds[6] = {0, 0, 0, 0, 0, 0}; // frontend..emulate, clone.
  unsigned Runs[6] = {0, 0, 0, 0, 0, 0};
  unsigned Hits[4] = {0, 0, 0, 0}; // front, mid, compile, run stores.
  bool Enabled = false;
};

enum Stage { StFrontend, StFrontHalf, StMiddleEnd, StBackend, StEmulate,
             StClone };
enum Store { CaFront, CaMid, CaCompile, CaRun };

HarnessTiming &timing() {
  static HarnessTiming T;
  return T;
}

void addStage(Stage S, double Seconds) {
  HarnessTiming &T = timing();
  std::lock_guard<std::mutex> Lock(T.M);
  T.Seconds[S] += Seconds;
  T.Runs[S] += 1;
}

void addHits(Store S, unsigned N) {
  if (!N)
    return;
  HarnessTiming &T = timing();
  std::lock_guard<std::mutex> Lock(T.M);
  T.Hits[S] += N;
}

Stage stageFor(serve::CacheStage S) {
  switch (S) {
  case serve::CacheStage::Frontend: return StFrontend;
  case serve::CacheStage::FrontHalf: return StFrontHalf;
  case serve::CacheStage::MiddleEnd: return StMiddleEnd;
  case serve::CacheStage::Backend: return StBackend;
  case serve::CacheStage::Emulate: return StEmulate;
  case serve::CacheStage::Clone: return StClone;
  }
  return StFrontend;
}

void printTimingSummary() {
  HarnessTiming &T = timing();
  std::lock_guard<std::mutex> Lock(T.M);
  static const char *StageNames[6] = {"frontend",  "front half",
                                      "middle end", "backend",
                                      "emulate",    "clone"};
  static const int HitStore[6] = {CaFront, CaFront, CaMid, CaCompile,
                                  CaRun, -1};
  double Total = 0;
  std::fprintf(stderr, "\n-- wario --timing: per-stage wall clock "
                       "(computed once, reused from cache) --\n");
  std::fprintf(stderr, "%-12s %8s %8s %10s\n", "stage", "runs", "hits",
               "seconds");
  for (int S = 0; S != 6; ++S) {
    char Hits[16] = "-";
    if (HitStore[S] >= 0)
      std::snprintf(Hits, sizeof(Hits), "%u", T.Hits[HitStore[S]]);
    std::fprintf(stderr, "%-12s %8u %8s %10.3f\n", StageNames[S],
                 T.Runs[S], Hits, T.Seconds[S]);
    Total += T.Seconds[S];
  }
  std::fprintf(stderr, "%-12s %8s %8s %10.3f\n", "total", "", "", Total);
}

} // namespace

void wario::bench::initHarness(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--timing") == 0) {
      timing().Enabled = true;
      std::atexit(printTimingSummary);
    }
  }
}

//===----------------------------------------------------------------------===//
// Cells and the uncached reference path
//===----------------------------------------------------------------------===//

MatrixCell wario::bench::cell(const std::string &Workload, Environment Env,
                              unsigned UnrollFactor) {
  MatrixCell C;
  C.Workload = Workload;
  C.PO.Env = Env;
  C.PO.UnrollFactor = UnrollFactor;
  return C;
}

bool wario::bench::strategiesEnabled() {
  const char *E = std::getenv("WARIO_STRATEGIES");
  return E && std::strcmp(E, "1") == 0;
}

MatrixCell wario::bench::strategyCell(const std::string &Workload,
                                      CheckpointStrategy S,
                                      unsigned UnrollFactor) {
  MatrixCell C = cell(Workload, Environment::WarioComplete, UnrollFactor);
  C.PO.Strat = S;
  return C;
}

const char *wario::bench::strategyColName(CheckpointStrategy S) {
  switch (S) {
  case CheckpointStrategy::Idempotent: return "wario";
  case CheckpointStrategy::Differential: return "wario-diff";
  case CheckpointStrategy::Speculative: return "wario-spec";
  }
  return "?";
}

namespace {

/// The harness's hard failure policy: experiment regenerators have no use
/// for partial data. The staged cache stores failures as data (the daemon
/// turns them into error replies); here any cached error aborts the
/// process.
void checkRunOrDie(const EmulatorResult &R, const std::string &Workload,
                   const PipelineOptions &PO) {
  if (!R.Ok) {
    std::fprintf(stderr, "emulation failure on %s @ %s: %s\n",
                 Workload.c_str(), environmentName(PO.Env),
                 R.Error.c_str());
    std::exit(1);
  }
  if (PO.Env != Environment::PlainC && R.WarViolations != 0) {
    std::fprintf(stderr, "WAR violations on %s @ %s\n", Workload.c_str(),
                 environmentName(PO.Env));
    std::exit(1);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// The staged store: serve::StagedCache + snapshot-chain reuse
//===----------------------------------------------------------------------===//

namespace {

/// Snapshot chains are shared between a continuous-power cell (which
/// records while it runs — see Emulator::record) and its power-schedule
/// siblings (which resume from the governing snapshot of their first
/// on-period — see Emulator::replay). The key is the cell configuration
/// with the power schedule erased: two cells agree on it exactly when
/// the recorded chain is compatible with the sibling's replay.
struct ChainKey {
  std::string Workload;
  PipelineOptions PO;
  EmulatorOptions EO; ///< Power normalized to continuous.
  auto operator<=>(const ChainKey &) const = default;
};

/// A recorded golden run: the pre-decoded Emulator plus its snapshot
/// chain. The emulator borrows the machine module from the compile-level
/// entry, so the artifact pins that entry — the staged cache may evict
/// it at any time, and shared ownership is what keeps replays valid.
struct ChainArtifact {
  std::shared_ptr<const serve::CompileResult> CR;
  Emulator E;
  SnapshotChain Chain;
  explicit ChainArtifact(std::shared_ptr<const serve::CompileResult> C)
      : CR(std::move(C)), E(CR->MM) {}
};

/// A chain slot: filled exactly once by the recording thread; replayers
/// peek non-blockingly (tryGet) so scheduling can only change the wall
/// clock, never the data.
struct ChainSlot {
  std::mutex M;
  bool Ready = false;
  std::shared_ptr<const ChainArtifact> Val;

  void publish(std::shared_ptr<const ChainArtifact> Value) {
    std::lock_guard<std::mutex> Lock(M);
    Val = std::move(Value);
    Ready = true;
  }
  std::shared_ptr<const ChainArtifact> tryGet() {
    std::lock_guard<std::mutex> Lock(M);
    return Ready ? Val : nullptr;
  }
};

} // namespace

struct ResultCache::Impl {
  // Chain store first, cache last: the cache's Emulate hook reads the
  // chain store, so it must be destroyed before the store it points at.
  std::mutex ChainMutex;
  std::map<ChainKey, std::shared_ptr<ChainSlot>> Chains;
  serve::StagedCache Cache;

  explicit Impl(size_t ByteBudget) : Cache(config(ByteBudget)) {}

  serve::CacheConfig config(size_t ByteBudget) {
    serve::CacheConfig C;
    C.ByteBudget = ByteBudget;
    C.OnStage = [](serve::CacheStage S, double Seconds) {
      addStage(stageFor(S), Seconds);
    };
    C.OnHit = [](serve::CacheLevel L, uint64_t N) {
      addHits(Store(L), unsigned(N));
    };
    C.Emulate = [this](const std::shared_ptr<const serve::CompileResult> &CR,
                       const serve::CacheRequest &R,
                       const EmulatorOptions &EO) {
      return emulateCell(CR, R, EO);
    };
    return C;
  }

  /// Cell emulation with snapshot reuse: a continuous-power cell records
  /// a chain as a free by-product of its own run; a power-schedule
  /// sibling resumes from the governing snapshot of its first on-period
  /// instead of re-executing the shared continuous prefix from boot.
  /// Results are byte-identical to plain emulate() on every path.
  EmulatorResult
  emulateCell(const std::shared_ptr<const serve::CompileResult> &CR,
              const serve::CacheRequest &Req, const EmulatorOptions &EO) {
    if (!snapshotsEnabled())
      return emulate(CR->MM, EO);
    ChainKey K{Req.Workload, Req.PO, EO};
    K.EO.Power = PowerSchedule::continuous();
    if (EO.Power.isContinuous()) {
      std::shared_ptr<ChainSlot> S;
      bool Mine = false;
      {
        std::lock_guard<std::mutex> Lock(ChainMutex);
        auto [It, Inserted] = Chains.try_emplace(K);
        if (Inserted)
          It->second = std::make_shared<ChainSlot>();
        S = It->second;
        Mine = Inserted;
      }
      if (!Mine) // Identical cells dedupe upstream in the run store.
        return emulate(CR->MM, EO);
      auto A = std::make_shared<ChainArtifact>(CR);
      EmulatorResult R = A->E.record(EO, SnapshotSchedule{}, A->Chain);
      S->publish(A->Chain.valid()
                     ? std::shared_ptr<const ChainArtifact>(std::move(A))
                     : nullptr);
      return R;
    }
    std::shared_ptr<ChainSlot> S;
    {
      std::lock_guard<std::mutex> Lock(ChainMutex);
      auto It = Chains.find(K);
      if (It != Chains.end())
        S = It->second;
    }
    if (S) {
      if (std::shared_ptr<const ChainArtifact> A = S->tryGet()) {
        ReplayPlan Plan;
        Plan.Chain = &A->Chain;
        return A->E.replay(EO, Plan);
      }
    }
    return emulate(CR->MM, EO);
  }

  std::shared_ptr<const RunResult> runChecked(const MatrixCell &C) {
    std::shared_ptr<const RunResult> R =
        Cache.run({/*Tenant=*/"", C.Workload, C.PO, C.EO});
    if (!R->Error.empty()) {
      std::fprintf(stderr, "%s\n", R->Error.c_str());
      std::exit(1);
    }
    checkRunOrDie(R->Emu, C.Workload, C.PO);
    return R;
  }
};

// Out of line: Impl must be complete where the maps are destroyed.
ResultCache::ResultCache(size_t ByteBudget)
    : I(std::make_unique<Impl>(ByteBudget)) {}
ResultCache::~ResultCache() = default;

std::vector<std::shared_ptr<const RunResult>>
ResultCache::runMatrix(const std::vector<MatrixCell> &Cells) {
  // One parallel sweep; the staged store dedupes internally (cells with
  // one key compute once, duplicates block on the producing slot, and
  // cells sharing a stage artifact build that stage exactly once).
  std::vector<std::shared_ptr<const RunResult>> Out(Cells.size());
  parallelFor(Cells.size(),
              [&](size_t J) { Out[J] = I->runChecked(Cells[J]); });
  return Out;
}

std::shared_ptr<const RunResult> ResultCache::run(const MatrixCell &Cell) {
  return I->runChecked(Cell);
}

std::shared_ptr<const CompileResult>
ResultCache::compileCell(const std::string &Workload,
                         const PipelineOptions &PO) {
  std::shared_ptr<const CompileResult> R =
      I->Cache.compileCell({/*Tenant=*/"", Workload, PO, {}});
  if (!R->Error.empty()) {
    std::fprintf(stderr, "%s\n", R->Error.c_str());
    std::exit(1);
  }
  return R;
}

serve::CacheCounters ResultCache::counters() const {
  return I->Cache.counters();
}

namespace {

/// Budget for the process-lifetime cache. A full paper matrix holds a
/// few hundred run results dominated by their 1 MiB final-memory images;
/// 512 MiB keeps every regenerator's working set resident while bounding
/// a long-lived process (set WARIO_CACHE_BYTES=0 to disable eviction).
size_t globalCacheBudget() {
  if (const char *E = std::getenv("WARIO_CACHE_BYTES"))
    return std::strtoull(E, nullptr, 10);
  return size_t(512) << 20;
}

} // namespace

ResultCache &wario::bench::globalCache() {
  static ResultCache Cache(globalCacheBudget());
  return Cache;
}

std::vector<std::shared_ptr<const RunResult>>
wario::bench::runMatrix(const std::vector<MatrixCell> &Cells) {
  return globalCache().runMatrix(Cells);
}

std::shared_ptr<const RunResult>
wario::bench::cachedRun(const std::string &Name, Environment Env) {
  return globalCache().run(cell(Name, Env));
}

//===----------------------------------------------------------------------===//
// Formatting
//===----------------------------------------------------------------------===//

void wario::bench::printRow(const std::string &Head,
                            const std::vector<std::string> &Vals,
                            int Width0, int Width) {
  std::printf("%-*s", Width0, Head.c_str());
  for (const std::string &V : Vals)
    std::printf("%*s", Width, V.c_str());
  std::printf("\n");
}

std::string wario::bench::fmt2(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f", V);
  return Buf;
}

std::string wario::bench::fmtPct(double V, bool ForceSign) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), ForceSign ? "%+.1f%%" : "%.1f%%", V);
  return Buf;
}

const char *wario::bench::shortEnvName(Environment E) {
  switch (E) {
  case Environment::PlainC: return "plain-c";
  case Environment::Ratchet: return "ratchet";
  case Environment::RPDG: return "r-pdg";
  case Environment::EpilogOnly: return "epilog-opt";
  case Environment::WriteClustererOnly: return "write-cl";
  case Environment::LoopWriteClustererOnly: return "loop-cl";
  case Environment::WarioComplete: return "wario";
  case Environment::WarioExpander: return "wario+exp";
  }
  return "?";
}
