#include "Harness.h"

#include "support/ThreadPool.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>

using namespace wario;
using namespace wario::bench;

//===----------------------------------------------------------------------===//
// --timing
//===----------------------------------------------------------------------===//

namespace {

/// Seconds each stage actually took, summed over every request the
/// harness made while --timing is on (serve::computedStages: a stage
/// answered from cache adds nothing), so over all workers at once. The
/// runs and hits columns are the global cache's own per-level misses and
/// hits. Crash campaigns emulate outside the staged cache; timedCampaign
/// books each call and its wall seconds. The wall line is the steady
/// clock from initHarness to the summary.
struct StageSeconds {
  std::mutex M;
  PipelineStats Sum; ///< Only the *Seconds fields are summed.
  unsigned long long Campaigns = 0;
  double CampaignSeconds = 0;
  bool Enabled = false;
  std::chrono::steady_clock::time_point Start;
};

StageSeconds &stageSeconds() {
  static StageSeconds T;
  return T;
}

void addComputed(const PipelineStats &S, serve::Provenance P) {
  StageSeconds &T = stageSeconds();
  if (!T.Enabled)
    return;
  PipelineStats C = serve::computedStages(S, P);
  std::lock_guard<std::mutex> Lock(T.M);
  T.Sum.FrontendSeconds += C.FrontendSeconds;
  T.Sum.FrontHalfSeconds += C.FrontHalfSeconds;
  T.Sum.MiddleEndSeconds += C.MiddleEndSeconds;
  T.Sum.BackendSeconds += C.BackendSeconds;
  T.Sum.EmulateSeconds += C.EmulateSeconds;
}

void printTimingSummary() {
  serve::CacheCounters C = globalCache().counters();
  StageSeconds &T = stageSeconds();
  std::lock_guard<std::mutex> Lock(T.M);
  const struct {
    const char *Name;
    serve::CacheLevel Level;
    double Seconds;
  } Rows[] = {
      {"frontend", serve::LevelFront, T.Sum.FrontendSeconds},
      {"front half", serve::LevelFront, T.Sum.FrontHalfSeconds},
      {"middle end", serve::LevelMid, T.Sum.MiddleEndSeconds},
      {"backend", serve::LevelCompile, T.Sum.BackendSeconds},
      {"emulate", serve::LevelRun, T.Sum.EmulateSeconds},
  };
  double Total = 0;
  std::fprintf(stderr, "\n-- wario --timing: staged-cache stages, seconds "
                       "summed over workers; crash campaigns, wall seconds "
                       "per call --\n");
  std::fprintf(stderr, "%-12s %8s %8s %10s\n", "stage", "runs", "hits",
               "seconds");
  for (const auto &R : Rows) {
    std::fprintf(stderr, "%-12s %8llu %8llu %10.3f\n", R.Name,
                 (unsigned long long)C.Misses[R.Level],
                 (unsigned long long)C.Hits[R.Level], R.Seconds);
    Total += R.Seconds;
  }
  std::fprintf(stderr, "%-12s %8llu %8s %10.3f\n", "campaigns", T.Campaigns,
               "", T.CampaignSeconds);
  Total += T.CampaignSeconds;
  std::fprintf(stderr, "%-12s %8s %8s %10.3f\n", "total", "", "", Total);
  std::fprintf(stderr, "%-12s %8s %8s %10.3f\n", "wall", "", "",
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - T.Start)
                   .count());
}

} // namespace

void wario::bench::initHarness(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--timing") == 0) {
      stageSeconds().Enabled = true;
      stageSeconds().Start = std::chrono::steady_clock::now();
      // Construct the cache first so it outlives the exit-time summary
      // (statics are destroyed before the atexit handlers registered
      // ahead of their construction run).
      globalCache();
      std::atexit(printTimingSummary);
    }
  }
}

void wario::bench::timedCampaign(const std::function<void()> &Campaign) {
  double Seconds = 0;
  {
    StageTimer Timer(Seconds);
    Campaign();
  }
  StageSeconds &T = stageSeconds();
  std::lock_guard<std::mutex> Lock(T.M);
  ++T.Campaigns;
  T.CampaignSeconds += Seconds;
}

//===----------------------------------------------------------------------===//
// Cells
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
// The staged store
//===----------------------------------------------------------------------===//

ResultCache::ResultCache(size_t ByteBudget)
    : Cache(serve::CacheConfig{ByteBudget}) {}

std::vector<std::shared_ptr<const RunResult>>
ResultCache::runMatrix(const std::vector<MatrixCell> &Cells) {
  // One parallel sweep; the staged store dedupes internally (cells with
  // one key compute once, duplicates block on the producing slot, and
  // cells sharing a stage artifact build that stage exactly once).
  std::vector<std::shared_ptr<const RunResult>> Out(Cells.size());
  parallelFor(Cells.size(), [&](size_t J) { Out[J] = run(Cells[J]); });
  return Out;
}

std::shared_ptr<const RunResult> ResultCache::run(const MatrixCell &Cell) {
  serve::Provenance Prov;
  std::shared_ptr<const RunResult> R =
      Cache.run({/*Tenant=*/"", Cell.Workload, Cell.PO, Cell.EO}, &Prov);
  addComputed(R->Pipeline, Prov);
  if (!R->Error.empty()) {
    std::fprintf(stderr, "%s\n", R->Error.c_str());
    std::exit(1);
  }
  checkRunOrDie(R->Emu, Cell.Workload, Cell.PO);
  return R;
}

std::shared_ptr<const CompileResult>
ResultCache::compileCell(const std::string &Workload,
                         const PipelineOptions &PO) {
  serve::Provenance Prov;
  std::shared_ptr<const CompileResult> R =
      Cache.compileCell({/*Tenant=*/"", Workload, PO, {}}, &Prov);
  addComputed(R->Pipeline, Prov);
  if (!R->Error.empty()) {
    std::fprintf(stderr, "%s\n", R->Error.c_str());
    std::exit(1);
  }
  return R;
}

serve::CacheCounters ResultCache::counters() const {
  return Cache.counters();
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
