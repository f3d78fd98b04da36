//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the perfbench binary: run configuration, the
/// per-run outcome each workload fills, and the workload interface.
///
/// A run is: set up several times (setup_s is the median), then rounds
/// over the workload's fixed population in seeded order until the time
/// budget has passed (the phase ends on a round boundary, so every run
/// measures whole rounds), then the generated-code pass and the checks.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include "driver/Pipeline.h"
#include "emu/Emulator.h"
#include "ir/Interp.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Directory (inside the checkout) for sockets and trace files.
  std::string WorkDir = ".bench_build";
  unsigned NProc = 1;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one run of a workload observed.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< The first few failure messages.

  std::vector<double> OpSeconds; ///< Latency of every timed operation.
  /// Population index of each timed operation (parallel to OpSeconds).
  std::vector<size_t> OpKeys;
  double WorkUnits = 0;          ///< Workload-specific work (insts, points).
  double WorkSeconds = 0;        ///< Server-side compute seconds (serve).
  /// Workload-specific latency samples (e.g. cache hits vs misses).
  std::map<std::string, std::vector<double>> Samples;

  /// Metrics under this workload's own names (e.g. sim_minsts_per_s).
  std::vector<Metric> Named;

  /// Records one timed operation of population member \p Key; false
  /// \p Ok counts it as failed.
  void op(size_t Key, double Seconds, bool Ok, const std::string &Why = "");
  /// Each population member's fastest timed operation: on a shared host
  /// the best of a member's repetitions is the least disturbed by other
  /// tenants, so rates and latency quantiles are taken over these.
  std::vector<double> bestSeconds() const;

  /// Records one untimed checked operation (oracle checks, negative
  /// controls, set-up steps).
  void check(bool Ok, const std::string &Why = "");
};

/// A program of the suite with its oracle result.
struct Program {
  const wario::Workload *W = nullptr;
  wario::InterpResult Expected;
};

/// Deterministic 64-bit mixer (splitmix64 finalizer).
uint64_t mix64(uint64_t X);

/// Seeded Fisher-Yates permutation of 0..N-1.
std::vector<size_t> permutation(size_t N, uint64_t Seed);

/// \p Q-quantile (0..1) of \p V by linear interpolation; 0 when empty.
double quantile(std::vector<double> V, double Q);

double sum(const std::vector<double> &V);

class BenchWorkload {
public:
  virtual ~BenchWorkload() = default;

  /// Builds fresh state, releasing any previous setup's.
  virtual void setup(Outcome &O) = 0;
  /// One pass over the population, in the order seeded by (seed, round).
  virtual void round(unsigned Round, Outcome &O) = 0;
  /// Post-phase checks (negative controls, deferred oracle checks).
  virtual void check(Outcome &) {}
  /// Fills O.Named from the timed phase of \p Rounds rounds.
  virtual void finish(Outcome &O, unsigned Rounds) = 0;

  /// Per-program oracle results of the last setup.
  const std::vector<Program> &programs() const { return Progs; }

  /// Checks a result against its program's oracle: the run succeeded,
  /// returned the oracle's value, and (when instrumented) saw no WAR
  /// violation. Sets \p Why on a mismatch.
  static bool matchesOracle(const Program &P, bool Ok, int32_t Return,
                            uint64_t WarViolations, bool Instrumented,
                            std::string &Why);
  static bool matchesOracleFor(const Program &P,
                               const wario::EmulatorResult &R,
                               const wario::PipelineOptions &PO,
                               std::string &Why);

protected:
  /// Builds each program's unpipelined IR and runs the oracle on it.
  bool setupOracle(Outcome &O);

  std::vector<Program> Progs;
};

/// nullptr for an unknown workload name.
std::unique_ptr<BenchWorkload> makeWorkload(const Config &C,
                                            unsigned CampaignJobs,
                                            size_t CacheBytes);
const std::vector<std::string> &workloadNames();

/// The generated-code metrics over the fixed population (WARio and plain
/// C builds of all six programs under continuous power).
struct GenMetrics {
  double OverheadVsPlainC = 0; ///< Geomean WARio cycles / plain-C cycles.
  double Checkpoints = 0;      ///< Executed WARio checkpoints, summed.
  double TextBytes = 0;        ///< WARio text bytes, summed.
};
GenMetrics generatedCodePass(const std::vector<Program> &Progs, Outcome &O);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
