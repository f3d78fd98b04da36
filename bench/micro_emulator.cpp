//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks of the emulator hot path, built to
/// quantify the pre-decoded flat-dispatch rewrite (dense instruction
/// array, pre-resolved branch targets, epoch-stamped WAR tracking)
/// against pathological regressions. The headline counter is emulated
/// instructions per second; bench/emit_bench_json.sh snapshots it (and
/// the other counters) into a BENCH_*.json for the perf trajectory.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "emu/Snapshot.h"
#include "emu/ThreadedEngine.h"

#include <algorithm>
#include <benchmark/benchmark.h>
#include <tuple>

using namespace wario;
using namespace wario::bench;

namespace {

/// One compiled workload per emulator-bound benchmark, built once.
const MModule &compiledWorkload(
    const std::string &Name, Environment Env,
    CheckpointStrategy Strat = CheckpointStrategy::Idempotent) {
  static std::map<std::tuple<std::string, Environment, CheckpointStrategy>,
                  MModule>
      Cache;
  auto Key = std::make_tuple(Name, Env, Strat);
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;
  DiagnosticEngine Diags;
  auto M = buildWorkloadIR(getWorkload(Name), Diags);
  if (!M) {
    std::fprintf(stderr, "frontend failure on %s\n", Name.c_str());
    std::exit(1);
  }
  PipelineOptions PO;
  PO.Env = Env;
  PO.Strat = Strat;
  return Cache.emplace(Key, compile(*M, PO)).first->second;
}

void runEmulatorBench(
    benchmark::State &State, const std::string &Name, Environment Env,
    const EmulatorOptions &EO,
    CheckpointStrategy Strat = CheckpointStrategy::Idempotent) {
  const MModule &MM = compiledWorkload(Name, Env, Strat);
  Emulator E(MM);
  uint64_t Instructions = 0, Cycles = 0;
  EngineStats St;
  EmulatorScratch Scratch;
  for (auto _ : State) {
    EmulatorResult R = E.run(EO, "main", &Scratch, &St);
    if (!R.Ok) {
      State.SkipWithError(R.Error.c_str());
      return;
    }
    Instructions += R.InstructionsExecuted;
    Cycles += R.TotalCycles;
    benchmark::DoNotOptimize(R.ReturnValue);
  }
  State.counters["insts/s"] = benchmark::Counter(
      double(Instructions), benchmark::Counter::kIsRate);
  State.counters["emu_cycles/s"] =
      benchmark::Counter(double(Cycles), benchmark::Counter::kIsRate);
  // Engine-dispatch economics (all zero under WARIO_ENGINE=interp):
  // how many dispatches the fused stream needed, what fraction were
  // superinstructions, and the share of instructions they covered.
  State.counters["dispatches/s"] =
      benchmark::Counter(double(St.Dispatches), benchmark::Counter::kIsRate);
  if (St.Dispatches) {
    State.counters["fused_dispatch_pct"] =
        100.0 * double(St.FusedDispatches) / double(St.Dispatches);
    State.counters["fusion_hit_pct"] =
        100.0 * double(St.FusedInstructions) /
        double(std::max<uint64_t>(St.ThreadedInstructions, 1));
  }
}

EmulatorOptions continuousNoRegions() {
  EmulatorOptions EO;
  EO.CollectRegionSizes = false;
  return EO;
}

void BM_EmulatorContinuous_CRC(benchmark::State &State) {
  runEmulatorBench(State, "crc", Environment::WarioComplete,
                   continuousNoRegions());
}
BENCHMARK(BM_EmulatorContinuous_CRC);

void BM_EmulatorContinuous_SHA(benchmark::State &State) {
  runEmulatorBench(State, "sha", Environment::WarioComplete,
                   continuousNoRegions());
}
BENCHMARK(BM_EmulatorContinuous_SHA);

void BM_EmulatorContinuous_AES(benchmark::State &State) {
  runEmulatorBench(State, "aes", Environment::WarioComplete,
                   continuousNoRegions());
}
BENCHMARK(BM_EmulatorContinuous_AES);

/// Same-run engine matrix: each of the six workloads and each
/// checkpoint strategy under an explicitly pinned engine, so one
/// benchmark invocation yields threaded-vs-interp ratios with machine
/// noise common to both sides.
/// Rows are BM_Engine_<Engine>_<workload>[_diff|_spec] (wario,
/// wario-diff, wario-spec modules). The Continuous rows above stay on
/// EngineKind::Auto for trajectory comparability with earlier
/// BENCH_pr*.json snapshots.
void runEngineBench(benchmark::State &State, const std::string &Name,
                    CheckpointStrategy Strat, EngineKind Engine) {
  EmulatorOptions EO = continuousNoRegions();
  EO.Engine = Engine;
  runEmulatorBench(State, Name, Environment::WarioComplete, EO, Strat);
}

#define WARIO_ENGINE_BENCH(W, SUFFIX, STRAT, NAME)                             \
  void BM_Engine_##NAME##_##W##SUFFIX(benchmark::State &State) {               \
    runEngineBench(State, #W, CheckpointStrategy::STRAT, EngineKind::NAME);    \
  }                                                                            \
  BENCHMARK(BM_Engine_##NAME##_##W##SUFFIX);
#define WARIO_ENGINE_BENCHES(W)                                                \
  WARIO_ENGINE_BENCH(W, , Idempotent, Interp)                                  \
  WARIO_ENGINE_BENCH(W, , Idempotent, Threaded)                                \
  WARIO_ENGINE_BENCH(W, _diff, Differential, Interp)                           \
  WARIO_ENGINE_BENCH(W, _diff, Differential, Threaded)                         \
  WARIO_ENGINE_BENCH(W, _spec, Speculative, Interp)                            \
  WARIO_ENGINE_BENCH(W, _spec, Speculative, Threaded)
WARIO_ENGINE_BENCHES(coremark)
WARIO_ENGINE_BENCHES(sha)
WARIO_ENGINE_BENCHES(crc)
WARIO_ENGINE_BENCHES(aes)
WARIO_ENGINE_BENCHES(dijkstra)
WARIO_ENGINE_BENCHES(picojpeg)
#undef WARIO_ENGINE_BENCHES
#undef WARIO_ENGINE_BENCH

/// PlainC has no checkpoints: the longest regions, so the WAR monitor's
/// first-access tracking dominates — the epoch-array's best case.
void BM_EmulatorPlainC_CRC(benchmark::State &State) {
  EmulatorOptions EO = continuousNoRegions();
  EO.WarIsFatal = false;
  runEmulatorBench(State, "crc", Environment::PlainC, EO);
}
BENCHMARK(BM_EmulatorPlainC_CRC);

/// Frequent power failures exercise reboot/restore and region resets.
void BM_EmulatorIntermittent_CRC(benchmark::State &State) {
  EmulatorOptions EO = continuousNoRegions();
  EO.Power = PowerSchedule::fixed(100'000);
  runEmulatorBench(State, "crc", Environment::WarioComplete, EO);
}
BENCHMARK(BM_EmulatorIntermittent_CRC);

/// Interrupts exercise checkpoint commit + exception stacking.
void BM_EmulatorInterrupts_CRC(benchmark::State &State) {
  EmulatorOptions EO = continuousNoRegions();
  EO.InterruptPeriod = 10'000;
  runEmulatorBench(State, "crc", Environment::WarioComplete, EO);
}
BENCHMARK(BM_EmulatorInterrupts_CRC);

/// Snapshot-recording overhead: a golden run that journals the full
/// snapshot chain, measured against BM_EmulatorContinuous_CRC. The
/// chain is rebuilt every iteration; snapshot_bytes reports its size.
void BM_SnapshotRecord_CRC(benchmark::State &State) {
  const MModule &MM = compiledWorkload("crc", Environment::WarioComplete);
  Emulator E(MM);
  EmulatorOptions EO = continuousNoRegions();
  uint64_t Instructions = 0;
  size_t ChainBytes = 0, ChainSnaps = 0;
  for (auto _ : State) {
    SnapshotChain Chain;
    EmulatorResult R = E.record(EO, Chain);
    if (!R.Ok || !Chain.valid()) {
      State.SkipWithError("record failed");
      return;
    }
    Instructions += R.InstructionsExecuted;
    ChainBytes = Chain.bytes();
    ChainSnaps = Chain.size();
    benchmark::DoNotOptimize(R.ReturnValue);
  }
  State.counters["insts/s"] = benchmark::Counter(
      double(Instructions), benchmark::Counter::kIsRate);
  State.counters["snapshot_bytes"] = double(ChainBytes);
  State.counters["snapshots"] = double(ChainSnaps);
}
BENCHMARK(BM_SnapshotRecord_CRC);

/// Resume-vs-cold at a late crash point: the fault-injector inner loop.
/// Record once outside timing, then replay a run that crashes at 90% of
/// the golden run; with \p Warm the replay resumes from the governing
/// snapshot (and tail-splices), without it the same work runs cold.
void runLateCrashBench(benchmark::State &State, bool Warm) {
  const MModule &MM = compiledWorkload("crc", Environment::WarioComplete);
  Emulator E(MM);
  EmulatorOptions Base = continuousNoRegions();
  SnapshotChain Chain;
  EmulatorResult Golden = E.record(Base, Chain);
  if (!Golden.Ok || !Chain.valid()) {
    State.SkipWithError("golden record failed");
    return;
  }
  EmulatorOptions EO = Base;
  EO.Power =
      PowerSchedule::trace({Golden.TotalCycles * 9 / 10, UINT64_MAX}, "late");
  ReplayPlan Plan;
  Plan.Chain = Warm ? &Chain : nullptr;
  Plan.AllowTailSplice = true;
  Plan.OmitFinalMemoryOnSplice = true;
  EmulatorScratch Scratch;
  uint64_t Instructions = 0;
  for (auto _ : State) {
    EmulatorResult R = E.replay(EO, Plan, "main", &Scratch);
    if (!R.Ok) {
      State.SkipWithError(R.Error.c_str());
      return;
    }
    Instructions += R.InstructionsExecuted;
    benchmark::DoNotOptimize(R.ReturnValue);
  }
  State.counters["insts/s"] = benchmark::Counter(
      double(Instructions), benchmark::Counter::kIsRate);
}

void BM_LateCrashCold_CRC(benchmark::State &State) {
  runLateCrashBench(State, /*Warm=*/false);
}
BENCHMARK(BM_LateCrashCold_CRC);

void BM_LateCrashResumed_CRC(benchmark::State &State) {
  runLateCrashBench(State, /*Warm=*/true);
}
BENCHMARK(BM_LateCrashResumed_CRC);

} // namespace

// Hand-rolled main instead of BENCHMARK_MAIN(): stamps this tree's
// build type into the JSON context. google-benchmark's own
// library_build_type field describes how *libbenchmark* was built, not
// this binary, and emit_bench_json.sh keys its debug-recording guard on
// the wario_build_type field added here.
int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::AddCustomContext("wario_build_type", WARIO_BUILD_TYPE);
#ifdef NDEBUG
  benchmark::AddCustomContext("wario_assertions", "off");
#else
  benchmark::AddCustomContext("wario_assertions", "on");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
