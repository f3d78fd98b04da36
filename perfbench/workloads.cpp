//===----------------------------------------------------------------------===//
///
/// \file
/// The four benchmark workloads. Each has a fixed population; a round
/// visits all of it in an order drawn from (seed, round), so the seed
/// changes order but never what is measured.
///
///  - compile_matrix: every program x environment (+ the two rollback
///    strategies) compiled from front-half IR, no cache, library jobs 1.
///  - emulate_intermittent: Emulator::run over programs x strategies x
///    power schedules on modules compiled in set-up.
///  - crash_campaign: runCrashCampaigns (all three modes) per program x
///    strategy, plus one negative control per strategy.
///  - serve_mixed: one synchronous client in a closed loop against an
///    in-process daemon; hot keys hit at run level, a fixed share of
///    requests arrive under fresh tenants and compile cold.
///
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "layers.h"
#include "tracer.h"

#include "serve/Server.h"

#include <algorithm>
#include <cmath>
#include <unistd.h>

using namespace wario;
using namespace perfbench;

//===----------------------------------------------------------------------===//
// Shared pieces
//===----------------------------------------------------------------------===//

void Outcome::op(size_t Key, double Seconds, bool Ok,
                 const std::string &Why) {
  OpSeconds.push_back(Seconds);
  OpKeys.push_back(Key);
  check(Ok, Why);
}

std::vector<double> Outcome::bestSeconds() const {
  std::map<size_t, double> Best;
  for (size_t I = 0; I != OpSeconds.size(); ++I) {
    auto [It, Fresh] = Best.try_emplace(OpKeys[I], OpSeconds[I]);
    if (!Fresh)
      It->second = std::min(It->second, OpSeconds[I]);
  }
  std::vector<double> Out;
  for (const auto &[Key, S] : Best)
    Out.push_back(S);
  return Out;
}

void Outcome::check(bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Errors.size() < 8)
    Errors.push_back(Why);
}

uint64_t perfbench::mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

std::vector<size_t> perfbench::permutation(size_t N, uint64_t Seed) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I != N; ++I)
    P[I] = I;
  uint64_t S = Seed;
  for (size_t I = N; I > 1; --I) {
    S = mix64(S);
    std::swap(P[I - 1], P[S % I]);
  }
  return P;
}

double perfbench::sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

bool BenchWorkload::setupOracle(Outcome &O) {
  Progs.clear();
  for (const Workload &W : allWorkloads()) {
    std::string Error;
    std::unique_ptr<Module> M = buildIR(W, Error);
    Program P;
    P.W = &W;
    if (M)
      P.Expected = oracle(*M);
    else
      P.Expected.Error = Error;
    O.check(P.Expected.Ok, "oracle failed on " + W.Name + ": " +
                               P.Expected.Error);
    if (!P.Expected.Ok)
      return false;
    Progs.push_back(std::move(P));
  }
  return true;
}

bool BenchWorkload::matchesOracle(const Program &P, bool Ok, int32_t Return,
                                  uint64_t WarViolations, bool Instrumented,
                                  std::string &Why) {
  if (!Ok)
    Why = P.W->Name + ": run failed";
  else if (Return != P.Expected.ReturnValue)
    Why = P.W->Name + ": returned " + std::to_string(Return) +
          ", oracle says " + std::to_string(P.Expected.ReturnValue);
  else if (Instrumented && WarViolations)
    Why = P.W->Name + ": " + std::to_string(WarViolations) +
          " WAR violations";
  else
    return true;
  return false;
}

bool BenchWorkload::matchesOracleFor(const Program &P, const EmulatorResult &R,
                                     const PipelineOptions &PO,
                                     std::string &Why) {
  return matchesOracle(P, R.Ok, R.ReturnValue, R.WarViolations,
                       PO.Env != Environment::PlainC, Why);
}

namespace {

/// Front-half IR of every program, built fresh (frontend + front half).
std::vector<std::unique_ptr<Module>>
frontHalves(const std::vector<Program> &Progs, Outcome &O) {
  std::vector<std::unique_ptr<Module>> Out;
  for (const Program &P : Progs) {
    std::string Error;
    std::unique_ptr<Module> M = buildIR(*P.W, Error);
    O.check(M != nullptr, Error);
    if (M)
      frontHalf(*M);
    Out.push_back(std::move(M));
  }
  return Out;
}

PipelineOptions envOptions(Environment Env,
                           CheckpointStrategy S = CheckpointStrategy::Idempotent) {
  PipelineOptions PO;
  PO.Env = Env;
  PO.Strat = S;
  return PO;
}

const char *strategyLabel(const PipelineOptions &PO) {
  switch (PO.Strat) {
  case CheckpointStrategy::Differential: return "wario-diff";
  case CheckpointStrategy::Speculative: return "wario-spec";
  case CheckpointStrategy::Idempotent: break;
  }
  return environmentName(PO.Env);
}

bool instrumented(const PipelineOptions &PO) {
  return PO.Env != Environment::PlainC;
}

double ms(double Seconds) { return Seconds * 1e3; }

} // namespace

GenMetrics perfbench::generatedCodePass(const std::vector<Program> &Progs,
                                        Outcome &O) {
  Scope S("generated_code_pass");
  GenMetrics G;
  double LogSum = 0;
  std::vector<std::unique_ptr<Module>> IR = frontHalves(Progs, O);
  for (size_t P = 0; P != Progs.size(); ++P) {
    if (!IR[P])
      continue;
    double Cycles[2] = {0, 0};
    const Environment Envs[2] = {Environment::PlainC,
                                 Environment::WarioComplete};
    for (int K = 0; K != 2; ++K) {
      PipelineOptions PO = envOptions(Envs[K]);
      MModule MM = compileCell(*IR[P], PO);
      std::unique_ptr<Emulator> E = makeEmulator(MM);
      EmulatorResult R = emulatorRun(*E, serve::effectiveOptions(PO, {}));
      std::string Why;
      O.check(BenchWorkload::matchesOracleFor(Progs[P], R, PO, Why), Why);
      Cycles[K] = double(R.TotalCycles);
      if (K == 1) {
        G.Checkpoints += double(R.CheckpointsExecuted);
        G.TextBytes += MM.textSizeBytes();
      }
    }
    if (Cycles[0] > 0 && Cycles[1] > 0)
      LogSum += std::log(Cycles[1] / Cycles[0]);
  }
  G.OverheadVsPlainC = std::exp(LogSum / double(Progs.size()));
  return G;
}

//===----------------------------------------------------------------------===//
// compile_matrix
//===----------------------------------------------------------------------===//

namespace {

/// The lower half of fig6's unroll-factor sweep (its upper half costs up
/// to 2 s per cell, which would make a round longer than the time
/// budget). Each cell that runs the Loop Write Clusterer takes one factor
/// by a fixed rotation, so the population (and its cost) is the same for
/// every seed.
const unsigned UnrollSweep[] = {1, 2, 4, 6, 8, 10};
constexpr size_t NumUnroll = sizeof(UnrollSweep) / sizeof(UnrollSweep[0]);

class CompileMatrix final : public BenchWorkload {
public:
  explicit CompileMatrix(const Config &C) : C(C) {}

  void setup(Outcome &O) override {
    Cells.clear();
    FirstModule.clear();
    if (!setupOracle(O))
      return;
    for (size_t P = 0; P != Progs.size(); ++P) {
      std::vector<PipelineOptions> Row;
      for (Environment E : allEnvironments())
        Row.push_back(envOptions(E));
      Row.push_back(envOptions(Environment::WarioComplete,
                               CheckpointStrategy::Differential));
      Row.push_back(envOptions(Environment::WarioComplete,
                               CheckpointStrategy::Speculative));
      unsigned Lwc = 0;
      for (PipelineOptions &PO : Row)
        if (middleEndConfig(PO).LoopCluster)
          PO.UnrollFactor = UnrollSweep[(P * 5 + Lwc++) % NumUnroll];
      Cells.push_back(Row);
      FirstModule.emplace_back(Row.size());
    }
  }

  void round(unsigned Round, Outcome &O) override {
    for (size_t P : permutation(Cells.size(), mix64(C.Seed) ^ Round)) {
      std::string Error;
      std::unique_ptr<Module> IR = buildIR(*Progs[P].W, Error);
      if (!IR) {
        O.check(false, Error);
        continue;
      }
      frontHalf(*IR);
      const std::vector<PipelineOptions> &Row = Cells[P];
      for (size_t K :
           permutation(Row.size(), mix64(C.Seed * 131 + P) ^ Round)) {
        tracer().nextOp();
        Clock::time_point T0 = Clock::now();
        MModule MM = compileCell(*IR, Row[K]);
        double Dt = secondsSince(T0);
        // Compilation is deterministic: every round must emit the same
        // machine code size per cell. The first round's module is kept
        // for the deferred oracle check.
        std::unique_ptr<MModule> &First = FirstModule[P][K];
        bool Ok = true;
        if (!First)
          First = std::make_unique<MModule>(std::move(MM));
        else
          Ok = MM.textSizeBytes() == First->textSizeBytes();
        O.op(P * Row.size() + K, Dt, Ok,
             Progs[P].W->Name + "/" + strategyLabel(Row[K]) +
                 ": text size differs between rounds");
      }
    }
  }

  void check(Outcome &O) override {
    Scope S("oracle_check");
    for (size_t P = 0; P != Cells.size(); ++P)
      for (size_t K = 0; K != Cells[P].size(); ++K) {
        if (!FirstModule[P][K])
          continue;
        std::unique_ptr<Emulator> E = makeEmulator(*FirstModule[P][K]);
        const PipelineOptions &PO = Cells[P][K];
        EmulatorResult R = emulatorRun(*E, serve::effectiveOptions(PO, {}));
        std::string Why;
        O.check(matchesOracleFor(Progs[P], R, PO, Why), Why);
      }
  }

  void finish(Outcome &O, unsigned) override {
    std::vector<double> Best = O.bestSeconds();
    O.Named = {
        {"compile_cells_per_s", double(Best.size()) / sum(Best), "cells/s"},
        {"compile_cell_p50_ms", ms(quantile(Best, 0.5)), "ms"},
        {"compile_cell_p90_ms", ms(quantile(Best, 0.9)), "ms"},
    };
  }

private:
  Config C;
  std::vector<std::vector<PipelineOptions>> Cells;
  std::vector<std::vector<std::unique_ptr<MModule>>> FirstModule;
};

//===----------------------------------------------------------------------===//
// emulate_intermittent
//===----------------------------------------------------------------------===//

class EmulateIntermittent final : public BenchWorkload {
public:
  explicit EmulateIntermittent(const Config &C) : C(C) {}

  void setup(Outcome &O) override {
    Runs.clear();
    Builds.clear();
    if (!setupOracle(O))
      return;
    std::vector<std::unique_ptr<Module>> IR = frontHalves(Progs, O);
    const PipelineOptions Configs[] = {
        envOptions(Environment::Ratchet),
        envOptions(Environment::WarioComplete),
        envOptions(Environment::WarioExpander),
        envOptions(Environment::WarioComplete,
                   CheckpointStrategy::Differential),
        envOptions(Environment::WarioComplete,
                   CheckpointStrategy::Speculative),
    };
    std::vector<EmulatorOptions> Schedules(6);
    Schedules[1].Power = PowerSchedule::fixed(50'000);
    Schedules[2].Power = PowerSchedule::fixed(1'000'000);
    Schedules[3].Power = harvesterTraceAlpha();
    Schedules[4].Power = harvesterTraceBeta();
    Schedules[5].InterruptPeriod = 10'000;
    for (size_t P = 0; P != Progs.size(); ++P) {
      if (!IR[P])
        continue;
      addBuild(P, *IR[P], envOptions(Environment::PlainC), {EmulatorOptions{}});
      for (const PipelineOptions &PO : Configs)
        addBuild(P, *IR[P], PO, Schedules);
    }
  }

  void round(unsigned Round, Outcome &O) override {
    for (size_t I : permutation(Runs.size(), mix64(C.Seed) ^ Round)) {
      RunSpec &RS = Runs[I];
      const Build &B = *Builds[RS.BuildIndex];
      tracer().nextOp();
      Clock::time_point T0 = Clock::now();
      EmulatorResult R = emulatorRun(*B.E, RS.EO);
      double Dt = secondsSince(T0);
      std::string Why;
      bool Ok = matchesOracleFor(Progs[B.Prog], R, B.PO, Why);
      // Emulation is deterministic: every round must reproduce the first
      // round's cycle and checkpoint counts for the run.
      if (Ok && RS.Cycles == 0) {
        RS.Cycles = R.TotalCycles;
        RS.Checkpoints = R.CheckpointsExecuted;
      } else if (Ok && (RS.Cycles != R.TotalCycles ||
                        RS.Checkpoints != R.CheckpointsExecuted)) {
        Ok = false;
        Why = Progs[B.Prog].W->Name + ": counts differ between rounds";
      }
      O.op(I, Dt, Ok, Why);
      O.WorkUnits += double(R.InstructionsExecuted);
    }
  }

  void finish(Outcome &O, unsigned Rounds) override {
    std::vector<double> Best = O.bestSeconds();
    O.Named = {
        {"sim_minsts_per_s", O.WorkUnits / Rounds / sum(Best) / 1e6,
         "Minsts/s"},
        {"emu_run_p50_ms", ms(quantile(Best, 0.5)), "ms"},
        {"emu_run_p99_ms", ms(quantile(Best, 0.99)), "ms"},
    };
  }

private:
  struct Build {
    size_t Prog = 0;
    PipelineOptions PO;
    std::unique_ptr<MModule> MM;
    std::unique_ptr<Emulator> E; ///< Borrows *MM; declared after it.
  };
  struct RunSpec {
    size_t BuildIndex = 0;
    EmulatorOptions EO;
    uint64_t Cycles = 0; ///< First round's result (0 = not yet run).
    uint64_t Checkpoints = 0;
  };

  void addBuild(size_t P, const Module &IR, const PipelineOptions &PO,
                const std::vector<EmulatorOptions> &Schedules) {
    auto B = std::make_unique<Build>();
    B->Prog = P;
    B->PO = PO;
    B->MM = std::make_unique<MModule>(compileCell(IR, PO));
    B->E = makeEmulator(*B->MM);
    for (const EmulatorOptions &EO : Schedules)
      Runs.push_back({Builds.size(), serve::effectiveOptions(PO, EO)});
    Builds.push_back(std::move(B));
  }

  Config C;
  std::vector<std::unique_ptr<Build>> Builds;
  std::vector<RunSpec> Runs;
};

//===----------------------------------------------------------------------===//
// crash_campaign
//===----------------------------------------------------------------------===//

class CrashCampaign final : public BenchWorkload {
public:
  CrashCampaign(const Config &C, unsigned Jobs) : C(C), Jobs(Jobs) {}

  void setup(Outcome &O) override {
    Pairs.clear();
    Controls.clear();
    if (!setupOracle(O))
      return;
    std::vector<std::unique_ptr<Module>> IR = frontHalves(Progs, O);
    const CheckpointStrategy Strats[] = {CheckpointStrategy::Idempotent,
                                         CheckpointStrategy::Differential,
                                         CheckpointStrategy::Speculative};
    for (size_t P = 0; P != Progs.size(); ++P) {
      if (!IR[P])
        continue;
      for (CheckpointStrategy S : Strats) {
        PipelineOptions PO = envOptions(Environment::WarioComplete, S);
        Pairs.push_back(
            {P, PO, std::make_unique<MModule>(compileCell(*IR[P], PO))});
      }
    }
    // One negative control per strategy, as bench/verify_crash runs them:
    // crc without WAR resolution; coremark (whose list and matrix state
    // lives in NVM) with each rollback runtime weakened.
    for (size_t P = 0; P != Progs.size(); ++P) {
      if (!IR[P])
        continue;
      const std::string &Name = Progs[P].W->Name;
      if (Name == "crc") {
        PipelineOptions PO = envOptions(Environment::WarioComplete);
        PO.ResolveMiddleEndWars = false;
        Controls.push_back(
            {P, PO, std::make_unique<MModule>(compileCell(*IR[P], PO))});
      } else if (Name == "coremark") {
        PipelineOptions Diff = envOptions(Environment::WarioComplete,
                                          CheckpointStrategy::Differential);
        Diff.DiffFullRollback = false;
        PipelineOptions Spec = envOptions(Environment::WarioComplete,
                                          CheckpointStrategy::Speculative);
        Spec.SpecLogWars = false;
        for (const PipelineOptions &PO : {Diff, Spec})
          Controls.push_back(
              {P, PO, std::make_unique<MModule>(compileCell(*IR[P], PO))});
      }
    }
    O.check(Controls.size() == 3, "negative controls missing");
  }

  void round(unsigned Round, Outcome &O) override {
    for (size_t I : permutation(Pairs.size(), mix64(C.Seed) ^ Round)) {
      Pair &Pr = Pairs[I];
      verify::FaultInjectorOptions FI = baseOptions(Pr);
      FI.Seed = uint32_t(mix64(C.Seed * 977 + I));
      FI.Jobs = Jobs;
      FI.MaxPoints = 512;
      tracer().nextOp();
      Clock::time_point T0 = Clock::now();
      std::vector<verify::CrashReport> Rs =
          crashCampaigns(*Pr.MM, FI,
                         {verify::CampaignMode::RegionBoundaries,
                          verify::CampaignMode::Stratified,
                          verify::CampaignMode::Adversarial});
      double Dt = secondsSince(T0);
      std::string Why;
      unsigned Points = 0;
      bool Ok = Rs.size() == 3;
      for (const verify::CrashReport &R : Rs) {
        Points += R.PointsTested;
        if (!R.clean())
          Why = FI.Workload + "/" + FI.Config + "/" + R.Mode + ": " +
                (R.Ok ? std::to_string(R.Divergences.size()) +
                            " divergences"
                      : R.Error);
        else if (R.GoldenReturn != Progs[Pr.Prog].Expected.ReturnValue)
          Why = FI.Workload + "/" + FI.Config + ": golden run disagrees "
                                                "with the oracle";
      }
      // The points tested depend only on the module and the seed.
      if (Why.empty() && Pr.Points && Pr.Points != Points)
        Why = FI.Workload + "/" + FI.Config + ": point count changed";
      Pr.Points = Points;
      O.op(I, Dt, Ok && Why.empty(), Why);
      O.WorkUnits += Points;
    }
  }

  void check(Outcome &O) override {
    Scope S("negative_controls");
    for (Pair &Ctl : Controls) {
      verify::FaultInjectorOptions FI = baseOptions(Ctl);
      FI.Jobs = Jobs;
      // A control only has to be caught, so it skips bisection; 192
      // points is what bench/verify_crash needs to catch crc.
      FI.MaxPoints = 192;
      FI.Bisect = false;
      FI.BaseEO.WarIsFatal = false;
      // Weakened builds can corrupt loop state into runaway loops; the
      // cap turns those into run errors (as bench/verify_crash does).
      FI.BaseEO.MaxCycles = 40'000'000;
      std::vector<verify::CrashReport> Rs =
          crashCampaigns(*Ctl.MM, FI, {verify::CampaignMode::Adversarial});
      bool Caught = !Rs.empty() && Rs.front().Ok &&
                    !Rs.front().Divergences.empty();
      O.check(Caught, "negative control not caught: " + FI.Workload + "/" +
                          FI.Config);
    }
  }

  void finish(Outcome &O, unsigned Rounds) override {
    std::vector<double> Best = O.bestSeconds();
    O.Named = {
        {"crash_points_per_s", O.WorkUnits / Rounds / sum(Best), "points/s"},
        {"verdict_p90_ms", ms(quantile(Best, 0.9)), "ms"},
    };
  }

private:
  struct Pair {
    size_t Prog = 0;
    PipelineOptions PO;
    std::unique_ptr<MModule> MM;
    unsigned Points = 0; ///< Points tested by the first round.
  };

  verify::FaultInjectorOptions baseOptions(const Pair &Pr) const {
    verify::FaultInjectorOptions FI;
    FI.BaseEO.CollectRegionSizes = false;
    FI.Workload = Progs[Pr.Prog].W->Name;
    FI.Config = strategyLabel(Pr.PO);
    if (!Pr.PO.ResolveMiddleEndWars || !Pr.PO.DiffFullRollback ||
        !Pr.PO.SpecLogWars)
      FI.Config += "-weakened";
    return FI;
  }

  Config C;
  unsigned Jobs;
  std::vector<Pair> Pairs;
  std::vector<Pair> Controls;
};

//===----------------------------------------------------------------------===//
// serve_mixed
//===----------------------------------------------------------------------===//

class ServeMixed final : public BenchWorkload {
public:
  ServeMixed(const Config &C, size_t CacheBytes)
      : C(C), CacheBytes(CacheBytes) {}
  ~ServeMixed() override { shutdown(); }

  void setup(Outcome &O) override {
    shutdown();
    Refs.clear();
    if (!setupOracle(O))
      return;
    buildConfigs();
    {
      Scope S("server_start");
      serve::ServerOptions SO;
      SO.SocketPath = C.WorkDir + "/perfbench-" + std::to_string(getpid()) +
                      ".sock";
      SO.CacheBytes = CacheBytes;
      SO.Jobs = 1;
      Srv = std::make_unique<serve::Server>(SO);
      std::string Error;
      bool Up = Srv->start(&Error) && Cli.connect(SO.SocketPath, &Error);
      O.check(Up, "daemon start: " + Error);
      if (!Up) {
        shutdown();
        return;
      }
    }
    // Warm the hot set: the first request of each hot key compiles and
    // simulates; its reply becomes the reference every later reply of the
    // same configuration (under any tenant) must reproduce.
    Scope S("warm_cache");
    for (size_t K = 0; K != numHot(); ++K)
      request(K % numConfigs(), hotRequest(K), O, Untimed);
  }

  void round(unsigned Round, Outcome &O) override {
    if (!Srv)
      return;
    const size_t Cold = numConfigs();
    for (size_t I : permutation(numHot() + Cold, mix64(C.Seed) ^ Round)) {
      if (I < numHot()) {
        request(I % numConfigs(), hotRequest(I), O, I);
        continue;
      }
      // A cold request: a hot configuration under a fresh tenant
      // namespace, so every cache level misses.
      size_t Cfg = I - numHot();
      std::string Tenant = std::string(I % 2 ? "tenant-b" : "tenant-a") +
                           "~cold-" + std::to_string(NextCold++);
      request(Cfg, configRequest(Cfg, Tenant), O, I);
    }
    if (Round == 0)
      recordCacheCounts(O);
  }

  void finish(Outcome &O, unsigned) override {
    std::vector<double> Best = O.bestSeconds();
    O.Named = {
        {"req_per_s", double(Best.size()) / sum(Best), "req/s"},
        {"req_p50_ms", ms(quantile(Best, 0.5)), "ms"},
        {"req_p99_ms", ms(quantile(Best, 0.99)), "ms"},
        {"serve.hit_p50_ms", quantile(O.Samples["hit_ms"], 0.5), "ms"},
        {"serve.miss_p50_ms", quantile(O.Samples["miss_ms"], 0.5), "ms"},
        {"serve.queue_p50_ms", quantile(O.Samples["queue_ms"], 0.5), "ms"},
        {"serve.compute_s", O.WorkSeconds, "s"},
    };
  }

private:
  /// One served configuration: programs x {plain, ratchet, wario} x
  /// {continuous, 1M-cycle on-periods}, minus intermittent plain C (which
  /// cannot survive a power failure).
  struct ServeConfig {
    size_t Prog = 0;
    Environment Env = Environment::PlainC;
    bool Intermittent = false;
  };

  void buildConfigs() {
    Configs.clear();
    for (size_t P = 0; P != Progs.size(); ++P)
      for (Environment E : {Environment::PlainC, Environment::Ratchet,
                            Environment::WarioComplete})
        for (bool Intermittent : {false, true})
          if (!Intermittent || E != Environment::PlainC)
            Configs.push_back({P, E, Intermittent});
  }
  size_t numConfigs() const { return Configs.size(); }
  /// The hot set is every configuration under both tenants.
  size_t numHot() const { return 2 * numConfigs(); }

  serve::RunRequestMsg configRequest(size_t Cfg,
                                     const std::string &Tenant) const {
    serve::RunRequestMsg M;
    M.Tenant = Tenant;
    M.Workload = Progs[Configs[Cfg].Prog].W->Name;
    M.PO.Env = Configs[Cfg].Env;
    if (Configs[Cfg].Intermittent)
      M.EO.Power = PowerSchedule::fixed(1'000'000);
    return M;
  }
  serve::RunRequestMsg hotRequest(size_t K) const {
    return configRequest(K % numConfigs(),
                         K < numConfigs() ? "tenant-a" : "tenant-b");
  }

  /// Key of a set-up request, which is checked but not timed.
  static constexpr size_t Untimed = SIZE_MAX;

  /// Sends one request and checks its reply; \p Key is the request's
  /// index in the round's population, or Untimed.
  void request(size_t Cfg, const serve::RunRequestMsg &M, Outcome &O,
               size_t Key) {
    serve::RunReplyMsg Reply;
    std::string Error;
    tracer().nextOp();
    Clock::time_point T0 = Clock::now();
    bool Sent = serveRun(Cli, M, Reply, &Error);
    double Dt = secondsSince(T0);
    const Program &P = Progs[Configs[Cfg].Prog];
    std::string Why = Sent ? Reply.Error : Error;
    bool Ok = Sent && Reply.Ok &&
              matchesOracle(P, Reply.Ok, Reply.ReturnValue,
                            Reply.WarViolations, instrumented(M.PO), Why);
    if (Ok) {
      auto [It, Fresh] = Refs.try_emplace(Cfg, Reply);
      if (!Fresh && !sameResult(It->second, Reply)) {
        Ok = false;
        Why = M.Workload + ": reply differs from the reference reply";
      }
    }
    if (Key == Untimed) {
      O.check(Ok, Why);
      return;
    }
    O.op(Key, Dt, Ok, Why);
    double Stages = computedStages(Reply).total();
    O.WorkSeconds += Stages;
    O.Samples["queue_ms"].push_back(ms(std::max(0.0, Dt - Stages)));
    bool Hit = serve::Provenance::fromBits(Reply.ProvenanceBits).RunHit;
    O.Samples[Hit ? "hit_ms" : "miss_ms"].push_back(ms(Dt));
  }

  static bool sameResult(const serve::RunReplyMsg &A,
                         const serve::RunReplyMsg &B) {
    return A.ReturnValue == B.ReturnValue && A.Output == B.Output &&
           A.TotalCycles == B.TotalCycles &&
           A.InstructionsExecuted == B.InstructionsExecuted &&
           A.CheckpointsExecuted == B.CheckpointsExecuted &&
           A.PowerFailures == B.PowerFailures && A.TextBytes == B.TextBytes &&
           A.MemHash == B.MemHash && A.RegionHash == B.RegionHash;
  }

  /// Cache-level hit ratios and accounting after set-up plus one round:
  /// a fixed request sequence on one connection, so deterministic.
  void recordCacheCounts(Outcome &O) {
    Counts &Cn = counts();
    if (!Cn.Enabled)
      return;
    serve::StatsReplyMsg St;
    std::string Error;
    bool Ok = serveStats(Cli, St, &Error);
    O.check(Ok, "stats: " + Error);
    if (!Ok)
      return;
    const char *Names[serve::NumCacheLevels] = {
        "serve.hit_ratio.front", "serve.hit_ratio.mid",
        "serve.hit_ratio.compile", "serve.hit_ratio.run"};
    for (unsigned L = 0; L != serve::NumCacheLevels; ++L) {
      double Tot = double(St.Counters.Hits[L] + St.Counters.Misses[L]);
      Cn.add(Names[L], Tot ? double(St.Counters.Hits[L]) / Tot : 0);
      Cn.add("serve.evictions", double(St.Counters.Evictions[L]));
    }
    Cn.add("serve.bytes_used_mib", double(St.Counters.BytesUsed) / 1048576.0);
    Cn.add("serve.requests", double(St.RequestsServed));
  }

  void shutdown() {
    Cli.close();
    if (Srv)
      Srv->stop();
    Srv.reset();
  }

  Config C;
  size_t CacheBytes;
  std::unique_ptr<serve::Server> Srv;
  serve::Client Cli;
  uint64_t NextCold = 0;
  std::vector<ServeConfig> Configs;
  std::map<size_t, serve::RunReplyMsg> Refs;
};

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "compile_matrix", "emulate_intermittent", "crash_campaign",
      "serve_mixed"};
  return Names;
}

std::unique_ptr<BenchWorkload> perfbench::makeWorkload(const Config &C,
                                                       unsigned CampaignJobs,
                                                       size_t CacheBytes) {
  if (C.Workload == "compile_matrix")
    return std::make_unique<CompileMatrix>(C);
  if (C.Workload == "emulate_intermittent")
    return std::make_unique<EmulateIntermittent>(C);
  if (C.Workload == "crash_campaign")
    return std::make_unique<CrashCampaign>(C, CampaignJobs);
  if (C.Workload == "serve_mixed")
    return std::make_unique<ServeMixed>(C, CacheBytes);
  return nullptr;
}
