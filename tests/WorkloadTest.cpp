//===----------------------------------------------------------------------===//
///
/// \file
/// Benchmark-suite tests: every workload must produce identical results
/// through the interpreter and through every compiled environment on the
/// emulator — under continuous power, and (for the instrumented
/// environments) under intermittent power with zero WAR violations.
/// These are the correctness gates behind every number in
/// EXPERIMENTS.md.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "emu/Emulator.h"
#include "ir/Interp.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace wario;

namespace {

int32_t oracle(const Workload &W) {
  DiagnosticEngine Diags;
  auto M = buildWorkloadIR(W, Diags);
  EXPECT_TRUE(M) << W.Name << ": " << Diags.formatAll();
  if (!M)
    return INT32_MIN;
  InterpResult R = interpretModule(*M, "main", 500'000'000);
  EXPECT_TRUE(R.Ok) << W.Name << ": " << R.Error;
  return R.ReturnValue;
}

MModule build(const Workload &W, Environment Env,
              PipelineStats *Stats = nullptr) {
  DiagnosticEngine Diags;
  auto M = buildWorkloadIR(W, Diags);
  EXPECT_TRUE(M) << W.Name << ": " << Diags.formatAll();
  PipelineOptions PO;
  PO.Env = Env;
  return compile(*M, PO, Stats);
}

class WorkloadSuite : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(WorkloadSuite, AllEnvironmentsMatchOracle) {
  const Workload &W = getWorkload(GetParam());
  int32_t Expected = oracle(W);
  for (Environment Env : allEnvironments()) {
    MModule MM = build(W, Env);
    EmulatorOptions EO;
    EO.CollectRegionSizes = false;
    if (Env == Environment::PlainC)
      EO.WarIsFatal = false;
    EmulatorResult R = emulate(MM, EO);
    ASSERT_TRUE(R.Ok) << W.Name << " @ " << environmentName(Env) << ": "
                      << R.Error;
    EXPECT_EQ(R.ReturnValue, Expected)
        << W.Name << " @ " << environmentName(Env);
    if (Env != Environment::PlainC) {
      EXPECT_EQ(R.WarViolations, 0u)
          << W.Name << " @ " << environmentName(Env) << "\n"
          << (R.WarReports.empty() ? "" : R.WarReports.front());
    }
  }
}

TEST_P(WorkloadSuite, SurvivesIntermittentPower) {
  const Workload &W = getWorkload(GetParam());
  int32_t Expected = oracle(W);
  for (Environment Env :
       {Environment::Ratchet, Environment::WarioExpander}) {
    MModule MM = build(W, Env);
    EmulatorOptions EO;
    EO.CollectRegionSizes = false;
    EO.Power = PowerSchedule::fixed(50'000);
    EmulatorResult R = emulate(MM, EO);
    ASSERT_TRUE(R.Ok) << W.Name << " @ " << environmentName(Env) << ": "
                      << R.Error;
    EXPECT_EQ(R.ReturnValue, Expected)
        << W.Name << " @ " << environmentName(Env);
    EXPECT_EQ(R.WarViolations, 0u) << W.Name;
    EXPECT_GT(R.PowerFailures, 0u) << W.Name;
  }
}

TEST_P(WorkloadSuite, SurvivesHarvesterTrace) {
  const Workload &W = getWorkload(GetParam());
  int32_t Expected = oracle(W);
  MModule MM = build(W, Environment::WarioComplete);
  EmulatorOptions EO;
  EO.CollectRegionSizes = false;
  EO.Power = harvesterTraceAlpha();
  EmulatorResult R = emulate(MM, EO);
  ASSERT_TRUE(R.Ok) << W.Name << ": " << R.Error;
  EXPECT_EQ(R.ReturnValue, Expected) << W.Name;
  EXPECT_EQ(R.WarViolations, 0u) << W.Name;
}

TEST_P(WorkloadSuite, WarioBeatsRatchetOnCheckpoints) {
  const Workload &W = getWorkload(GetParam());
  EmulatorOptions EO;
  EO.CollectRegionSizes = false;
  EmulatorResult Ratchet = emulate(build(W, Environment::Ratchet), EO);
  EmulatorResult Wario = emulate(build(W, Environment::WarioComplete), EO);
  ASSERT_TRUE(Ratchet.Ok && Wario.Ok);
  EXPECT_LT(Wario.CheckpointsExecuted, Ratchet.CheckpointsExecuted)
      << W.Name;
  EXPECT_LE(Wario.TotalCycles, Ratchet.TotalCycles) << W.Name;
}

/// The oracle interpreter's step count and answer on every program,
/// pinned: its frame representation (dense arrays indexed by argument
/// index and instruction id) must never change what it computes or how
/// many instructions it executes.
TEST_P(WorkloadSuite, OracleStepsAndResultArePinned) {
  struct Pin {
    const char *Name;
    uint64_t Steps;
    int32_t Result;
  };
  static const Pin Pins[] = {
      {"coremark", 188'864, 13'938},
      {"sha", 188'360, 941'868'161},
      {"crc", 480'182, 1'496'604'969},
      {"aes", 1'662'803, 909'681'063},
      {"dijkstra", 633'547, 991'541'491},
      {"picojpeg", 317'382, 1'868'658'400},
  };
  const Workload &W = getWorkload(GetParam());
  DiagnosticEngine Diags;
  auto M = buildWorkloadIR(W, Diags);
  ASSERT_TRUE(M) << W.Name << ": " << Diags.formatAll();
  InterpResult R = interpretModule(*M, "main", 500'000'000);
  ASSERT_TRUE(R.Ok) << W.Name << ": " << R.Error;
  const Pin *P = nullptr;
  for (const Pin &C : Pins)
    if (W.Name == C.Name)
      P = &C;
  ASSERT_NE(P, nullptr) << W.Name << " has no pinned oracle values";
  EXPECT_EQ(R.StepsExecuted, P->Steps) << W.Name;
  EXPECT_EQ(R.ReturnValue, P->Result) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSuite,
                         ::testing::Values("coremark", "sha", "crc", "aes",
                                           "dijkstra", "picojpeg"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });
