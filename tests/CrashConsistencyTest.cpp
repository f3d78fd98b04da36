//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-consistency campaigns as tests (label: `crash`): the fault
/// injector (src/verify/FaultInjector.h) must find zero divergences on
/// correctly instrumented builds — exhaustively over region boundaries on
/// CRC and on two hand-written mini programs with classic WAR patterns,
/// and on stratified samples of the remaining workloads — and it MUST
/// find a divergence on a deliberately weakened build (the negative
/// control that proves the checker has teeth).
///
/// The CRC exhaustive campaign re-runs the workload once per checkpoint
/// boundary (~15k emulations), so this binary is the long pole of the
/// suite; run just it with `ctest -L crash`, or exclude it with
/// `ctest -LE crash`.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "frontend/Frontend.h"
#include "verify/FaultInjector.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace wario;
using namespace wario::verify;

namespace {

/// Compiles a hand-written C-subset program through the full default
/// pipeline (WarioComplete unless overridden).
MModule buildC(const std::string &Source, const PipelineOptions &PO) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = compileC(Source, "mini", Diags);
  EXPECT_TRUE(M && !Diags.hasErrors()) << Diags.formatAll();
  if (!M)
    return MModule{};
  return compile(*M, PO);
}

MModule buildWorkload(const char *Name, const PipelineOptions &PO) {
  DiagnosticEngine Diags;
  auto M = buildWorkloadIR(getWorkload(Name), Diags);
  EXPECT_TRUE(M) << Name << ": " << Diags.formatAll();
  if (!M)
    return MModule{};
  return compile(*M, PO);
}

/// Runs one campaign and asserts it completed with zero divergences.
void expectClean(const MModule &MM, CampaignMode Mode, unsigned MaxPoints,
                 const char *What) {
  FaultInjectorOptions FI;
  FI.MaxPoints = MaxPoints;
  FI.BaseEO.CollectRegionSizes = false;
  FI.Workload = What;
  FI.Config = "wario";
  CrashReport R = runCrashCampaigns(MM, FI, {Mode}).front();
  ASSERT_TRUE(R.Ok) << What << ": " << R.Error;
  EXPECT_TRUE(R.clean()) << R.format();
  EXPECT_GT(R.PointsTested, 0u) << What;
}

/// Global accumulator mini program: a running sum threaded through NVM
/// (load-modify-store on `acc` every iteration — a WAR on every step) plus
/// periodic output of intermediate sums. A crash that rolls back to a
/// checkpoint after the store but before the next read would double-count.
const char *AccumulatorSource = R"C(
int acc = 0;
int history[32];

int step(int i) {
  acc = acc + i * i - (i >> 1);
  return acc;
}

int main(void) {
  for (int i = 0; i < 192; i++) {
    int s = step(i);
    if ((i & 15) == 0) {
      history[i >> 4] = s;
      __out(s);
    }
  }
  int mix = 0;
  for (int j = 0; j < 12; j++)
    mix = mix * 31 + history[j];
  __out(mix);
  return mix + acc;
}
)C";

/// In-place array reversal + rotation mini program: the classic WAR pair
/// (read a[i] and a[n-1-i], then overwrite both) that idempotence
/// processing must break. A crash between the two stores of a swap must
/// not leave a half-swapped array in the final state.
const char *ArraySwapSource = R"C(
int a[64];

void reverse(int n) {
  for (int i = 0; i < n / 2; i++) {
    int lo = a[i];
    int hi = a[n - 1 - i];
    a[i] = hi;
    a[n - 1 - i] = lo;
  }
}

void rotate1(int n) {
  int first = a[0];
  for (int i = 0; i + 1 < n; i++)
    a[i] = a[i + 1];
  a[n - 1] = first;
}

int main(void) {
  for (int i = 0; i < 64; i++)
    a[i] = i * 7 + 3;
  for (int r = 0; r < 6; r++) {
    reverse(64);
    rotate1(64);
    __out(a[0]);
  }
  int sum = 0;
  for (int i = 0; i < 64; i++)
    sum = sum + a[i] * (i + 1);
  __out(sum);
  return sum;
}
)C";

} // namespace

//===----------------------------------------------------------------------===//
// Mini programs: exhaustive over region boundaries AND over the
// adversarial (pre-commit / post-store) point set — small enough that no
// cap is needed.
//===----------------------------------------------------------------------===//

TEST(CrashConsistencyTest, MiniAccumulatorExhaustive) {
  MModule MM = buildC(AccumulatorSource, PipelineOptions{});
  expectClean(MM, CampaignMode::RegionBoundaries, 0, "mini-accumulator");
  expectClean(MM, CampaignMode::Adversarial, 0, "mini-accumulator");
}

TEST(CrashConsistencyTest, MiniArraySwapExhaustive) {
  MModule MM = buildC(ArraySwapSource, PipelineOptions{});
  expectClean(MM, CampaignMode::RegionBoundaries, 0, "mini-array-swap");
  expectClean(MM, CampaignMode::Adversarial, 0, "mini-array-swap");
}

/// The mini programs must stay consistent through the legacy Ratchet
/// pipeline too (different checkpoint placement, same property).
TEST(CrashConsistencyTest, MiniProgramsRatchetBoundaries) {
  PipelineOptions PO;
  PO.Env = Environment::Ratchet;
  expectClean(buildC(AccumulatorSource, PO), CampaignMode::RegionBoundaries,
              0, "mini-accumulator@ratchet");
  expectClean(buildC(ArraySwapSource, PO), CampaignMode::RegionBoundaries, 0,
              "mini-array-swap@ratchet");
}

//===----------------------------------------------------------------------===//
// CRC: exhaustive region-boundary campaign (every before/after-commit
// point of the golden run — MaxPoints = 0 disables the cap). This is the
// expensive test the `crash` label exists for.
//===----------------------------------------------------------------------===//

TEST(CrashConsistencyTest, CrcExhaustiveRegionBoundaries) {
  MModule MM = buildWorkload("crc", PipelineOptions{});
  FaultInjectorOptions FI;
  FI.MaxPoints = 0; // exhaustive: test every candidate
  FI.BaseEO.CollectRegionSizes = false;
  FI.Workload = "crc";
  FI.Config = "wario";
  CrashReport R =
      runCrashCampaigns(MM, FI, {CampaignMode::RegionBoundaries}).front();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.clean()) << R.format();
  // Exhaustive means exhaustive: every candidate point was injected.
  EXPECT_EQ(R.PointsTested, R.CandidatePoints);
  EXPECT_EQ(uint64_t(R.CandidatePoints), 2 * R.GoldenCommits + 1)
      << "before+after each commit, plus the crash-before-anything point";
  EXPECT_GT(R.GoldenCommits, 1000u) << "CRC should commit thousands of "
                                       "checkpoints under default options";
}

//===----------------------------------------------------------------------===//
// Remaining workloads: stratified sample (seeded, deterministic) — broad
// coverage at bounded cost.
//===----------------------------------------------------------------------===//

TEST(CrashConsistencyTest, SampledWorkloadsStratified) {
  for (const char *Name :
       {"coremark", "sha", "aes", "dijkstra", "picojpeg"}) {
    MModule MM = buildWorkload(Name, PipelineOptions{});
    FaultInjectorOptions FI;
    FI.Samples = 16;
    FI.BaseEO.CollectRegionSizes = false;
    FI.Workload = Name;
    FI.Config = "wario";
    CrashReport R =
        runCrashCampaigns(MM, FI, {CampaignMode::Stratified}).front();
    ASSERT_TRUE(R.Ok) << Name << ": " << R.Error;
    EXPECT_TRUE(R.clean()) << R.format();
    EXPECT_EQ(R.PointsTested, 16u) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Negative control: weaken the pipeline (skip the middle-end hitting-set
// WAR resolution) and the injector MUST find a divergence and minimize
// it. If this test ever fails, the fault injector has lost its teeth.
//===----------------------------------------------------------------------===//

TEST(CrashConsistencyTest, WeakenedPipelineIsDetected) {
  PipelineOptions Weak;
  Weak.ResolveMiddleEndWars = false;
  MModule MM = buildWorkload("crc", Weak);
  FaultInjectorOptions FI;
  FI.MaxPoints = 192;
  FI.BaseEO.CollectRegionSizes = false;
  FI.BaseEO.WarIsFatal = false; // count WARs, observe the corruption
  FI.Workload = "crc";
  FI.Config = "wario-weakened";
  CrashReport R =
      runCrashCampaigns(MM, FI, {CampaignMode::Adversarial}).front();
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_FALSE(R.clean())
      << "the weakened build must diverge somewhere:\n"
      << R.format();
  const Divergence &D = R.Divergences.front();
  // Bisection ran: the minimized point still reproduces and is no later
  // than the originally injected point.
  EXPECT_LE(D.MinimalCycle, D.CrashCycle);
  EXPECT_GT(D.MinimalCycle, 0u);
  // The report localizes the divergence: a region id and the golden
  // instruction window around the minimal crash point.
  EXPECT_GE(D.RegionId, 0);
  EXPECT_FALSE(D.Window.empty());
  // And the rendered report carries the verdict.
  EXPECT_NE(R.format().find("DIVERGED"), std::string::npos);
}
