#include "verify/FaultInjector.h"

#include "emu/Snapshot.h"
#include "support/Parallel.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <sstream>

using namespace wario;
using namespace wario::verify;

namespace {

/// Only the first MaxDivergences divergences of a campaign are bisected
/// and get a golden window (all are still counted); each lists at most
/// MaxReportedAddrs diverging NVM bytes. The window spans WindowRadius
/// cycles either side of the minimal crash point.
constexpr unsigned MaxDivergences = 4;
constexpr unsigned MaxReportedAddrs = 8;
constexpr uint64_t WindowRadius = 24;

/// A power schedule that fails exactly once, at active-cycle budget
/// \p CrashCycle, and then stays up for the rest of the run.
PowerSchedule singleCrash(uint64_t CrashCycle) {
  return PowerSchedule::trace({CrashCycle, UINT64_MAX}, "single-crash");
}

/// Golden output must survive re-execution as a subsequence: a crash can
/// legitimately *replay* out-writes (at-least-once semantics) but must
/// never alter, reorder, or drop them.
bool isSubsequence(const std::vector<int32_t> &Needle,
                   const std::vector<int32_t> &Hay) {
  size_t I = 0;
  for (int32_t V : Hay)
    if (I < Needle.size() && Needle[I] == V)
      ++I;
  return I == Needle.size();
}

std::string hexByte(uint8_t B) {
  char Buf[8];
  std::snprintf(Buf, sizeof(Buf), "0x%02x", B);
  return Buf;
}

std::string hexAddr(uint32_t A) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "0x%x", A);
  return Buf;
}

/// Compares one crash-injected run against the golden run. Returns the
/// divergence (without bisection detail) or nullopt when consistent.
/// \p NvmKnownEqual: the run tail-spliced against the golden snapshot
/// chain, so its final NVM image *is* the golden image by construction
/// (and was elided — see ReplayPlan::OmitFinalMemoryOnSplice).
std::optional<Divergence> compareRun(const EmulatorResult &Golden,
                                     const EmulatorResult &Crashed,
                                     uint64_t CrashCycle,
                                     bool NvmKnownEqual = false) {
  Divergence D;
  D.CrashCycle = D.MinimalCycle = CrashCycle;
  if (!Crashed.Ok) {
    D.Kind = DivergenceKind::RunError;
    D.Detail = Crashed.Error;
    return D;
  }
  if (Crashed.ReturnValue != Golden.ReturnValue) {
    D.Kind = DivergenceKind::ReturnMismatch;
    std::ostringstream OS;
    OS << "golden returned " << Golden.ReturnValue << ", crash run returned "
       << Crashed.ReturnValue;
    D.Detail = OS.str();
    return D;
  }
  // Final NVM image, minus the checkpoint scratch range: two runs that
  // committed different checkpoints legitimately differ there.
  size_t N = NvmKnownEqual
                 ? 0
                 : std::min(Golden.FinalMemory.size(),
                            Crashed.FinalMemory.size());
  unsigned Diffs = 0;
  for (size_t A = 0; A != N; ++A) {
    if (A >= ckpt::Base && A < ckpt::End)
      continue;
    if (Golden.FinalMemory[A] == Crashed.FinalMemory[A])
      continue;
    if (Diffs++ < MaxReportedAddrs)
      D.Addrs.push_back(
          {uint32_t(A), Golden.FinalMemory[A], Crashed.FinalMemory[A]});
  }
  if (Diffs) {
    D.Kind = DivergenceKind::NvmMismatch;
    std::ostringstream OS;
    OS << Diffs << " diverging NVM bytes (first " << D.Addrs.size()
       << " listed)";
    D.Detail = OS.str();
    return D;
  }
  if (!isSubsequence(Golden.Output, Crashed.Output)) {
    D.Kind = DivergenceKind::OutputMismatch;
    std::ostringstream OS;
    OS << "golden output (" << Golden.Output.size()
       << " values) is not a subsequence of the crash run's output ("
       << Crashed.Output.size() << " values)";
    D.Detail = OS.str();
    return D;
  }
  return std::nullopt;
}

} // namespace

const char *wario::verify::campaignModeName(CampaignMode M) {
  switch (M) {
  case CampaignMode::RegionBoundaries: return "region-boundaries";
  case CampaignMode::Stratified: return "stratified";
  case CampaignMode::Adversarial: return "adversarial";
  }
  return "?";
}

const char *wario::verify::divergenceKindName(DivergenceKind K) {
  switch (K) {
  case DivergenceKind::NvmMismatch: return "nvm-mismatch";
  case DivergenceKind::ReturnMismatch: return "return-mismatch";
  case DivergenceKind::OutputMismatch: return "output-mismatch";
  case DivergenceKind::RunError: return "run-error";
  }
  return "?";
}

namespace {

/// Crash points for one campaign mode — identical point selection (and
/// cap) to the original single-mode campaigns, so combined campaigns
/// report the same CandidatePoints/PointsTested per mode.
std::vector<uint64_t> modePoints(CampaignMode Mode,
                                 const EmulatorResult &Golden,
                                 const FaultInjectorOptions &Opts,
                                 unsigned &CandidatePoints) {
  std::vector<uint64_t> Points;
  switch (Mode) {
  case CampaignMode::RegionBoundaries:
    Points.push_back(1); // During the initial boot: cold-restart path.
    for (const EmulatorResult::CommitEvent &C : Golden.Commits) {
      Points.push_back(C.BeginCycle); // Immediately before the commit.
      Points.push_back(C.EndCycle);   // Immediately after the commit.
    }
    break;
  case CampaignMode::Stratified: {
    XorShift32 Rng(Opts.Seed);
    uint64_t Range = std::max<uint64_t>(Golden.TotalCycles, 1);
    unsigned Samples = std::max(Opts.Samples, 1u);
    for (unsigned S = 0; S != Samples; ++S) {
      uint64_t Lo = 1 + Range * S / Samples;
      uint64_t Hi = std::max(1 + Range * (S + 1) / Samples, Lo + 1);
      Points.push_back(Lo + Rng.next() % (Hi - Lo));
    }
    break;
  }
  case CampaignMode::Adversarial:
    for (const EmulatorResult::CommitEvent &C : Golden.Commits)
      Points.push_back(C.BeginCycle); // The commit almost happened.
    for (uint64_t S : Golden.StoreCycles)
      Points.push_back(S); // The store just landed.
    break;
  }
  std::sort(Points.begin(), Points.end());
  Points.erase(std::unique(Points.begin(), Points.end()), Points.end());
  CandidatePoints = unsigned(Points.size());

  // Deterministic evenly-strided cap — never silent: the report shows
  // candidates vs tested.
  if (Opts.MaxPoints && Points.size() > Opts.MaxPoints) {
    std::vector<uint64_t> Kept;
    Kept.reserve(Opts.MaxPoints);
    for (unsigned I = 0; I != Opts.MaxPoints; ++I)
      Kept.push_back(Points[size_t(I) * Points.size() / Opts.MaxPoints]);
    Kept.erase(std::unique(Kept.begin(), Kept.end()), Kept.end());
    Points = std::move(Kept);
  }
  return Points;
}

} // namespace

std::vector<CrashReport>
wario::verify::runCrashCampaigns(const MModule &MM,
                                 const FaultInjectorOptions &Opts,
                                 const std::vector<CampaignMode> &Modes) {
  std::vector<CrashReport> Reports(Modes.size());
  for (size_t I = 0; I != Modes.size(); ++I) {
    Reports[I].Workload = Opts.Workload;
    Reports[I].Config = Opts.Config;
    Reports[I].Mode = campaignModeName(Modes[I]);
  }
  if (Modes.empty())
    return Reports;

  const bool Snaps = Opts.UseSnapshots;
  Emulator E(MM);

  // 1. Golden run: continuous power, event trace on. With snapshots
  // enabled this same run doubles as the recording run — record() is
  // result-identical to run(), so the reports cannot tell the difference.
  EmulatorOptions GoldenEO = Opts.BaseEO;
  GoldenEO.Power = PowerSchedule::continuous();
  GoldenEO.CollectEventTrace = true;
  GoldenEO.CollectRegionSizes = false;
  GoldenEO.TraceWindowLo = GoldenEO.TraceWindowHi = 0;
  SnapshotChain Chain;
  EmulatorResult Golden = Snaps ? E.record(GoldenEO, Chain)
                                : E.run(GoldenEO);
  for (CrashReport &R : Reports)
    ++R.EmulationsRun;
  if (!Golden.Ok) {
    for (CrashReport &R : Reports)
      R.Error = "golden run failed: " + Golden.Error;
    return Reports;
  }
  for (CrashReport &R : Reports) {
    R.Ok = true;
    R.GoldenCycles = Golden.TotalCycles;
    R.GoldenCommits = Golden.Commits.size();
    R.GoldenReturn = Golden.ReturnValue;
  }

  // 2. Crash points per mode, then deduplicated across modes: the modes
  // deliberately overlap (every adversarial pre-commit point is also a
  // region-boundary point), and each distinct budget is injected once.
  std::vector<std::vector<uint64_t>> ModeP(Modes.size());
  unsigned TotalModePoints = 0;
  for (size_t I = 0; I != Modes.size(); ++I) {
    ModeP[I] = modePoints(Modes[I], Golden, Opts, Reports[I].CandidatePoints);
    Reports[I].PointsTested = unsigned(ModeP[I].size());
    TotalModePoints += unsigned(ModeP[I].size());
  }
  std::vector<uint64_t> Union;
  Union.reserve(TotalModePoints);
  for (const std::vector<uint64_t> &P : ModeP)
    Union.insert(Union.end(), P.begin(), P.end());
  std::sort(Union.begin(), Union.end());
  Union.erase(std::unique(Union.begin(), Union.end()), Union.end());

  // 3. Fan-out over the union, once per distinct point. Injected runs
  // never need the event trace. With snapshots: resume from the
  // governing snapshot of the crash budget and splice the golden tail
  // once the post-crash state reconverges (the compare then skips the
  // elided NVM image — it equals the golden image by construction).
  EmulatorOptions RunEO = Opts.BaseEO;
  RunEO.CollectEventTrace = false;
  RunEO.CollectRegionSizes = false;
  RunEO.TraceWindowLo = RunEO.TraceWindowHi = 0;
  std::atomic<unsigned> Physical{1}; // The golden run.
  std::atomic<unsigned> Resumed{0}, Spliced{0};
  auto RunPoint = [&](uint64_t CrashCycle,
                      EmulatorScratch *Scr) -> std::optional<Divergence> {
    EmulatorOptions EO = RunEO;
    EO.Power = singleCrash(CrashCycle);
    ++Physical;
    if (!Snaps)
      return compareRun(Golden, E.run(EO), CrashCycle);
    ReplayPlan Plan;
    Plan.Chain = &Chain;
    Plan.AllowTailSplice = true;
    Plan.OmitFinalMemoryOnSplice = true;
    ReplayOutcome Out;
    EmulatorResult Res = E.replay(EO, Plan, "main", Scr, &Out);
    Resumed += Out.Resumed;
    Spliced += Out.Spliced;
    return compareRun(Golden, Res, CrashCycle,
                      /*NvmKnownEqual=*/Out.Spliced);
  };

  std::vector<std::optional<Divergence>> UnionFound(Union.size());
  parallelFor(
      Union.size(),
      [&](size_t J) {
        thread_local EmulatorScratch Scr;
        UnionFound[J] = RunPoint(Union[J], &Scr);
      },
      Opts.Jobs);

  // Probe memo: the union results seed it; bisection probes (often shared
  // between modes hitting the same divergence) extend it sequentially.
  std::map<uint64_t, std::optional<Divergence>> Memo;
  for (size_t J = 0; J != Union.size(); ++J)
    Memo.emplace(Union[J], std::move(UnionFound[J]));
  EmulatorScratch SeqScr;
  auto ProbeAt = [&](uint64_t C) -> const std::optional<Divergence> & {
    auto It = Memo.find(C);
    if (It == Memo.end())
      It = Memo.emplace(C, RunPoint(C, &SeqScr)).first;
    return It->second;
  };

  // 4. Per mode: collect in ascending crash-cycle order; minimize the
  // first few. EmulationsRun counts every *logical* emulation of the
  // mode's standalone campaign — fan-out, probes, windows — whether or
  // not the memo already had the (deterministic, identical) answer.
  for (size_t MI = 0; MI != Modes.size(); ++MI) {
    CrashReport &R = Reports[MI];
    R.EmulationsRun += unsigned(ModeP[MI].size());
    for (uint64_t C : ModeP[MI]) {
      const std::optional<Divergence> &Found = Memo.at(C);
      if (!Found)
        continue;
      Divergence D = *Found;
      if (R.Divergences.size() < MaxDivergences) {
        if (Opts.Bisect) {
          // Find the earliest diverging budget at or below the injected
          // one. Budget 0 crashes before any instruction executes and a
          // cold restart must always be consistent, so it anchors the
          // clean side; the loop maintains (Lo clean, Hi diverging).
          uint64_t Lo = 0, Hi = D.CrashCycle;
          Divergence AtHi = D;
          while (Hi - Lo > 1) {
            uint64_t Mid = Lo + (Hi - Lo) / 2;
            const std::optional<Divergence> &P = ProbeAt(Mid);
            ++R.EmulationsRun;
            if (P) {
              Hi = Mid;
              AtHi = *P;
            } else {
              Lo = Mid;
            }
          }
          AtHi.CrashCycle = D.CrashCycle;
          AtHi.MinimalCycle = Hi;
          D = AtHi;
        }
        // Last checkpoint the golden run had committed before the crash.
        int Region = -1;
        for (const EmulatorResult::CommitEvent &C2 : Golden.Commits) {
          if (C2.EndCycle > D.MinimalCycle)
            break;
          ++Region;
        }
        D.RegionId = Region;
        // Golden instruction window around the minimal crash point. With
        // snapshots: resume just before the window and stop right after
        // it (the Window vector is complete by then; nothing later in
        // the run can change it).
        EmulatorOptions WinEO = GoldenEO;
        WinEO.CollectEventTrace = false;
        WinEO.TraceWindowLo = D.MinimalCycle > WindowRadius
                                  ? D.MinimalCycle - WindowRadius
                                  : 0;
        WinEO.TraceWindowHi = D.MinimalCycle + WindowRadius;
        ++Physical;
        if (Snaps) {
          ReplayPlan WinPlan;
          WinPlan.Chain = &Chain;
          WinPlan.StopAtActiveCycle = WinEO.TraceWindowHi + 1;
          D.Window = E.replay(WinEO, WinPlan, "main", &SeqScr).Window;
        } else {
          D.Window = E.run(WinEO).Window;
        }
        ++R.EmulationsRun;
      }
      R.Divergences.push_back(std::move(D));
    }
  }

  for (CrashReport &R : Reports) {
    R.UnionPoints = unsigned(Union.size());
    R.SharedPoints = TotalModePoints - unsigned(Union.size());
    R.PhysicalRuns = Physical.load();
    R.ResumedRuns = Resumed.load();
    R.SplicedRuns = Spliced.load();
    R.Snapshots = unsigned(Chain.size());
    R.SnapshotBytes = Chain.bytes();
  }
  return Reports;
}

std::string CrashReport::format() const {
  std::ostringstream OS;
  OS << "crash-consistency report: workload=" << Workload
     << " config=" << Config << " mode=" << Mode << "\n";
  if (!Ok) {
    OS << "  campaign failed: " << Error << "\n";
    return OS.str();
  }
  OS << "  golden: " << GoldenCycles << " cycles, " << GoldenCommits
     << " commits, return " << GoldenReturn << "\n";
  OS << "  points: " << CandidatePoints << " candidate, " << PointsTested
     << " tested; emulations: " << EmulationsRun << "\n";
  if (Divergences.empty()) {
    OS << "  verdict: CONSISTENT\n";
    return OS.str();
  }
  OS << "  verdict: DIVERGED at " << Divergences.size() << " of "
     << PointsTested << " points\n";
  for (size_t I = 0; I != Divergences.size(); ++I) {
    const Divergence &D = Divergences[I];
    OS << "  divergence #" << I << ": injected @" << D.CrashCycle
       << ", minimized @" << D.MinimalCycle << ", region ";
    if (D.RegionId < 0)
      OS << "pre-first-commit";
    else
      OS << D.RegionId;
    OS << ", kind " << divergenceKindName(D.Kind) << "\n";
    if (!D.Detail.empty())
      OS << "    detail: " << D.Detail << "\n";
    for (const AddrDiff &A : D.Addrs)
      OS << "    nvm " << hexAddr(A.Addr) << ": golden " << hexByte(A.Golden)
         << " crashed " << hexByte(A.Crashed) << "\n";
    if (!D.Window.empty()) {
      OS << "    window:\n";
      for (const std::string &W : D.Window)
        OS << "      " << W << "\n";
    }
  }
  return OS.str();
}
