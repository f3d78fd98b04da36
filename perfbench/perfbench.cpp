//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench: the repository benchmark.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--workdir DIR] [--revision REV]
///
/// Runs one workload in process on the Release libraries with default
/// library options, then prints two JSON lines on stdout: a report
/// (self-description, the workload's own named metrics, per-layer
/// attribution in traced runs) and, last, the result object
/// {"correct", "attempted", "failed", "metrics"}. Untraced runs report
/// the end-to-end metrics; traced runs (--trace 1) report the per-layer
/// metrics and write a Chrome trace-event file under --workdir.
///
/// Usually started through perfbench/run.py, which builds this binary.
///
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "layers.h"
#include "tracer.h"

#include "emu/ThreadedEngine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <string>
#include <thread>

extern char **environ;

using namespace perfbench;

namespace {

/// Set-up repeats at least MinSetups times and until MinSetupSeconds
/// have passed (cheap set-ups repeat more, so their median is steady);
/// setup_s is the median.
constexpr int MinSetups = 3;
constexpr int MaxSetups = 25;
constexpr double MinSetupSeconds = 2.0;

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--revision REV]\n",
               Msg);
  std::exit(2);
}

uint64_t parseUnsigned(const std::string &Flag, const char *V) {
  char *End = nullptr;
  unsigned long long N = std::strtoull(V, &End, 10);
  if (!*V || *End)
    usage((Flag + " wants a whole number").c_str());
  return N;
}

/// The benchmark measures what users get: no WARIO_* override from the
/// caller's environment (engine, snapshots, cache budget) reaches the
/// libraries. The one setting made here is the library job width, which
/// never changes results (outputs are byte-identical for every
/// WARIO_JOBS) and keeps the compile matrix single-threaded.
void pinEnvironment() {
  std::vector<std::string> Drop;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "WARIO_", 6) == 0)
      Drop.emplace_back(*E, std::strcspn(*E, "="));
  for (const std::string &Name : Drop)
    unsetenv(Name.c_str());
  setenv("WARIO_JOBS", "1", 1);
}

/// Returns the memory the discarded set-up repetitions freed to the
/// system and restarts the peak-RSS count, so peak_rss_mb covers the
/// kept set-up's state plus the timed phase and checks. (Without this,
/// whether a later set-up's threads reuse an earlier one's malloc arena
/// swings the peak by ~90 MiB between runs.)
void resetPeakRss() {
  malloc_trim(0);
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

/// Peak resident set size (VmHWM) in MiB.
double peakRssMiB() {
  double KiB = 0;
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    while (std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %lf kB", &KiB) == 1)
        break;
    std::fclose(F);
  }
  return KiB / 1024.0;
}

/// Seconds a fixed integer-and-memory loop takes on the calling thread.
double probeSeconds() {
  static std::vector<uint32_t> Table(1 << 16, 1);
  Clock::time_point T0 = Clock::now();
  uint64_t X = 1;
  for (int I = 0; I != 400'000; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    Table[(X >> 40) & (Table.size() - 1)] += uint32_t(X);
  }
  volatile uint64_t Sink = X;
  (void)Sink;
  return secondsSince(T0);
}

/// Moves every thread of the process to the CPU of \p Allowed on which
/// the probe loop currently runs fastest: on a shared host, other
/// tenants slow some CPUs by up to 2x for seconds at a time.
int pinToQuietestCpu(const cpu_set_t &Allowed) {
  int Best = -1;
  double BestSeconds = 1e9;
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu) {
    if (!CPU_ISSET(Cpu, &Allowed))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    if (sched_setaffinity(0, sizeof(One), &One) != 0)
      continue;
    double S = std::min(probeSeconds(), probeSeconds());
    if (S < BestSeconds) {
      BestSeconds = S;
      Best = Cpu;
    }
  }
  if (Best < 0)
    return -1;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Best, &One);
  if (DIR *D = opendir("/proc/self/task")) {
    while (struct dirent *E = readdir(D))
      if (E->d_name[0] != '.')
        sched_setaffinity(pid_t(std::atoi(E->d_name)), sizeof(One), &One);
    closedir(D);
  }
  return Best;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// JSON writer for flat objects of numbers and strings.
class JsonObject {
public:
  JsonObject &num(const std::string &K, double V) {
    if (!std::isfinite(V))
      V = 0;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    return raw(K, Buf);
  }
  JsonObject &str(const std::string &K, const std::string &V) {
    return raw(K, quote(V));
  }
  JsonObject &boolean(const std::string &K, bool V) {
    return raw(K, V ? "true" : "false");
  }
  JsonObject &raw(const std::string &K, const std::string &V) {
    Body += (Body.empty() ? "" : ", ") + quote(K) + ": " + V;
    return *this;
  }
  std::string text() const { return "{" + Body + "}"; }

  static std::string quote(const std::string &S) {
    std::string Out = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      if (static_cast<unsigned char>(C) < 0x20)
        Out += ' ';
      else
        Out += C;
    }
    return Out + "\"";
  }

private:
  std::string Body;
};

std::string numList(const std::vector<double> &V) {
  std::string Out = "[";
  for (double X : V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%s%.6g", Out.size() > 1 ? ", " : "", X);
    Out += Buf;
  }
  return Out + "]";
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  JsonObject O;
  for (const Metric &M : Ms)
    O.raw(M.Name, JsonObject().num("value", M.Value).str("unit", M.Unit)
                      .text());
  return O.text();
}

/// Per-layer metrics of a traced run: self times and shares from the
/// span summary, work counts from the count window.
std::vector<Metric> perLayerMetrics(const LayerSummary &S, const Counts &Cn,
                                    double OverheadSeconds) {
  auto Self = [&](const char *Layer) {
    auto It = S.LayerSelf.find(Layer);
    return It == S.LayerSelf.end() ? 0.0 : It->second;
  };
  auto Named = [&](const char *Name) {
    auto It = S.NameSelf.find(Name);
    return It == S.NameSelf.end() ? 0.0 : It->second;
  };
  auto C = [&](const char *Name) { return Cn.get(Name); };
  const double Wall = S.WallSeconds;
  return {
      {"frontend.self_s", Self("frontend"), "s"},
      {"frontend.ir_insts", C("frontend.ir_insts"), "count"},
      {"front_half.self_s", Self("front_half"), "s"},
      {"front_half.ir_insts_out", C("front_half.ir_insts_out"), "count"},
      {"ir.clone_s", Self("ir"), "s"},
      {"middle_end.self_s", Self("middle_end"), "s"},
      {"middle_end.share", ratio(Self("middle_end"), Wall), "ratio"},
      {"middle_end.ir_insts_out", C("middle_end.ir_insts_out"), "count"},
      {"middle_end.wars_found", C("middle_end.wars_found"), "count"},
      {"middle_end.checkpoints_inserted", C("middle_end.checkpoints_inserted"),
       "count"},
      {"middle_end.loops_clustered", C("middle_end.loops_clustered"), "count"},
      {"middle_end.stores_sunk", C("middle_end.stores_sunk"), "count"},
      {"backend.self_s", Self("backend"), "s"},
      {"backend.share", ratio(Self("backend"), Wall), "ratio"},
      {"backend.text_bytes", C("backend.text_bytes"), "bytes"},
      {"backend.vregs", C("backend.vregs"), "count"},
      {"backend.spilled", C("backend.spilled"), "count"},
      {"backend.spill_checkpoints", C("backend.spill_checkpoints"), "count"},
      {"emu.setup_s", Named("Emulator::Emulator"), "s"},
      {"emu.run_self_s", Named("Emulator::run") + Named("server:emulate"),
       "s"},
      {"emu.share", ratio(Self("emu"), Wall), "ratio"},
      {"emu.insts", C("emu.insts"), "count"},
      {"emu.cycles", C("emu.cycles"), "count"},
      {"emu.checkpoints", C("emu.checkpoints"), "count"},
      {"emu.power_failures", C("emu.power_failures"), "count"},
      {"emu.interrupts", C("emu.interrupts"), "count"},
      {"emu.dispatches", C("emu.dispatches"), "count"},
      {"emu.fused_inst_ratio",
       ratio(C("emu.fused_insts"), C("emu.threaded_insts")), "ratio"},
      {"emu.threaded_inst_ratio",
       ratio(C("emu.threaded_insts"), C("emu.engine_insts")), "ratio"},
      {"emu.superblock_dispatches", C("emu.superblock_dispatches"), "count"},
      {"emu.side_exit_ratio",
       ratio(C("emu.side_exits"), C("emu.superblock_dispatches")), "ratio"},
      {"verify.points", C("verify.points"), "count"},
      {"verify.physical_runs", C("verify.physical_runs"), "count"},
      {"verify.resumed_ratio",
       ratio(C("verify.resumed_runs"), C("verify.physical_runs")), "ratio"},
      {"verify.spliced_ratio",
       ratio(C("verify.spliced_runs"), C("verify.physical_runs")), "ratio"},
      {"verify.shared_points_ratio",
       ratio(C("verify.shared_points"),
             C("verify.union_points") + C("verify.shared_points")),
       "ratio"},
      {"verify.snapshots", C("verify.snapshots"), "count"},
      {"verify.snapshot_mib", C("verify.snapshot_bytes") / 1048576.0, "MiB"},
      {"verify.divergences", C("verify.divergences"), "count"},
      {"serve.hit_ratio.front", C("serve.hit_ratio.front"), "ratio"},
      {"serve.hit_ratio.mid", C("serve.hit_ratio.mid"), "ratio"},
      {"serve.hit_ratio.compile", C("serve.hit_ratio.compile"), "ratio"},
      {"serve.hit_ratio.run", C("serve.hit_ratio.run"), "ratio"},
      {"serve.evictions", C("serve.evictions"), "count"},
      {"serve.bytes_used_mib", C("serve.bytes_used_mib"), "MiB"},
      {"oracle.self_s", Self("oracle"), "s"},
      {"trace.wall_s", Wall, "s"},
      {"trace.unattributed_s", S.UnattributedSeconds, "s"},
      {"trace.overhead_s", OverheadSeconds, "s"},
  };
}

/// Every layer's self time and share, including the layers a workload
/// does not touch, plus the unattributed remainder: the values sum to the
/// traced wall time.
std::string layerTable(const LayerSummary &S) {
  JsonObject O;
  for (const char *L : {"frontend", "front_half", "ir", "middle_end",
                        "backend", "emu", "verify", "serve", "oracle"}) {
    auto It = S.LayerSelf.find(L);
    double Self = It == S.LayerSelf.end() ? 0 : It->second;
    O.raw(L, JsonObject()
                 .num("self_s", Self)
                 .num("share", ratio(Self, S.WallSeconds))
                 .text());
  }
  O.raw("unattributed", JsonObject()
                            .num("self_s", S.UnattributedSeconds)
                            .num("share", ratio(S.UnattributedSeconds,
                                                S.WallSeconds))
                            .text());
  return O.text();
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  std::string Revision = "unknown";
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = argv[++I];
    if (Flag == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      C.Seed = parseUnsigned(Flag, V);
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      C.Seconds = double(parseUnsigned(Flag, V));
    } else if (Flag == "--trace") {
      C.Trace = parseUnsigned(Flag, V) != 0;
    } else if (Flag == "--workdir") {
      C.WorkDir = V;
    } else if (Flag == "--revision") {
      Revision = V;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed)
    usage("--workload and --seed are required");
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: built with CMAKE_BUILD_TYPE='%s'; only Release "
                 "builds are measured\n",
                 PERFBENCH_BUILD_TYPE);
    return 1;
  }
  pinEnvironment();
  C.NProc = std::max(1u, std::thread::hardware_concurrency());

  // Fixed widths, each no greater than nproc: a one-job campaign fan-out
  // and one client against a one-job daemon pool. One active thread at a
  // time keeps run-to-run noise on a shared host low.
  const unsigned CampaignJobs = 1;
  const size_t CacheBytes = size_t(256) << 20;
  std::unique_ptr<BenchWorkload> W = makeWorkload(C, CampaignJobs, CacheBytes);
  if (!W) {
    std::string Known;
    for (const std::string &N : workloadNames())
      Known += " " + N;
    usage(("unknown workload '" + C.Workload + "'; known:" + Known).c_str());
  }

  cpu_set_t Allowed;
  sched_getaffinity(0, sizeof(Allowed), &Allowed);
  std::vector<double> RoundCpu; ///< The CPU each round ran on.

  Outcome O;
  Counts &Cn = counts();
  if (C.Trace)
    tracer().start();

  // Set-up, repeated; the last instance is kept and its work is counted.
  std::vector<double> SetupSeconds;
  double SetupTotal = 0;
  while (SetupSeconds.size() < size_t(MinSetups) ||
         (SetupTotal < MinSetupSeconds &&
          SetupSeconds.size() < size_t(MaxSetups))) {
    // Counts are reset so they cover exactly the kept (last) set-up.
    Cn.Map.clear();
    Cn.Enabled = true;
    pinToQuietestCpu(Allowed);
    Scope S("setup");
    Clock::time_point T0 = Clock::now();
    W->setup(O);
    SetupSeconds.push_back(secondsSince(T0));
    SetupTotal += SetupSeconds.back();
  }
  resetPeakRss();

  // The timed phase: whole rounds until the budget has passed. Only the
  // first round's work is counted.
  Outcome Phase;
  std::vector<double> RoundWall;
  unsigned Rounds = 0;
  double PhaseSeconds = 0;
  {
    Scope S("measure");
    Clock::time_point T0 = Clock::now();
    do {
      Cn.Enabled = Rounds == 0;
      RoundCpu.push_back(pinToQuietestCpu(Allowed));
      Scope R("round");
      Clock::time_point R0 = Clock::now();
      W->round(Rounds++, Phase);
      RoundWall.push_back(secondsSince(R0));
    } while (secondsSince(T0) < C.Seconds);
    PhaseSeconds = secondsSince(T0);
    tracer().clearOp();
  }

  Cn.Enabled = true;
  GenMetrics Gen = generatedCodePass(W->programs(), O);
  W->check(O);
  Cn.Enabled = false;

  LayerSummary Summary;
  double OverheadSeconds = 0;
  std::string TraceFile;
  if (C.Trace) {
    tracer().stop();
    Summary = tracer().summarize();
    TraceFile = C.WorkDir + "/trace-" + C.Workload + "-seed" +
                std::to_string(C.Seed) + ".json";
    O.check(tracer().writeChromeTrace(TraceFile),
            "cannot write " + TraceFile);
    // Tracing overhead: the same rounds again with the tracer off.
    Outcome Untraced;
    Clock::time_point T0 = Clock::now();
    for (unsigned R = 0; R != Rounds; ++R) {
      pinToQuietestCpu(Allowed);
      W->round(R, Untraced);
    }
    OverheadSeconds = PhaseSeconds - secondsSince(T0);
    O.Attempted += Untraced.Attempted;
    O.Failed += Untraced.Failed;
    O.Errors.insert(O.Errors.end(), Untraced.Errors.begin(),
                    Untraced.Errors.end());
  }

  W->finish(Phase, Rounds);
  O.Attempted += Phase.Attempted;
  O.Failed += Phase.Failed;
  O.Errors.insert(O.Errors.end(), Phase.Errors.begin(), Phase.Errors.end());
  for (const std::string &E : O.Errors)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", E.c_str());

  std::vector<double> Best = Phase.bestSeconds();
  std::vector<Metric> EndToEnd = {
      {"setup_s", median(SetupSeconds), "s"},
      {"peak_rss_mb", peakRssMiB(), "MiB"},
      {"ops_per_s", double(Best.size()) / sum(Best), "1/s"},
      {"op_p50_ms", quantile(Best, 0.5) * 1e3, "ms"},
      {"op_p90_ms", quantile(Best, 0.9) * 1e3, "ms"},
      {"gen_overhead_vs_plainc", Gen.OverheadVsPlainC, "ratio"},
      {"gen_checkpoints", Gen.Checkpoints, "count"},
      {"gen_text_bytes", Gen.TextBytes, "bytes"},
  };

  JsonObject Report;
  Report.str("workload", C.Workload)
      .num("seed", double(C.Seed))
      .boolean("trace", C.Trace)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .num("nproc", C.NProc)
      .num("library_jobs", 1)
      .num("campaign_jobs", CampaignJobs)
      .num("server_jobs", 1)
      .num("connections", 1)
      .num("cache_bytes", double(CacheBytes))
      .str("engine", wario::engineName(wario::resolveEngine(
                         wario::EngineKind::Auto)))
      .str("revision", Revision)
      .num("seconds_budget", C.Seconds)
      .raw("setup_reps_s", numList(SetupSeconds))
      .num("phase_s", PhaseSeconds)
      .num("rounds", Rounds)
      .num("ops", double(Phase.OpSeconds.size()))
      .raw("round_wall_s", numList(RoundWall))
      .raw("round_cpu", numList(RoundCpu))
      .raw("end_to_end", metricsJson(EndToEnd))
      .raw("named", metricsJson(Phase.Named));
  std::vector<Metric> Counted;
  for (const auto &[Name, V] : Cn.Map)
    Counted.push_back({Name, V, "count"});
  Report.raw("counts", metricsJson(Counted));
  std::vector<Metric> Result = EndToEnd;
  if (C.Trace) {
    Report.raw("layers", layerTable(Summary))
        .num("spans", double(tracer().spanCount()))
        .str("trace_file", TraceFile);
    Result = perLayerMetrics(Summary, Cn, OverheadSeconds);
  }
  std::printf("%s\n", JsonObject().raw("perfbench", Report.text()).text()
                          .c_str());

  bool Correct = O.Failed == 0 && O.Attempted > 0;
  std::printf("%s\n", JsonObject()
                          .boolean("correct", Correct)
                          .num("attempted", double(O.Attempted))
                          .num("failed", double(O.Failed))
                          .raw("metrics", metricsJson(Result))
                          .text()
                          .c_str());
  return 0;
}
