//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's only way into the WARio libraries: one thin wrapper per
/// public entry point. Each wrapper opens a span named after the layer it
/// enters (for traced runs) and, inside the count window, adds the
/// layer's work counts from the public result structs (PipelineStats,
/// EmulatorResult, EngineStats, CrashReport, RunReplyMsg). Nothing here
/// reaches below those entry points.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "driver/Pipeline.h"
#include "emu/Emulator.h"
#include "ir/Interp.h"
#include "serve/Client.h"
#include "verify/FaultInjector.h"
#include "workloads/Workloads.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Deterministic per-layer work counts. They accumulate only while the
/// count window is open — fixed work (one setup, one round of the
/// population, the generated-code pass and the checks) — so equal seeds
/// give equal counts however long the timed phase ran.
struct Counts {
  bool Enabled = false;
  std::map<std::string, double> Map;

  void add(const char *Name, double V) {
    if (Enabled)
      Map[Name] += V;
  }
  double get(const std::string &Name) const {
    auto It = Map.find(Name);
    return It == Map.end() ? 0 : It->second;
  }
};

Counts &counts();

/// Frontend: source to unpipelined IR. nullptr (and a message in
/// \p Error) on frontend diagnostics.
std::unique_ptr<wario::Module> buildIR(const wario::Workload &W,
                                       std::string &Error);

/// The reference interpreter over unpipelined frontend IR: the oracle
/// every emulated, served and campaign golden result is checked against.
wario::InterpResult oracle(const wario::Module &M);

void frontHalf(wario::Module &M);
std::unique_ptr<wario::Module> cloneIR(const wario::Module &M);
void middleEnd(wario::Module &M, const wario::PipelineOptions &PO);
wario::MModule backend(const wario::Module &M,
                       const wario::PipelineOptions &PO);

/// One compile cell from front-half IR: clone + middle end + back end.
wario::MModule compileCell(const wario::Module &FrontHalfIR,
                           const wario::PipelineOptions &PO);

std::unique_ptr<wario::Emulator> makeEmulator(const wario::MModule &MM);
wario::EmulatorResult emulatorRun(const wario::Emulator &E,
                                  const wario::EmulatorOptions &EO);

std::vector<wario::verify::CrashReport>
crashCampaigns(const wario::MModule &MM,
               const wario::verify::FaultInjectorOptions &FI,
               const std::vector<wario::verify::CampaignMode> &Modes);

/// Seconds a daemon request spent computing each stage. A reply carries
/// the stage seconds of every artifact it was built from, cached or not,
/// so only the stages below the first cache level that hit are counted.
struct StageSeconds {
  double Frontend = 0, FrontHalf = 0, MiddleEnd = 0, Backend = 0,
         Emulate = 0;
  double total() const {
    return Frontend + FrontHalf + MiddleEnd + Backend + Emulate;
  }
};
StageSeconds computedStages(const wario::serve::RunReplyMsg &Reply);

/// One daemon request. Inside a traced run, the reply's stage seconds
/// become synthetic child spans of the request span, so the request's
/// self time is what the client waited beyond server-side compute.
bool serveRun(wario::serve::Client &C, const wario::serve::RunRequestMsg &M,
              wario::serve::RunReplyMsg &Reply, std::string *Error);
bool serveStats(wario::serve::Client &C, wario::serve::StatsReplyMsg &Reply,
                std::string *Error);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
