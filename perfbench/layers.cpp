#include "layers.h"

#include "emu/ThreadedEngine.h"
#include "ir/Cloning.h"
#include "ir/Function.h"
#include "tracer.h"

using namespace wario;
using namespace perfbench;

Counts &perfbench::counts() {
  static Counts C;
  return C;
}

namespace {

/// Total instructions attached to blocks across \p M's functions.
unsigned countIRInstructions(const Module &M) {
  unsigned N = 0;
  for (const Function *F : M.functions())
    N += F->countInstructions();
  return N;
}

} // namespace

std::unique_ptr<Module> perfbench::buildIR(const Workload &W,
                                           std::string &Error) {
  std::unique_ptr<Module> M;
  DiagnosticEngine Diags;
  {
    Scope S("buildWorkloadIR", "frontend");
    M = buildWorkloadIR(W, Diags);
  }
  if (!M) {
    Error = "frontend failure on " + W.Name + ": " + Diags.formatAll();
    return nullptr;
  }
  counts().add("frontend.ir_insts", countIRInstructions(*M));
  return M;
}

InterpResult perfbench::oracle(const Module &M) {
  Scope S("interpretModule", "oracle");
  return interpretModule(M);
}

void perfbench::frontHalf(Module &M) {
  PipelineStats PS;
  {
    Scope S("runFrontHalf", "front_half");
    runFrontHalf(M, PS);
  }
  counts().add("front_half.ir_insts_out", countIRInstructions(M));
}

std::unique_ptr<Module> perfbench::cloneIR(const Module &M) {
  Scope S("cloneModule", "ir");
  return cloneModule(M);
}

void perfbench::middleEnd(Module &M, const PipelineOptions &PO) {
  PipelineStats PS;
  {
    Scope S("runMiddleEnd", "middle_end");
    runMiddleEnd(M, PO, PS);
  }
  Counts &C = counts();
  if (!C.Enabled)
    return;
  C.add("middle_end.ir_insts_out", countIRInstructions(M));
  C.add("middle_end.wars_found", PS.MiddleEnd.WarsFound);
  C.add("middle_end.checkpoints_inserted", PS.MiddleEnd.Inserted);
  C.add("middle_end.loops_clustered", PS.LoopClusterer.LoopsTransformed);
  C.add("middle_end.stores_sunk", PS.StoresSunk);
}

MModule perfbench::backend(const Module &M, const PipelineOptions &PO) {
  PipelineStats PS;
  MModule MM;
  {
    Scope S("runBackendStage", "backend");
    MM = runBackendStage(M, PO, PS);
  }
  Counts &C = counts();
  C.add("backend.text_bytes", MM.textSizeBytes());
  C.add("backend.vregs", PS.Backend.VRegs);
  C.add("backend.spilled", PS.Backend.Spilled);
  C.add("backend.spill_checkpoints", PS.Backend.SpillCheckpoints);
  return MM;
}

MModule perfbench::compileCell(const Module &FrontHalfIR,
                               const PipelineOptions &PO) {
  std::unique_ptr<Module> M = cloneIR(FrontHalfIR);
  middleEnd(*M, PO);
  return backend(*M, PO);
}

std::unique_ptr<Emulator> perfbench::makeEmulator(const MModule &MM) {
  Scope S("Emulator::Emulator", "emu");
  return std::make_unique<Emulator>(MM);
}

EmulatorResult perfbench::emulatorRun(const Emulator &E,
                                      const EmulatorOptions &EO) {
  Counts &C = counts();
  EngineStats ES;
  EmulatorResult R;
  {
    Scope S("Emulator::run", "emu");
    R = E.run(EO, "main", nullptr, C.Enabled ? &ES : nullptr);
  }
  if (!C.Enabled)
    return R;
  C.add("emu.runs", 1);
  C.add("emu.insts", double(R.InstructionsExecuted));
  C.add("emu.cycles", double(R.TotalCycles));
  C.add("emu.checkpoints", double(R.CheckpointsExecuted));
  C.add("emu.power_failures", R.PowerFailures);
  C.add("emu.interrupts", double(R.InterruptsTaken));
  C.add("emu.engine_insts", double(R.InstructionsExecuted));
  C.add("emu.dispatches", double(ES.Dispatches));
  C.add("emu.fused_insts", double(ES.FusedInstructions));
  C.add("emu.threaded_insts", double(ES.ThreadedInstructions));
  C.add("emu.superblock_dispatches", double(ES.SuperblockDispatches));
  C.add("emu.side_exits", double(ES.SideExits));
  return R;
}

std::vector<verify::CrashReport>
perfbench::crashCampaigns(const MModule &MM,
                          const verify::FaultInjectorOptions &FI,
                          const std::vector<verify::CampaignMode> &Modes) {
  std::vector<verify::CrashReport> Rs;
  {
    Scope S("runCrashCampaigns", "verify");
    Rs = verify::runCrashCampaigns(MM, FI, Modes);
  }
  Counts &C = counts();
  if (!C.Enabled || Rs.empty())
    return Rs;
  for (const verify::CrashReport &R : Rs) {
    C.add("verify.points", R.PointsTested);
    C.add("verify.divergences", double(R.Divergences.size()));
  }
  // Engine statistics are shared by the reports of one combined call.
  const verify::CrashReport &R = Rs.front();
  C.add("verify.union_points", R.UnionPoints);
  C.add("verify.shared_points", R.SharedPoints);
  C.add("verify.physical_runs", R.PhysicalRuns);
  C.add("verify.resumed_runs", R.ResumedRuns);
  C.add("verify.spliced_runs", R.SplicedRuns);
  C.add("verify.snapshots", R.Snapshots);
  C.add("verify.snapshot_bytes", double(R.SnapshotBytes));
  return Rs;
}

StageSeconds perfbench::computedStages(const serve::RunReplyMsg &Reply) {
  serve::Provenance P = serve::Provenance::fromBits(Reply.ProvenanceBits);
  StageSeconds S;
  if (P.RunHit)
    return S;
  S.Emulate = Reply.EmulateSeconds;
  if (P.CompileHit)
    return S;
  S.Backend = Reply.BackendSeconds;
  if (P.MidHit)
    return S;
  S.MiddleEnd = Reply.MiddleEndSeconds;
  if (P.FrontHit)
    return S;
  S.Frontend = Reply.FrontendSeconds;
  S.FrontHalf = Reply.FrontHalfSeconds;
  return S;
}

bool perfbench::serveRun(serve::Client &C, const serve::RunRequestMsg &M,
                         serve::RunReplyMsg &Reply, std::string *Error) {
  bool Ok;
  {
    Scope S("Client::run", "serve");
    Ok = C.run(M, Reply, Error);
    if (Ok && tracer().enabled()) {
      StageSeconds St = computedStages(Reply);
      Tracer &T = tracer();
      T.addSynthetic("server:frontend", "frontend", St.Frontend);
      T.addSynthetic("server:front_half", "front_half", St.FrontHalf);
      T.addSynthetic("server:middle_end", "middle_end", St.MiddleEnd);
      T.addSynthetic("server:backend", "backend", St.Backend);
      T.addSynthetic("server:emulate", "emu", St.Emulate);
    }
  }
  // A run-level hit replays a cached result: the emulator did no work.
  Counts &Cn = counts();
  if (!Ok || !Cn.Enabled ||
      serve::Provenance::fromBits(Reply.ProvenanceBits).RunHit)
    return Ok;
  Cn.add("emu.runs", 1);
  Cn.add("emu.insts", double(Reply.InstructionsExecuted));
  Cn.add("emu.cycles", double(Reply.TotalCycles));
  Cn.add("emu.checkpoints", double(Reply.CheckpointsExecuted));
  Cn.add("emu.power_failures", Reply.PowerFailures);
  Cn.add("emu.interrupts", double(Reply.InterruptsTaken));
  return Ok;
}

bool perfbench::serveStats(serve::Client &C, serve::StatsReplyMsg &Reply,
                           std::string *Error) {
  Scope S("Client::stats", "serve");
  return C.stats(Reply, Error);
}
