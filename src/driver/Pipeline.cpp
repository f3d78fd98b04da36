#include "driver/Pipeline.h"

#include "analysis/Verifier.h"
#include "transforms/Inliner.h"
#include "transforms/LoopUnroller.h"
#include "transforms/Mem2Reg.h"
#include "transforms/RegionBounder.h"
#include "transforms/Utils.h"
#include "transforms/WriteClusterer.h"

#include <cstdio>
#include <cstdlib>

using namespace wario;

namespace {

/// In builds without NDEBUG, aborts with the verifier's report when \p M
/// is malformed after \p Stage. NDEBUG builds compile the check out.
void verifyAfter([[maybe_unused]] const Module &M,
                 [[maybe_unused]] const char *Stage) {
#ifndef NDEBUG
  std::string Errors;
  if (!verifyModule(M, &Errors)) {
    std::fprintf(stderr, "IR verifier failed after the %s:\n%s", Stage,
                 Errors.c_str());
    std::abort();
  }
#endif
}

} // namespace

const char *wario::environmentName(Environment E) {
  switch (E) {
  case Environment::PlainC: return "plain-c";
  case Environment::Ratchet: return "ratchet";
  case Environment::RPDG: return "r-pdg";
  case Environment::EpilogOnly: return "epilog-optimizer";
  case Environment::WriteClustererOnly: return "write-clusterer";
  case Environment::LoopWriteClustererOnly: return "loop-write-clusterer";
  case Environment::WarioComplete: return "wario";
  case Environment::WarioExpander: return "wario+expander";
  }
  return "<bad environment>";
}

std::vector<Environment> wario::allEnvironments() {
  return {Environment::PlainC,
          Environment::Ratchet,
          Environment::RPDG,
          Environment::EpilogOnly,
          Environment::WriteClustererOnly,
          Environment::LoopWriteClustererOnly,
          Environment::WarioComplete,
          Environment::WarioExpander};
}

MiddleEndConfig wario::middleEndConfig(const PipelineOptions &Opts) {
  Environment E = Opts.Env;
  MiddleEndConfig C;
  C.Instrumented = E != Environment::PlainC;
  C.ConservativeAA =
      E == Environment::Ratchet || Opts.ForceConservativeAA;
  C.LoopCluster = E == Environment::LoopWriteClustererOnly ||
                  E == Environment::WarioComplete ||
                  E == Environment::WarioExpander;
  C.Expand = E == Environment::WarioExpander;
  C.Cluster = E == Environment::WriteClustererOnly ||
              E == Environment::WarioComplete ||
              E == Environment::WarioExpander;
  C.UnrollFactor = Opts.UnrollFactor;
  C.HittingSet = Opts.MiddleEndHittingSet;
  C.DepthWeightedCost = Opts.DepthWeightedCost;
  C.ResolveWars = Opts.ResolveMiddleEndWars;
  C.Strat = Opts.Strat;
  C.SpecLogWars = Opts.SpecLogWars;
  // The rollback strategies leave WAR loops checkpoint-free, so the
  // region bounder is their only in-loop forward-progress mechanism and
  // is forced on.
  C.BoundRegions =
      Opts.BoundRegions || C.Strat != CheckpointStrategy::Idempotent;
  C.MaxRegionCycles = Opts.MaxRegionCycles;
  return C;
}

BackendOptions wario::backendConfig(const PipelineOptions &Opts) {
  Environment E = Opts.Env;
  bool Instrumented = E != Environment::PlainC;
  bool LegacyBackend =
      E == Environment::Ratchet || E == Environment::RPDG;
  BackendOptions BO;
  BO.InsertCheckpoints = Instrumented;
  BO.StackSlotSharing = LegacyBackend;
  BO.HittingSetSpill = Instrumented && !LegacyBackend &&
                       E != Environment::EpilogOnly;
  BO.EpilogOptimizer = E == Environment::EpilogOnly ||
                       E == Environment::WarioComplete ||
                       E == Environment::WarioExpander;
  BO.Strat = Instrumented ? Opts.Strat : CheckpointStrategy::Idempotent;
  BO.DiffFullRollback = BO.Strat == CheckpointStrategy::Differential
                            ? Opts.DiffFullRollback
                            : true;
  return BO;
}

void wario::runFrontHalf(Module &M, PipelineStats &S) {
  // Shared "-O3" front half: basic inlining (the opt -always-inline
  // -inline prepass of Section 4.6), scalar promotion, and cleanup.
  StageTimer T(S.FrontHalfSeconds);
  S.InlinedPrepass = inlineSmallFunctions(M, /*MaxCalleeSize=*/24);
  for (Function *F : M.functions()) {
    S.AllocasPromoted += promoteAllocasToSSA(*F);
    cleanup(*F);
  }
  verifyAfter(M, "front half");
}

void wario::runMiddleEnd(Module &M, const PipelineOptions &Opts,
                         PipelineStats &S) {
  StageTimer T(S.MiddleEndSeconds);
  MiddleEndConfig C = middleEndConfig(Opts);
  const auto &Fns = M.functions();

  if (!C.Instrumented) {
    for (Function *F : Fns) {
      unrollStandardLoops(*F, /*Factor=*/4, /*MaxBodyInsts=*/40);
      cleanup(*F);
    }
    verifyAfter(M, "middle end");
    return;
  }
  AliasPrecision Precision = C.ConservativeAA
                                 ? AliasPrecision::Conservative
                                 : AliasPrecision::Precise;

  // Figure 2 order: Loop Write Clusterer, then the user-specified
  // optimization level (-O3's unroller, Section 4.6).
  for (Function *F : Fns) {
    if (C.LoopCluster) {
      LoopWriteClustererOptions LWC;
      LWC.UnrollFactor = C.UnrollFactor;
      LWC.Precision = Precision;
      LoopWriteClustererStats L = runLoopWriteClusterer(*F, LWC);
      S.LoopClusterer.LoopsTransformed += L.LoopsTransformed;
      S.LoopClusterer.StoresPostponed += L.StoresPostponed;
      S.LoopClusterer.ExitCopies += L.ExitCopies;
      S.LoopClusterer.RuntimeChecks += L.RuntimeChecks;
      cleanup(*F);
    }
    unrollStandardLoops(*F, /*Factor=*/4, /*MaxBodyInsts=*/40);
    cleanup(*F);
  }

  // The Expander clones callee bodies into callers, then the new allocas
  // are promoted.
  if (C.Expand) {
    S.Expander = runExpander(M);
    for (Function *F : Fns) {
      S.AllocasPromoted += promoteAllocasToSSA(*F);
      cleanup(*F);
    }
  }

  // Write Clusterer, PDG Checkpoint Inserter, region bounding.
  CheckpointInserterOptions CI;
  CI.Precision = Precision;
  CI.Strategy = C.HittingSet ? PlacementStrategy::HittingSet
                             : PlacementStrategy::PerWrite;
  CI.DepthWeightedCost = C.DepthWeightedCost;
  CI.ResolveWars = C.ResolveWars;
  CI.Mode = C.Strat;
  CI.SpecLogWars = C.SpecLogWars;
  RegionBounderOptions RB;
  RB.MaxRegionCycles = C.MaxRegionCycles;
  RB.Strat = C.Strat;
  AliasAnalysis AA(Precision);
  for (Function *F : Fns) {
    if (C.Cluster)
      S.StoresSunk += runWriteClusterer(*F, AA);
    CheckpointInserterStats CS = insertCheckpoints(*F, CI);
    S.MiddleEnd.WarsFound += CS.WarsFound;
    S.MiddleEnd.WarsAlreadyCut += CS.WarsAlreadyCut;
    S.MiddleEnd.Inserted += CS.Inserted;
    S.MiddleEnd.StoresMarked += CS.StoresMarked;
    if (C.BoundRegions)
      S.RegionsBounded += boundRegions(*F, RB).LoopsBounded;
  }
  verifyAfter(M, "middle end");
}

MModule wario::runBackendStage(const Module &M, const PipelineOptions &Opts,
                               PipelineStats &S) {
  StageTimer T(S.BackendSeconds);
  return runBackend(M, backendConfig(Opts), &S.Backend);
}

MModule wario::compile(Module &M, const PipelineOptions &Opts,
                       PipelineStats *Stats) {
  PipelineStats Local;
  PipelineStats &S = Stats ? *Stats : Local;
  runFrontHalf(M, S);
  runMiddleEnd(M, Opts, S);
  return runBackendStage(M, Opts, S);
}
