#include "driver/Pipeline.h"

#include "support/ThreadPool.h"
#include "transforms/Inliner.h"
#include "transforms/LoopUnroller.h"
#include "transforms/Mem2Reg.h"
#include "transforms/RegionBounder.h"
#include "transforms/Utils.h"
#include "transforms/WriteClusterer.h"

using namespace wario;

namespace {

/// Results of the function-local middle-end passes for one function.
/// The parallel phases fill one slot per function; totals are reduced
/// sequentially in function order afterwards, so stats are identical
/// for every WARIO_JOBS value.
struct PerFunctionStats {
  LoopWriteClustererStats LWC;
  unsigned AllocasPromoted = 0;
  unsigned StoresSunk = 0;
  CheckpointInserterStats Checkpoints;
  unsigned RegionsBounded = 0;
};

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
  // Inlining rewrites bodies across function boundaries and must stay
  // sequential; promotion and cleanup are function-local and fan out.
  StageTimer T(S.FrontHalfSeconds);
  S.InlinedPrepass = inlineSmallFunctions(M, /*MaxCalleeSize=*/24);
  const auto &Fns = M.functions();
  std::vector<unsigned> Promoted(Fns.size(), 0);
  parallelFor(Fns.size(), [&](size_t I) {
    Promoted[I] = promoteAllocasToSSA(*Fns[I]);
    cleanup(*Fns[I]);
  });
  for (unsigned N : Promoted)
    S.AllocasPromoted += N;
}

void wario::runMiddleEnd(Module &M, const PipelineOptions &Opts,
                         PipelineStats &S) {
  StageTimer T(S.MiddleEndSeconds);
  MiddleEndConfig C = middleEndConfig(Opts);
  const auto &Fns = M.functions();

  // Every middle-end pass except the Expander is function-local, and
  // each function allocates from its own arena, interns constants/types
  // through the context's value-keyed maps, and assigns ids from its own
  // counter — so per-function work commutes and the fan-out below is
  // byte-identical for every WARIO_JOBS value. The Expander rewrites
  // call sites across function boundaries; it stays sequential and acts
  // as the barrier between the two parallel phases.

  if (!C.Instrumented) {
    parallelFor(Fns.size(), [&](size_t I) {
      unrollStandardLoops(*Fns[I], /*Factor=*/4, /*MaxBodyInsts=*/40);
      cleanup(*Fns[I]);
    });
    return;
  }
  AliasPrecision Precision = C.ConservativeAA
                                 ? AliasPrecision::Conservative
                                 : AliasPrecision::Precise;
  std::vector<PerFunctionStats> FS(Fns.size());

  // Phase A (Figure 2 order): Loop Write Clusterer, then the
  // user-specified optimization level (-O3's unroller, Section 4.6).
  parallelFor(Fns.size(), [&](size_t I) {
    Function &F = *Fns[I];
    if (C.LoopCluster) {
      LoopWriteClustererOptions LWC;
      LWC.UnrollFactor = C.UnrollFactor;
      LWC.Precision = Precision;
      FS[I].LWC = runLoopWriteClusterer(F, LWC);
      cleanup(F);
    }
    unrollStandardLoops(F, /*Factor=*/4, /*MaxBodyInsts=*/40);
    cleanup(F);
  });

  // Module-level barrier: the Expander clones callee bodies into
  // callers, then the new allocas are promoted function-locally.
  if (C.Expand) {
    S.Expander = runExpander(M);
    parallelFor(Fns.size(), [&](size_t I) {
      FS[I].AllocasPromoted = promoteAllocasToSSA(*Fns[I]);
      cleanup(*Fns[I]);
    });
  }

  // Phase B: Write Clusterer, PDG Checkpoint Inserter, region bounding.
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
  parallelFor(Fns.size(), [&](size_t I) {
    Function &F = *Fns[I];
    if (C.Cluster) {
      AliasAnalysis AA(Precision);
      FS[I].StoresSunk = runWriteClusterer(F, AA);
    }
    FS[I].Checkpoints = insertCheckpoints(F, CI);
    if (C.BoundRegions)
      FS[I].RegionsBounded = boundRegions(F, RB).LoopsBounded;
  });

  // Sequential reduction in function order.
  for (const PerFunctionStats &P : FS) {
    S.LoopClusterer.LoopsTransformed += P.LWC.LoopsTransformed;
    S.LoopClusterer.StoresPostponed += P.LWC.StoresPostponed;
    S.LoopClusterer.ExitCopies += P.LWC.ExitCopies;
    S.LoopClusterer.RuntimeChecks += P.LWC.RuntimeChecks;
    S.AllocasPromoted += P.AllocasPromoted;
    S.StoresSunk += P.StoresSunk;
    S.MiddleEnd.WarsFound += P.Checkpoints.WarsFound;
    S.MiddleEnd.WarsAlreadyCut += P.Checkpoints.WarsAlreadyCut;
    S.MiddleEnd.Inserted += P.Checkpoints.Inserted;
    S.MiddleEnd.StoresMarked += P.Checkpoints.StoresMarked;
    S.RegionsBounded += P.RegionsBounded;
  }
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
