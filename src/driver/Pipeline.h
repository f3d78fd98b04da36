//===----------------------------------------------------------------------===//
///
/// \file
/// The "iclang" pipeline (paper Section 4.6): orchestrates the middle-end
/// and back-end transformations for each evaluated software environment.
///
/// Environments follow Section 5.1.3:
///  - PlainC: uninstrumented reference (cannot survive power failures).
///  - Ratchet: conservative aliasing, no clustering, legacy back end
///    (stack-slot sharing + per-write spill checkpoints, plain epilogs).
///  - RPDG: Ratchet placement driven by the precise PDG.
///  - EpilogOnly / WriteClustererOnly / LoopWriteClustererOnly: individual
///    WARio transformations on top of R-PDG (the isolated bars of Fig. 4).
///  - WarioComplete: all WARio transformations except the Expander.
///  - WarioExpander: WARio + Expander.
///
/// A compile runs on the calling thread: every stage walks the module's
/// functions one after another, in function order, and only that thread
/// touches the module while it compiles. Callers that want parallelism
/// compile several modules at once (the harness's matrix cells, the
/// daemon's concurrent requests); a module shared between threads is
/// only read, by cloneModule.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_DRIVER_PIPELINE_H
#define WARIO_DRIVER_PIPELINE_H

#include "backend/Backend.h"
#include "transforms/CheckpointInserter.h"
#include "transforms/Expander.h"
#include "transforms/LoopWriteClusterer.h"

#include <chrono>

namespace wario {

enum class Environment {
  PlainC,
  Ratchet,
  RPDG,
  EpilogOnly,
  WriteClustererOnly,
  LoopWriteClustererOnly,
  WarioComplete,
  WarioExpander,
};

const char *environmentName(Environment E);

/// All evaluated environments, in the paper's presentation order.
std::vector<Environment> allEnvironments();

struct PipelineOptions {
  Environment Env = Environment::WarioComplete;
  /// Loop Write Clusterer unroll factor N (paper default 8).
  unsigned UnrollFactor = 8;
  /// Ablation: disable the loop-depth-weighted hitting set in favor of
  /// checkpoint-per-WAR-write placement.
  bool MiddleEndHittingSet = true;
  /// Ablation: uniform candidate costs instead of 4^loop-depth.
  bool DepthWeightedCost = true;
  /// Ablation: force the Ratchet-grade conservative aliasing even for
  /// WARio environments (isolates the PDG's contribution).
  bool ForceConservativeAA = false;
  /// Extension (paper Section 6 future work): bound idempotent region
  /// length with register-counter checkpoints in cut-free loops.
  bool BoundRegions = false;
  uint64_t MaxRegionCycles = 20'000;
  /// The checkpoint strategy axis of the bench matrix (orthogonal to
  /// Env): Idempotent is the paper's WAR-breaking placement;
  /// Differential and Speculative are the related-work rollback
  /// strategies (docs/STRATEGIES.md). Both rollback strategies force
  /// region bounding on — without WAR checkpoints, cut-free loops are
  /// their only forward-progress mechanism inside long loops.
  CheckpointStrategy Strat = CheckpointStrategy::Idempotent;
  /// Negative control (Differential): when false, the emulator's reboot
  /// rollback drops the journal without restoring any page, so
  /// uncommitted writes survive and the fault injector must observe a
  /// divergence (docs/STRATEGIES.md, bench/verify_crash).
  bool DiffFullRollback = true;
  /// Negative control (Speculative): when false, WAR writes execute
  /// speculatively WITHOUT undo logging — rollback is incomplete and the
  /// fault injector must observe a divergence.
  bool SpecLogWars = true;
  /// Negative control for the crash-consistency fault injector
  /// (src/verify/): skip the middle-end hitting-set WAR resolution, so
  /// detected WARs are left unbroken. Run the result with
  /// EmulatorOptions::WarIsFatal = false; the fault injector must find a
  /// state divergence on such a build — that is what proves the checker
  /// has teeth (bench/verify_crash, tests/CrashConsistencyTest).
  bool ResolveMiddleEndWars = true;

  /// Ordered by the full configuration so result caches can key on the
  /// actual options instead of caller-provided tags (bench/Harness.cpp).
  auto operator<=>(const PipelineOptions &) const = default;
};

struct PipelineStats {
  unsigned InlinedPrepass = 0;
  unsigned RegionsBounded = 0;
  unsigned AllocasPromoted = 0;
  LoopWriteClustererStats LoopClusterer;
  ExpanderStats Expander;
  unsigned StoresSunk = 0;
  CheckpointInserterStats MiddleEnd;
  BackendStats Backend;

  /// Wall-clock seconds spent per stage by whichever request computed
  /// it. The pipeline fills the compile stages; the staged cache
  /// (src/serve/Cache.h) fills FrontendSeconds/EmulateSeconds, and its
  /// computedStages() zeroes the stages a request was answered from
  /// cache for.
  double FrontendSeconds = 0;
  double FrontHalfSeconds = 0;
  double MiddleEndSeconds = 0;
  double BackendSeconds = 0;
  double EmulateSeconds = 0;
};

/// Adds the scope's wall-clock duration to a PipelineStats stage field.
class StageTimer {
public:
  explicit StageTimer(double &Sink)
      : Sink(Sink), Start(std::chrono::steady_clock::now()) {}
  ~StageTimer() {
    Sink += std::chrono::duration<double>(
                std::chrono::steady_clock::now() - Start)
                .count();
  }
  StageTimer(const StageTimer &) = delete;
  StageTimer &operator=(const StageTimer &) = delete;

private:
  double &Sink;
  std::chrono::steady_clock::time_point Start;
};

/// The knobs that feed the middle end, derived from an environment +
/// options: which passes run (plain C runs only the unroller and
/// cleanup) and what they are told. A knob is read only where its pass
/// runs: UnrollFactor under LoopCluster, the placement knobs
/// (HittingSet, DepthWeightedCost, ResolveWars) under the Idempotent
/// strategy, SpecLogWars under Speculative, MaxRegionCycles under
/// BoundRegions.
struct MiddleEndConfig {
  bool Instrumented = false;
  bool ConservativeAA = false;
  bool LoopCluster = false;
  bool Expand = false;
  bool Cluster = false;
  unsigned UnrollFactor = 0;
  bool HittingSet = false;
  bool DepthWeightedCost = false;
  bool ResolveWars = false;
  /// Forced on for the rollback strategies.
  bool BoundRegions = false;
  uint64_t MaxRegionCycles = 0;
  CheckpointStrategy Strat = CheckpointStrategy::Idempotent;
  bool SpecLogWars = true;

  bool operator==(const MiddleEndConfig &) const = default;
};

MiddleEndConfig middleEndConfig(const PipelineOptions &Opts);

/// Backend lowering flags for an environment (also canonical: equal
/// configs lower identically).
BackendOptions backendConfig(const PipelineOptions &Opts);

/// --- Staged compilation -----------------------------------------------------
/// compile() is the composition of three stages so the staged cache
/// (src/serve/Cache.h) can keep the environment-independent front half
/// once per workload and clone it for each configuration:
///
///   frontend (workloads)  ->  front half  ->  middle end  ->  back end
///        Module                 Module          Module         MModule
///
/// The front half is environment-independent; the middle end depends only
/// on middleEndConfig(Opts); the back end only on backendConfig(Opts).

/// Environment-independent front half: inline prepass + scalar promotion
/// + cleanup (the opt -always-inline -inline / -mem2reg prepass of paper
/// Section 4.6). Mutates \p M in place.
void runFrontHalf(Module &M, PipelineStats &S);

/// Environment-specific middle end (paper Figure 2 order), mutating \p M
/// in place. Expects \p M to be front-half output.
void runMiddleEnd(Module &M, const PipelineOptions &Opts, PipelineStats &S);

/// Lowers middle-end output through the back end. Read-only on \p M.
MModule runBackendStage(const Module &M, const PipelineOptions &Opts,
                        PipelineStats &S);

/// Compiles \p M (mutated in place) to a machine module for the given
/// environment: runFrontHalf + runMiddleEnd + runBackendStage.
MModule compile(Module &M, const PipelineOptions &Opts,
                PipelineStats *Stats = nullptr);

} // namespace wario

#endif // WARIO_DRIVER_PIPELINE_H
