//===----------------------------------------------------------------------===//
///
/// \file
/// The eight pipeline configurations the placement tests compile every
/// workload under: each paper environment that places checkpoints
/// differently, plus the two rollback strategies.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_TESTS_PLACEMENTCONFIGS_H
#define WARIO_TESTS_PLACEMENTCONFIGS_H

#include "driver/Pipeline.h"

namespace wario::test {

struct PlacementConfig {
  const char *Name;
  Environment Env;
  unsigned UnrollFactor;
  CheckpointStrategy Strat;

  PipelineOptions options() const {
    PipelineOptions PO;
    PO.Env = Env;
    PO.UnrollFactor = UnrollFactor;
    PO.Strat = Strat;
    return PO;
  }
};

inline const PlacementConfig PlacementConfigs[] = {
    {"ratchet", Environment::Ratchet, 8, CheckpointStrategy::Idempotent},
    {"r-pdg", Environment::RPDG, 8, CheckpointStrategy::Idempotent},
    {"write-clusterer", Environment::WriteClustererOnly, 8,
     CheckpointStrategy::Idempotent},
    {"loop-write-clusterer", Environment::LoopWriteClustererOnly, 4,
     CheckpointStrategy::Idempotent},
    {"wario", Environment::WarioComplete, 8, CheckpointStrategy::Idempotent},
    {"wario+expander", Environment::WarioExpander, 8,
     CheckpointStrategy::Idempotent},
    {"wario-diff", Environment::WarioComplete, 8,
     CheckpointStrategy::Differential},
    {"wario-spec", Environment::WarioComplete, 8,
     CheckpointStrategy::Speculative},
};

} // namespace wario::test

#endif // WARIO_TESTS_PLACEMENTCONFIGS_H
