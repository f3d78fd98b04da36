//===----------------------------------------------------------------------===//
///
/// \file
/// Checkpoint placement pinned at workload scale. Every workload is
/// compiled under eight middle-end configurations, and for each the
/// middle-end statistics, the back end's spill-checkpoint count, the text
/// size and an FNV-1a hash of the printed post-middle-end IR must equal
/// the values below. They were recorded from the quadratic WAR placement
/// (a BFS per WAR, a rescanning greedy) that the per-read sweep and the
/// lazy-heap greedy replaced; placement feeds every regenerator's golden
/// output, so any drift here is a finding, not a re-record.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/Cloning.h"
#include "ir/IRPrinter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace wario;

namespace {

struct PlacementConfig {
  const char *Name;
  Environment Env;
  unsigned UnrollFactor;
  CheckpointStrategy Strat;
};

const PlacementConfig Configs[] = {
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

/// Everything placement decides, for one (workload, configuration) cell.
struct Placement {
  unsigned WarsFound, WarsAlreadyCut, Inserted, StoresMarked;
  unsigned LoopsTransformed, StoresPostponed, ExitCopies, RuntimeChecks;
  unsigned StoresSunk, RegionsBounded, SpillCheckpoints, TextBytes;
  uint64_t IRHash;
  bool operator==(const Placement &) const = default;
};

struct Recorded {
  const char *Workload;
  const char *Config;
  Placement P;
};

// clang-format off
const Recorded Expected[] = {
    {"coremark", "ratchet",
     {1243, 18, 51, 0, 0, 0, 0, 0, 0, 0, 0, 4250, 0xfc0de15c37f26a27ull}},
    {"coremark", "r-pdg",
     {755, 0, 39, 0, 0, 0, 0, 0, 0, 0, 0, 4202, 0xbdf41da53c6daa8bull}},
    {"coremark", "write-clusterer",
     {755, 0, 39, 0, 0, 0, 0, 0, 0, 0, 0, 4202, 0xbdf41da53c6daa8bull}},
    {"coremark", "loop-write-clusterer",
     {712, 640, 18, 0, 6, 64, 96, 18, 0, 0, 14, 8250, 0x8622d019ac04c9dull}},
    {"coremark", "wario",
     {2265, 1873, 53, 0, 6, 113, 373, 9, 6, 0, 18, 15930, 0x31e9bdbf35f2ca72ull}},
    {"coremark", "wario+expander",
     {2265, 1873, 53, 0, 6, 113, 373, 9, 6, 0, 19, 16134, 0x354a00d457b3bf30ull}},
    {"coremark", "wario-diff",
     {2265, 1873, 0, 0, 6, 113, 373, 9, 6, 14, 0, 16328, 0x57a28b9db1e0d283ull}},
    {"coremark", "wario-spec",
     {2265, 1873, 0, 53, 6, 113, 373, 9, 6, 14, 41, 16492, 0x45b7a0161bf6947cull}},
    {"sha", "ratchet",
     {1151, 0, 32, 0, 0, 0, 0, 0, 0, 0, 8, 2918, 0xd7ee10470c78908dull}},
    {"sha", "r-pdg",
     {596, 0, 24, 0, 0, 0, 0, 0, 0, 0, 8, 2886, 0xe3905a7b1d9c9c53ull}},
    {"sha", "write-clusterer",
     {596, 0, 20, 0, 0, 0, 0, 0, 4, 0, 2, 2914, 0xbbdc2c56dff1688dull}},
    {"sha", "loop-write-clusterer",
     {200, 178, 8, 0, 2, 16, 24, 0, 0, 0, 5, 3006, 0xadd4b5f0d61cc5dcull}},
    {"sha", "wario",
     {758, 736, 4, 0, 2, 32, 112, 0, 4, 0, 14, 5010, 0xa724a7b1c851197eull}},
    {"sha", "wario+expander",
     {1898, 1852, 9, 0, 2, 32, 112, 0, 8, 0, 25, 7656, 0x8b3d829119c315aull}},
    {"sha", "wario-diff",
     {758, 736, 0, 0, 2, 32, 112, 0, 4, 5, 0, 5330, 0x770d775841d1954aull}},
    {"sha", "wario-spec",
     {758, 736, 0, 8, 2, 32, 112, 0, 4, 5, 17, 5398, 0x93dc0eb65d513800ull}},
    {"crc", "ratchet",
     {751, 23, 22, 0, 0, 0, 0, 0, 0, 0, 0, 1326, 0x8698e295c3be8e5aull}},
    {"crc", "r-pdg",
     {555, 9, 18, 0, 0, 0, 0, 0, 0, 0, 0, 1310, 0x61fed011e0319558ull}},
    {"crc", "write-clusterer",
     {555, 9, 18, 0, 0, 0, 0, 0, 0, 0, 0, 1310, 0x61fed011e0319558ull}},
    {"crc", "loop-write-clusterer",
     {129, 93, 6, 0, 1, 12, 18, 0, 0, 0, 2, 1440, 0xc490bdaa7d9f1be6ull}},
    {"crc", "wario",
     {309, 273, 6, 0, 1, 24, 84, 0, 0, 0, 6, 2560, 0xe7a09664595a4ae1ull}},
    {"crc", "wario+expander",
     {309, 273, 6, 0, 1, 24, 84, 0, 0, 0, 7, 2890, 0x9260b7f50d413dbfull}},
    {"crc", "wario-diff",
     {309, 273, 0, 0, 1, 24, 84, 0, 0, 3, 0, 2696, 0x80ce3b4ea82acb53ull}},
    {"crc", "wario-spec",
     {309, 273, 0, 6, 1, 24, 84, 0, 0, 3, 8, 2728, 0x1751045ff1b05ae3ull}},
    {"aes", "ratchet",
     {3966, 996, 113, 0, 0, 0, 0, 0, 0, 0, 0, 6426, 0x6e31356a37270ff8ull}},
    {"aes", "r-pdg",
     {2023, 400, 89, 0, 0, 0, 0, 0, 0, 0, 0, 6330, 0x6e23000cad8a911cull}},
    {"aes", "write-clusterer",
     {2023, 400, 82, 0, 0, 0, 0, 0, 19, 0, 0, 6408, 0xedbfd995423789b3ull}},
    {"aes", "loop-write-clusterer",
     {990, 837, 28, 0, 10, 84, 146, 6, 0, 0, 16, 9020, 0xb99dfea506b56dc8ull}},
    {"aes", "wario",
     {3205, 2950, 31, 0, 10, 163, 603, 3, 16, 0, 50, 18924, 0xee97b0e0a2759f54ull}},
    {"aes", "wario+expander",
     {3205, 2950, 31, 0, 10, 163, 603, 3, 16, 0, 50, 18924, 0xee97b0e0a2759f54ull}},
    {"aes", "wario-diff",
     {3205, 2950, 0, 0, 10, 163, 603, 3, 16, 14, 0, 19484, 0x53cd4dcfb4240766ull}},
    {"aes", "wario-spec",
     {3205, 2950, 0, 50, 10, 163, 603, 3, 16, 14, 62, 19732, 0x69d5f9a7a20a688bull}},
    {"dijkstra", "ratchet",
     {1053, 0, 28, 0, 0, 0, 0, 0, 0, 0, 11, 3020, 0x2e5c524b7c7c9953ull}},
    {"dijkstra", "r-pdg",
     {631, 0, 20, 0, 0, 0, 0, 0, 0, 0, 11, 2988, 0x1f036e5ef7e00627ull}},
    {"dijkstra", "write-clusterer",
     {631, 0, 20, 0, 0, 0, 0, 0, 0, 0, 7, 2972, 0x1f036e5ef7e00627ull}},
    {"dijkstra", "loop-write-clusterer",
     {631, 0, 20, 0, 0, 0, 0, 0, 0, 0, 7, 2972, 0x57b00257d20c4313ull}},
    {"dijkstra", "wario",
     {2331, 0, 36, 0, 0, 0, 0, 0, 0, 0, 7, 4324, 0xa35e3d83625106adull}},
    {"dijkstra", "wario+expander",
     {2862, 0, 50, 0, 0, 0, 0, 0, 0, 0, 15, 6676, 0xa6cb7db9a1d6a99full}},
    {"dijkstra", "wario-diff",
     {2331, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 4496, 0x1f06b4ce60c5685bull}},
    {"dijkstra", "wario-spec",
     {2331, 0, 0, 36, 0, 0, 0, 0, 0, 7, 8, 4528, 0xb62aaa19fcd965f6ull}},
    {"picojpeg", "ratchet",
     {1350, 0, 30, 0, 0, 0, 0, 0, 0, 0, 11, 4952, 0xfa89741fb26def43ull}},
    {"picojpeg", "r-pdg",
     {1000, 0, 21, 0, 0, 0, 0, 0, 0, 0, 11, 4916, 0x340e62409de0372eull}},
    {"picojpeg", "write-clusterer",
     {1000, 0, 21, 0, 0, 0, 0, 0, 14, 0, 8, 5428, 0x3d7d3150f82829c8ull}},
    {"picojpeg", "loop-write-clusterer",
     {6954, 5406, 6, 0, 4, 56, 72, 0, 0, 0, 12, 10230, 0x65fd51b41d9b5057ull}},
    {"picojpeg", "wario",
     {32728, 25548, 10, 0, 4, 104, 336, 0, 63, 0, 22, 21762, 0x691533f09b816997ull}},
    {"picojpeg", "wario+expander",
     {32728, 25548, 10, 0, 4, 104, 336, 0, 63, 0, 22, 22266, 0xde70d40a60b329e6ull}},
    {"picojpeg", "wario-diff",
     {32728, 25548, 0, 0, 4, 104, 336, 0, 63, 12, 0, 22392, 0x19ea39e215e8aaf6ull}},
    {"picojpeg", "wario-spec",
     {32728, 25548, 0, 59, 4, 104, 336, 0, 63, 12, 37, 22540, 0x28d1d0ac35f58527ull}},
};
// clang-format on

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S)
    H = (H ^ C) * 1099511628211ull;
  return H;
}

std::ostream &operator<<(std::ostream &OS, const Placement &P) {
  return OS << "{" << P.WarsFound << ", " << P.WarsAlreadyCut << ", "
            << P.Inserted << ", " << P.StoresMarked << ", "
            << P.LoopsTransformed << ", " << P.StoresPostponed << ", "
            << P.ExitCopies << ", " << P.RuntimeChecks << ", "
            << P.StoresSunk << ", " << P.RegionsBounded << ", "
            << P.SpillCheckpoints << ", " << P.TextBytes << ", 0x"
            << std::hex << P.IRHash << std::dec << "ull}";
}

Placement measure(const Module &FrontHalf, const PlacementConfig &C) {
  std::unique_ptr<Module> M = cloneModule(FrontHalf);
  PipelineOptions PO;
  PO.Env = C.Env;
  PO.UnrollFactor = C.UnrollFactor;
  PO.Strat = C.Strat;
  PipelineStats S;
  runMiddleEnd(*M, PO, S);
  uint64_t Hash = fnv1a(printModule(*M));
  MModule MM = runBackendStage(*M, PO, S);
  return {S.MiddleEnd.WarsFound,
          S.MiddleEnd.WarsAlreadyCut,
          S.MiddleEnd.Inserted,
          S.MiddleEnd.StoresMarked,
          S.LoopClusterer.LoopsTransformed,
          S.LoopClusterer.StoresPostponed,
          S.LoopClusterer.ExitCopies,
          S.LoopClusterer.RuntimeChecks,
          S.StoresSunk,
          S.RegionsBounded,
          S.Backend.SpillCheckpoints,
          unsigned(MM.textSizeBytes()),
          Hash};
}

class PlacementSuite : public ::testing::TestWithParam<const char *> {};

TEST_P(PlacementSuite, MatchesRecordedPlacement) {
  const Workload &W = getWorkload(GetParam());
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = buildWorkloadIR(W, Diags);
  ASSERT_TRUE(M) << Diags.formatAll();
  PipelineStats FrontStats;
  runFrontHalf(*M, FrontStats);

  for (const PlacementConfig &C : Configs) {
    const Recorded *Want = nullptr;
    for (const Recorded &R : Expected)
      if (W.Name == R.Workload && std::strcmp(C.Name, R.Config) == 0)
        Want = &R;
    Placement Got = measure(*M, C);
    ASSERT_TRUE(Want) << "no recorded placement for " << W.Name << " @ "
                      << C.Name << "; measured " << Got;
    EXPECT_EQ(Got, Want->P) << W.Name << " @ " << C.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PlacementSuite,
                         ::testing::Values("coremark", "sha", "crc", "aes",
                                           "dijkstra", "picojpeg"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

} // namespace
