//===----------------------------------------------------------------------===//
///
/// \file
/// The Loop Write Clusterer pinned on random programs, at compile_matrix's
/// unroll factors 1/2/4/6/8/10 under each of the five configurations that
/// run it. Each row sums over seeds 1-30: an FNV-1a over the printed
/// post-middle-end IR of every seed in turn, and the clusterer's and
/// inserter's counts. The random programs fire the clusterer's break-even
/// guard far more often than the workloads do, so they pin the order in
/// which its store dropping un-postpones stores. Recorded from the
/// rescanning store-dropping fixpoint that the one-pass worklist replaced;
/// any drift is a finding, not a re-record.
///
//===----------------------------------------------------------------------===//

#include "PlacementConfigs.h"
#include "RandomProgram.h"

#include "frontend/Frontend.h"
#include "ir/Cloning.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

using namespace wario;
using namespace wario::test;

namespace {

struct RandomRow {
  unsigned Factor;
  std::string Config;
  uint64_t IRHash;
  unsigned LoopsTransformed, StoresPostponed, ExitCopies, RuntimeChecks;
  unsigned Inserted;
  bool operator==(const RandomRow &) const = default;
};

std::ostream &operator<<(std::ostream &OS, const RandomRow &R) {
  return OS << "{" << R.Factor << ", \"" << R.Config << "\", 0x" << std::hex
            << R.IRHash << std::dec << "ull, " << R.LoopsTransformed << ", "
            << R.StoresPostponed << ", " << R.ExitCopies << ", "
            << R.RuntimeChecks << ", " << R.Inserted << "}";
}

// clang-format off
const RandomRow ExpectedRandom[] = {
    {1, "loop-write-clusterer", 0x79cca3b15c230cfull, 30, 39, 0, 17, 644},
    {1, "wario", 0x82042bcdff11c7bfull, 30, 39, 0, 17, 614},
    {1, "wario+expander", 0xd52e4123907882efull, 30, 39, 0, 17, 613},
    {1, "wario-diff", 0x3b0bb8662f23fabaull, 30, 39, 0, 17, 0},
    {1, "wario-spec", 0xb7a933ba7dbc246eull, 30, 39, 0, 17, 0},
    {2, "loop-write-clusterer", 0x15bb5d88aaeaf029ull, 30, 65, 31, 41, 751},
    {2, "wario", 0x6651b6158e4360ccull, 30, 65, 31, 41, 718},
    {2, "wario+expander", 0x74f7d64bec4410f4ull, 30, 65, 31, 41, 717},
    {2, "wario-diff", 0xb6852bad951e9192ull, 30, 65, 31, 41, 0},
    {2, "wario-spec", 0xc0a7f4e5ece41827ull, 30, 65, 31, 41, 0},
    {4, "loop-write-clusterer", 0xd62d4765dc1da85bull, 30, 117, 164, 119, 995},
    {4, "wario", 0xdb2c25f5765d4ac0ull, 30, 117, 164, 119, 956},
    {4, "wario+expander", 0x41316e0a8ac9b4c8ull, 30, 117, 164, 119, 955},
    {4, "wario-diff", 0x9ee081bbce04a5f3ull, 30, 117, 164, 119, 0},
    {4, "wario-spec", 0x16eb88c0144a9e82ull, 30, 117, 164, 119, 0},
    {6, "loop-write-clusterer", 0x43c0f66a23e129c9ull, 30, 113, 240, 12, 1313},
    {6, "wario", 0xee1fa58fdf0e3094ull, 30, 113, 240, 12, 1268},
    {6, "wario+expander", 0xb0222b1627bdf8deull, 30, 113, 240, 12, 1267},
    {6, "wario-diff", 0x454eaeddb038077dull, 30, 113, 240, 12, 0},
    {6, "wario-spec", 0xddd7b5721d687a58ull, 30, 113, 240, 12, 0},
    {8, "loop-write-clusterer", 0x2346888efac49fc4ull, 30, 164, 482, 64, 1576},
    {8, "wario", 0xab08921e819d03abull, 30, 164, 482, 64, 1525},
    {8, "wario+expander", 0x6f36de9fae9b7a41ull, 30, 164, 482, 64, 1524},
    {8, "wario-diff", 0x5d2d78300eb48b58ull, 30, 164, 482, 64, 0},
    {8, "wario-spec", 0x1dca8838a1214e10ull, 30, 164, 482, 64, 0},
    {10, "loop-write-clusterer", 0xc43261229ae8268dull, 29, 220, 836, 202, 1834},
    {10, "wario", 0xe382786572fee6caull, 29, 220, 836, 202, 1777},
    {10, "wario+expander", 0xdaba34a2f4fb3e02ull, 29, 220, 836, 202, 1776},
    {10, "wario-diff", 0xc7734fe43f6768ddull, 29, 220, 836, 202, 0},
    {10, "wario-spec", 0xdbba6ac430c966e3ull, 29, 220, 836, 202, 0},
};
// clang-format on

TEST(RandomProgramPlacement, MatchesRecordedClustering) {
  const unsigned Factors[] = {1, 2, 4, 6, 8, 10};
  std::vector<const PlacementConfig *> Configs;
  for (const PlacementConfig &C : PlacementConfigs)
    if (middleEndConfig(C.options()).LoopCluster)
      Configs.push_back(&C);
  std::vector<RandomRow> Got;
  for (unsigned N : Factors)
    for (const PlacementConfig *C : Configs)
      Got.push_back({N, C->Name, 1469598103934665603ull, 0, 0, 0, 0, 0});

  for (uint32_t Seed = 1; Seed <= 30; ++Seed) {
    DiagnosticEngine Diags;
    std::unique_ptr<Module> Front =
        compileC(RandomProgramGenerator(Seed).generate(), "fuzz", Diags);
    ASSERT_TRUE(Front) << "seed " << Seed << ": " << Diags.formatAll();
    PipelineStats FrontStats;
    runFrontHalf(*Front, FrontStats);
    for (size_t I = 0; I != Got.size(); ++I) {
      RandomRow &R = Got[I];
      std::unique_ptr<Module> M = cloneModule(*Front);
      PipelineOptions PO = Configs[I % Configs.size()]->options();
      PO.UnrollFactor = R.Factor;
      PipelineStats S;
      runMiddleEnd(*M, PO, S);
      for (unsigned char Ch : printModule(*M))
        R.IRHash = (R.IRHash ^ Ch) * 1099511628211ull;
      R.LoopsTransformed += S.LoopClusterer.LoopsTransformed;
      R.StoresPostponed += S.LoopClusterer.StoresPostponed;
      R.ExitCopies += S.LoopClusterer.ExitCopies;
      R.RuntimeChecks += S.LoopClusterer.RuntimeChecks;
      R.Inserted += S.MiddleEnd.Inserted;
    }
  }

  std::ostringstream Measured;
  for (const RandomRow &R : Got)
    Measured << "    " << R << ",\n";
  ASSERT_EQ(std::size(ExpectedRandom), Got.size())
      << "measured:\n" << Measured.str();
  for (size_t I = 0; I != Got.size(); ++I)
    EXPECT_EQ(Got[I], ExpectedRandom[I]);
}

} // namespace
