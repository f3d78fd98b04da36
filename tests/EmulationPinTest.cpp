//===----------------------------------------------------------------------===//
///
/// \file
/// Emulation results pinned at workload scale (label: `engine`). Every
/// workload is compiled under wario, wario-diff and wario-spec and run
/// under three schedules — continuous power with the event trace, fixed
/// 50,000-cycle on-periods, and an interrupt every 10,000 cycles — and
/// the cycle, instruction, checkpoint and power-failure counts, an
/// FNV-1a hash of the final NVM image and one of the region sizes must
/// equal the values below. The final image holds both checkpoint
/// buffers (0x100-0x1FF), so the hash also pins what every commit wrote
/// where. The interpreter and the threaded engine share one checkpoint
/// commit, so EngineEquivalenceTest cannot tell a wrong commit from a
/// right one; this table can. The values were recorded before the
/// threaded engine's inline commit was folded into the shared routine;
/// any drift here is a finding, not a re-record.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "serve/Protocol.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace wario;

namespace {

/// What one (workload, strategy, schedule) emulation produced.
struct Pin {
  uint64_t TotalCycles, Insts, Checkpoints;
  unsigned PowerFailures;
  uint64_t MemHash, RegionHash;
  bool operator==(const Pin &) const = default;
};

struct Recorded {
  const char *Workload;
  const char *Strategy;
  const char *Schedule;
  Pin P;
};

// clang-format off
const Recorded Expected[] = {
    {"coremark", "wario", "continuous",
     {422539, 247329, 2275, 0,
      0xfc38f3d360fceec1ull, 0xb50a04b6b634ebe7ull}},
    {"coremark", "wario", "fixed-50k",
     {467258, 276688, 2275, 9,
      0xfc38f3d360fceec1ull, 0xb50a04b6b634ebe7ull}},
    {"coremark", "wario", "irq-10k",
     {426739, 247329, 2317, 0,
      0x4d3981633be0f8aull, 0x169357cd6e665ce7ull}},
    {"coremark", "wario-diff", "continuous",
     {396318, 266114, 450, 0,
      0xfeb71bc175661674ull, 0xc28c298c0f02ab55ull}},
    {"coremark", "wario-diff", "fixed-50k",
     {491786, 334934, 450, 9,
      0xfeb71bc175661674ull, 0xc28c298c0f02ab55ull}},
    {"coremark", "wario-diff", "irq-10k",
     {401386, 266114, 489, 0,
      0x95358c9000c43f0full, 0xd692ed2069ab47ecull}},
    {"coremark", "wario-spec", "continuous",
     {536632, 269810, 4140, 0,
      0xac57238563eb3e5eull, 0x81092b74e4016053ull}},
    {"coremark", "wario-spec", "fixed-50k",
     {547373, 270059, 4140, 10,
      0xac57238563eb3e5eull, 0x81092b74e4016053ull}},
    {"coremark", "wario-spec", "irq-10k",
     {541932, 269810, 4193, 0,
      0x7cf3955dcc20d5a9ull, 0xa67e623ca70cd5b3ull}},
    {"sha", "wario", "continuous",
     {444673, 198121, 4418, 0,
      0xbb0f3dcd44a615b7ull, 0xcbf022f9ee1d9765ull}},
    {"sha", "wario", "fixed-50k",
     {454154, 198205, 4418, 9,
      0xbb0f3dcd44a615b7ull, 0xcbf022f9ee1d9765ull}},
    {"sha", "wario", "irq-10k",
     {449073, 198121, 4462, 0,
      0xf8e6495d032fb927ull, 0xc5f5f51c0ac8969eull}},
    {"sha", "wario-diff", "continuous",
     {333008, 217108, 294, 0,
      0xf6de5a4934636c2ull, 0xf6d8bcf8364f4320ull}},
    {"sha", "wario-diff", "fixed-50k",
     {347213, 222483, 294, 6,
      0xf6de5a4934636c2ull, 0xf6d8bcf8364f4320ull}},
    {"sha", "wario-diff", "irq-10k",
     {337204, 217108, 327, 0,
      0x890eb422c2765a2dull, 0x509504e3b9e7d16full}},
    {"sha", "wario-spec", "continuous",
     {497736, 221557, 4743, 0,
      0xb9fa06104c8fa266ull, 0x15ea1c2410de1a42ull}},
    {"sha", "wario-spec", "fixed-50k",
     {508635, 221867, 4743, 10,
      0xb9fa06104c8fa266ull, 0x15ea1c2410de1a42ull}},
    {"sha", "wario-spec", "irq-10k",
     {502636, 221557, 4792, 0,
      0x26475f73a8135abbull, 0x959d0eee1537c2c0ull}},
    {"crc", "wario", "continuous",
     {1006302, 501785, 7796, 0,
      0xa046834911b90b0dull, 0x90ca03a0694c9583ull}},
    {"crc", "wario", "fixed-50k",
     {1041989, 513542, 7796, 20,
      0xa046834911b90b0dull, 0x90ca03a0694c9583ull}},
    {"crc", "wario", "irq-10k",
     {1016302, 501785, 7896, 0,
      0x8544f45083dd0b69ull, 0x886e9476fce79e46ull}},
    {"crc", "wario-diff", "continuous",
     {851225, 525727, 1323, 0,
      0x6a6a9f02af7f579dull, 0xccf4a7cbe5924418ull}},
    {"crc", "wario-diff", "fixed-50k",
     {879824, 533600, 1323, 17,
      0x6a6a9f02af7f579dull, 0xccf4a7cbe5924418ull}},
    {"crc", "wario-diff", "irq-10k",
     {861257, 525727, 1407, 0,
      0x1a434ce2fef49b8cull, 0xfe05e74b0e063c27ull}},
    {"crc", "wario-spec", "continuous",
     {1173169, 535142, 10738, 0,
      0xfbc6c5173a750267ull, 0xa17e6d1e1a35a401ull}},
    {"crc", "wario-spec", "fixed-50k",
     {1197750, 535637, 10738, 23,
      0xfbc6c5173a750267ull, 0xa17e6d1e1a35a401ull}},
    {"crc", "wario-spec", "irq-10k",
     {1184869, 535142, 10855, 0,
      0x25880fe67a916496ull, 0x644a858ac604b757ull}},
    {"aes", "wario", "continuous",
     {5343865, 2100704, 54994, 0,
      0xf487637a7dc38aa7ull, 0x964c5038b6848958ull}},
    {"aes", "wario", "fixed-50k",
     {5460643, 2102768, 54994, 109,
      0xf487637a7dc38aa7ull, 0x964c5038b6848958ull}},
    {"aes", "wario", "irq-10k",
     {5397165, 2100704, 55527, 0,
      0xd3d4cc5644b61c4full, 0x5ef25fdd106e70c9ull}},
    {"aes", "wario-diff", "continuous",
     {4287300, 2146892, 15580, 0,
      0x34428673e4f09a1bull, 0x67ef807c12b60cbeull}},
    {"aes", "wario-diff", "fixed-50k",
     {4391937, 2154289, 15580, 87,
      0x34428673e4f09a1bull, 0x67ef807c12b60cbeull}},
    {"aes", "wario-diff", "irq-10k",
     {4338356, 2146892, 16008, 0,
      0x10618cb41d36bef8ull, 0x743e14b21c6d87f5ull}},
    {"aes", "wario-spec", "continuous",
     {5617278, 2188672, 57354, 0,
      0xa8daa15b7765d365ull, 0x91f1053b85647ca1ull}},
    {"aes", "wario-spec", "fixed-50k",
     {5738518, 2190507, 57354, 114,
      0xa8daa15b7765d365ull, 0x91f1053b85647ca1ull}},
    {"aes", "wario-spec", "irq-10k",
     {5673378, 2188672, 57915, 0,
      0x6af70e2c12230d22ull, 0xe4425adea55effacull}},
    {"dijkstra", "wario", "continuous",
     {2002728, 945777, 17657, 0,
      0x2dba1a75b9ce03c8ull, 0x6de3132d8dfa0549ull}},
    {"dijkstra", "wario", "fixed-50k",
     {2048384, 948835, 17657, 40,
      0x2dba1a75b9ce03c8ull, 0x6de3132d8dfa0549ull}},
    {"dijkstra", "wario", "irq-10k",
     {2022628, 945777, 17856, 0,
      0x10b7d53f83a691f4ull, 0x90ee0e7fac9bd07cull}},
    {"dijkstra", "wario-diff", "continuous",
     {1400972, 991249, 77, 0,
      0x8ac2347dc16b5584ull, 0x6197e4a213f4dc2cull}},
    {"dijkstra", "wario-diff", "fixed-50k",
     {2412709, 1674962, 77, 48,
      0x8ac2347dc16b5584ull, 0x6197e4a213f4dc2cull}},
    {"dijkstra", "wario-diff", "irq-10k",
     {1419192, 991249, 216, 0,
      0x467bc27a26e722ecull, 0x82a502a5dfd8d4e7ull}},
    {"dijkstra", "wario-spec", "continuous",
     {1994810, 1005777, 14601, 0,
      0xf6953cb025f3fa60ull, 0xa1012d56c9d0af5full}},
    {"dijkstra", "wario-spec", "fixed-50k",
     {2047864, 1013879, 14601, 40,
      0xf6953cb025f3fa60ull, 0xa1012d56c9d0af5full}},
    {"dijkstra", "wario-spec", "irq-10k",
     {2014710, 1005777, 14800, 0,
      0x1b11dcf92488941dull, 0x380f87e0639e69daull}},
    {"picojpeg", "wario", "continuous",
     {786806, 388047, 6329, 0,
      0x40d53306f9ab97c3ull, 0x407a6a7877d0366dull}},
    {"picojpeg", "wario", "fixed-50k",
     {836902, 414778, 6329, 16,
      0x40d53306f9ab97c3ull, 0x407a6a7877d0366dull}},
    {"picojpeg", "wario", "irq-10k",
     {794606, 388047, 6407, 0,
      0x1a5ff9a5962b13dbull, 0xdd5eaff7d5cd058eull}},
    {"picojpeg", "wario-diff", "continuous",
     {747228, 401770, 3110, 0,
      0x307cb0c8305e73a3ull, 0x62f4a693e27e39beull}},
    {"picojpeg", "wario-diff", "fixed-50k",
     {791478, 423810, 3110, 15,
      0x307cb0c8305e73a3ull, 0x62f4a693e27e39beull}},
    {"picojpeg", "wario-diff", "irq-10k",
     {756420, 401770, 3184, 0,
      0xaeec1284aa2b0ec1ull, 0xeb6876669e430e67ull}},
    {"picojpeg", "wario-spec", "continuous",
     {865124, 406163, 7503, 0,
      0x343e3b78ed49d75dull, 0x256837e6312d7e43ull}},
    {"picojpeg", "wario-spec", "fixed-50k",
     {889806, 411514, 7503, 17,
      0x343e3b78ed49d75dull, 0x256837e6312d7e43ull}},
    {"picojpeg", "wario-spec", "irq-10k",
     {873724, 406163, 7589, 0,
      0xfcabb3fc50e0d17dull, 0x8e7c8c5086202f66ull}},
};
// clang-format on

struct Schedule {
  const char *Name;
  EmulatorOptions EO;
};

std::vector<Schedule> schedules() {
  Schedule Continuous{"continuous", {}};
  Continuous.EO.CollectEventTrace = true;
  Schedule Fixed{"fixed-50k", {}};
  Fixed.EO.Power = PowerSchedule::fixed(50'000);
  Schedule Irq{"irq-10k", {}};
  Irq.EO.InterruptPeriod = 10'000;
  return {Continuous, Fixed, Irq};
}

std::ostream &operator<<(std::ostream &OS, const Pin &P) {
  return OS << "{" << P.TotalCycles << ", " << P.Insts << ", "
            << P.Checkpoints << ", " << P.PowerFailures << ",\n      0x"
            << std::hex << P.MemHash << "ull, 0x" << P.RegionHash
            << std::dec << "ull}";
}

class EmulationPinSuite : public ::testing::TestWithParam<const char *> {};

TEST_P(EmulationPinSuite, MatchesRecordedResults) {
  const Workload &W = getWorkload(GetParam());
  for (CheckpointStrategy S :
       {CheckpointStrategy::Idempotent, CheckpointStrategy::Differential,
        CheckpointStrategy::Speculative}) {
    DiagnosticEngine Diags;
    std::unique_ptr<Module> M = buildWorkloadIR(W, Diags);
    ASSERT_TRUE(M) << Diags.formatAll();
    PipelineOptions PO;
    PO.Strat = S;
    MModule MM = compile(*M, PO);
    const char *Strat = S == CheckpointStrategy::Idempotent ? "wario"
                        : S == CheckpointStrategy::Differential
                            ? "wario-diff"
                            : "wario-spec";
    Emulator E(MM);
    for (const Schedule &Sch : schedules()) {
      EmulatorResult R = E.run(Sch.EO);
      EXPECT_TRUE(R.Ok) << W.Name << " @ " << Strat << " @ " << Sch.Name
                        << ": " << R.Error;
      Pin Got{R.TotalCycles,
              R.InstructionsExecuted,
              R.CheckpointsExecuted,
              R.PowerFailures,
              serve::fnv1a(R.FinalMemory.data(), R.FinalMemory.size()),
              serve::fnv1aU64s(R.RegionSizes)};
      const Recorded *Want = nullptr;
      for (const Recorded &Rec : Expected)
        if (W.Name == Rec.Workload && std::strcmp(Strat, Rec.Strategy) == 0 &&
            std::strcmp(Sch.Name, Rec.Schedule) == 0)
          Want = &Rec;
      if (!Want) {
        ADD_FAILURE() << "no recorded result; measured\n    {\"" << W.Name
                      << "\", \"" << Strat << "\", \"" << Sch.Name
                      << "\",\n     " << Got << "},";
        continue;
      }
      EXPECT_EQ(Got, Want->P) << W.Name << " @ " << Strat << " @ "
                              << Sch.Name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EmulationPinSuite,
                         ::testing::Values("coremark", "sha", "crc", "aes",
                                           "dijkstra", "picojpeg"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

} // namespace
