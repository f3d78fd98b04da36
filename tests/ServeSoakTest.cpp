//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency soak for the serving daemon: N client threads hammer one
/// in-process Server with a deterministic mix of workloads, pipeline
/// options, and power schedules, and every response must be
/// byte-identical to a cold single-threaded compile()+emulate() oracle
/// computed before the daemon starts. Runs with one request computing at
/// once (ServerOptions::Jobs = 1) and with eight; carries the `serve` and
/// `tsan` labels so a WARIO_SANITIZE=thread build races the shared cache,
/// the per-connection write path, and the LRU under load.
/// WARIO_CI_FAST=1 trims clients and request counts.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "emu/Emulator.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Diagnostics.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#include <unistd.h>

using namespace wario;
using namespace wario::serve;

namespace {

bool fastMode() {
  const char *E = std::getenv("WARIO_CI_FAST");
  return E && *E && std::strcmp(E, "0") != 0;
}

/// The soak mix: a pure function of the global request index, cycling
/// workloads, environments, power schedules, and tenants on different
/// strides so the daemon sees repeats (cache hits), cold configurations
/// (misses), and tenant collisions (isolated namespaces) interleaved.
RunRequestMsg mixRequest(uint64_t Idx) {
  static const char *Workloads[] = {"crc", "sha"};
  static const Environment Envs[] = {Environment::PlainC, Environment::Ratchet,
                                     Environment::WarioComplete};
  RunRequestMsg M;
  M.Tenant = (Idx / 4) % 2 ? "soak-b" : "soak-a";
  M.Workload = Workloads[Idx % 2];
  M.PO.Env = Envs[(Idx / 2) % 3];
  if (Idx % 6 == 5)
    M.EO.Power = PowerSchedule::fixed(1'500'000);
  if (Idx % 8 == 3)
    M.EO.CollectRegionSizes = true;
  return M;
}

/// Mix period: indices repeat configurations modulo lcm of the strides
/// (2, 6, 8, and the 6-stride power cycle) — 24 distinct configurations.
constexpr uint64_t MixPeriod = 24;

/// Zeroes what legitimately differs between a cached daemon reply and a
/// cold local run: wall-clock stage timings and cache provenance.
RunReplyMsg canonical(RunReplyMsg M) {
  M.FrontendSeconds = 0;
  M.FrontHalfSeconds = 0;
  M.MiddleEndSeconds = 0;
  M.BackendSeconds = 0;
  M.EmulateSeconds = 0;
  M.ProvenanceBits = 0;
  return M;
}

/// The oracle: a cold single-threaded compile + emulate, bypassing the
/// serve cache entirely (fresh module, fresh machine code, no sharing).
/// It hashes its own result into the reply digest with the FNV kernels
/// directly, so a digest the cache got wrong cannot agree with it.
RunReplyMsg coldReply(const RunRequestMsg &Msg) {
  const Workload *W = findWorkload(Msg.Workload);
  EXPECT_NE(W, nullptr) << Msg.Workload;
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = buildWorkloadIR(*W, Diags);
  EXPECT_NE(M, nullptr) << Diags.formatAll();
  RunResult R;
  MModule MM = compile(*M, Msg.PO, &R.Pipeline);
  R.TextBytes = MM.textSizeBytes();
  R.Emu = emulate(MM, effectiveOptions(Msg.PO, Msg.EO));
  EXPECT_TRUE(R.Emu.Ok) << R.Emu.Error;
  R.MemHash = fnv1a(R.Emu.FinalMemory.data(), R.Emu.FinalMemory.size());
  R.RegionHash = fnv1aU64s(R.Emu.RegionSizes);
  return canonical(makeRunReply(R, Provenance{}));
}

void soak(unsigned ServerJobs) {
  // Each connection's reader computes its own requests, one thread per
  // compile (driver/Pipeline.h), so the concurrency under test is how
  // many requests ServerOptions::Jobs lets compute at once.
  const unsigned Clients = fastMode() ? 2 : 4;
  const unsigned PerClient = fastMode() ? 12 : 36;

  // Oracle first, single-threaded, before any daemon thread exists.
  std::map<uint64_t, RunReplyMsg> Expected;
  for (uint64_t Idx = 0; Idx != MixPeriod; ++Idx)
    Expected.emplace(Idx, coldReply(mixRequest(Idx)));
  ASSERT_FALSE(::testing::Test::HasFailure()) << "oracle runs must succeed";

  const std::string Path =
      "/tmp/wario_soak_" + std::to_string(::getpid()) + ".sock";
  // A modest budget so the soak also exercises concurrent LRU eviction;
  // evicted configurations recompute and must still match the oracle.
  Server S(ServerOptions{Path, size_t(48) << 20, ServerJobs});
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  std::atomic<uint64_t> Mismatches{0};
  std::vector<std::string> Failures(Clients);
  {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != Clients; ++T)
      Threads.emplace_back([&, T] {
        Client C;
        std::string Err;
        if (!C.connect(Path, &Err)) {
          Failures[T] = Err;
          Mismatches.fetch_add(PerClient);
          return;
        }
        for (unsigned I = 0; I != PerClient; ++I) {
          const uint64_t Idx = uint64_t(T) * PerClient + I;
          RunReplyMsg Reply;
          if (!C.run(mixRequest(Idx), Reply, &Err)) {
            Failures[T] = Err;
            Mismatches.fetch_add(1);
            return;
          }
          if (!Reply.Ok || canonical(Reply) != Expected.at(Idx % MixPeriod)) {
            if (Failures[T].empty())
              Failures[T] = "request " + std::to_string(Idx) +
                            " diverged from the cold oracle" +
                            (Reply.Ok ? "" : ": " + Reply.Error);
            Mismatches.fetch_add(1);
          }
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }

  EXPECT_EQ(Mismatches.load(), 0u);
  for (unsigned T = 0; T != Clients; ++T)
    EXPECT_TRUE(Failures[T].empty()) << "client " << T << ": " << Failures[T];

  StatsReplyMsg Stats = S.stats();
  EXPECT_EQ(Stats.RequestsServed, uint64_t(Clients) * PerClient);
  EXPECT_EQ(Stats.ConnectionsAccepted, Clients);
  uint64_t Hits = 0;
  for (int L = 0; L != NumCacheLevels; ++L)
    Hits += Stats.Counters.Hits[L];
  EXPECT_GT(Hits, 0u) << "the mix repeats configurations; some must hit";

  S.stop();
}

TEST(ServeSoak, ConcurrentClientsMatchColdOracleOneJob) { soak(1); }

TEST(ServeSoak, ConcurrentClientsMatchColdOracleEightJobs) { soak(8); }

TEST(ServeSoak, ChurningConnectionsLeakNothing) {
  // Many short-lived connections against one daemon: every fd must be
  // reclaimed (the reader retires itself) and the daemon must keep
  // serving. A leak shows up as accept/connect failures well before
  // RLIMIT_NOFILE on most systems; under TSan the reader-retirement
  // handoff (the fd close under the write mutex + the graveyard) is the
  // actual subject.
  const std::string Path =
      "/tmp/wario_churn_" + std::to_string(::getpid()) + ".sock";
  Server S(ServerOptions{Path, 0, 2});
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  const unsigned Rounds = fastMode() ? 16 : 64;
  RunRequestMsg M;
  M.Workload = "crc";
  M.PO.Env = Environment::PlainC;
  for (unsigned I = 0; I != Rounds; ++I) {
    Client C;
    ASSERT_TRUE(C.connect(Path, &Error)) << "round " << I << ": " << Error;
    RunReplyMsg Reply;
    ASSERT_TRUE(C.run(M, Reply, &Error)) << "round " << I << ": " << Error;
    EXPECT_TRUE(Reply.Ok) << Reply.Error;
    // Half the rounds drop the connection without a clean shutdown.
    if (I % 2)
      C.close();
  }
  StatsReplyMsg Stats = S.stats();
  EXPECT_EQ(Stats.ConnectionsAccepted, Rounds);
  EXPECT_EQ(Stats.RequestsServed, Rounds);
  S.stop();
}

} // namespace
