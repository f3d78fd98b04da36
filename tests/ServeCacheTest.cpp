//===----------------------------------------------------------------------===//
///
/// \file
/// Behavioral tests for the daemon's shared staged cache
/// (src/serve/Cache.h): LRU eviction honors the byte budget, tenants are
/// fully isolated namespaces (same options under two tenants occupy two
/// entries and never hit each other), and the hit/miss/eviction counters
/// match a hand-computed trace of a scripted request sequence, and every
/// published run result carries the reply digest of its own image.
///
//===----------------------------------------------------------------------===//

#include "serve/Cache.h"
#include "serve/Protocol.h"

#include <gtest/gtest.h>

using namespace wario;
using namespace wario::serve;

namespace {

CacheRequest req(const std::string &Tenant, const std::string &Workload,
                 Environment Env) {
  CacheRequest R;
  R.Tenant = Tenant;
  R.Workload = Workload;
  R.PO.Env = Env;
  return R;
}

uint64_t total(const uint64_t (&A)[NumCacheLevels]) {
  uint64_t T = 0;
  for (int L = 0; L != NumCacheLevels; ++L)
    T += A[L];
  return T;
}

TEST(ServeCache, CountersMatchAHandComputedTrace) {
  StagedCache Cache{CacheConfig{}};

  // A1: cold run — misses at all four levels (the middle end's is its
  // one run), one entry published at each of the three stored levels.
  Provenance P;
  std::shared_ptr<const RunResult> A1 =
      Cache.run(req("a", "crc", Environment::RPDG), &P);
  ASSERT_TRUE(A1->Error.empty()) << A1->Error;
  EXPECT_EQ(P.bits(), 0u) << "a cold run hits nothing";
  CacheCounters C = Cache.counters();
  for (int L = 0; L != NumCacheLevels; ++L) {
    EXPECT_EQ(C.Misses[L], 1u) << "level " << L;
    EXPECT_EQ(C.Hits[L], 0u) << "level " << L;
  }
  EXPECT_EQ(C.Entries, 3u);

  // A2: identical request — answered at the run level alone.
  std::shared_ptr<const RunResult> A2 =
      Cache.run(req("a", "crc", Environment::RPDG), &P);
  EXPECT_EQ(A2.get(), A1.get());
  EXPECT_TRUE(P.RunHit);
  C = Cache.counters();
  EXPECT_EQ(C.Hits[LevelRun], 1u);
  EXPECT_EQ(C.Hits[LevelCompile], 0u);
  EXPECT_EQ(C.Misses[LevelRun], 1u);
  EXPECT_EQ(C.Entries, 3u);

  // A3: same pipeline, different emulator options — run-level miss
  // served from the compile-level artifact.
  CacheRequest R3 = req("a", "crc", Environment::RPDG);
  R3.EO.MaxCycles = 500'000'000;
  ASSERT_TRUE(Cache.run(R3, &P)->Error.empty());
  EXPECT_TRUE(P.CompileHit);
  EXPECT_FALSE(P.RunHit);
  C = Cache.counters();
  EXPECT_EQ(C.Misses[LevelRun], 2u);
  EXPECT_EQ(C.Hits[LevelCompile], 1u);
  EXPECT_EQ(C.Misses[LevelCompile], 1u);
  EXPECT_EQ(C.Entries, 4u);

  // A4: an environment sharing R-PDG's middle-end configuration but not
  // its back end — compile-level miss that runs the middle end again on
  // a clone of the front-level module (no middle-end module is stored).
  ASSERT_TRUE(
      Cache.run(req("a", "crc", Environment::EpilogOnly), &P)->Error.empty());
  EXPECT_TRUE(P.FrontHit);
  EXPECT_FALSE(P.MidHit);
  EXPECT_FALSE(P.CompileHit);
  C = Cache.counters();
  EXPECT_EQ(C.Misses[LevelRun], 3u);
  EXPECT_EQ(C.Misses[LevelCompile], 2u);
  EXPECT_EQ(C.Hits[LevelMid], 0u);
  EXPECT_EQ(C.Misses[LevelMid], 2u);
  EXPECT_EQ(C.Entries, 6u);

  // A5: the same request under another tenant — misses every level (a
  // tenant namespace shares nothing, not even the frontend parse).
  ASSERT_TRUE(
      Cache.run(req("b", "crc", Environment::EpilogOnly), &P)->Error.empty());
  EXPECT_EQ(P.bits(), 0u) << "no cross-tenant hits at any level";
  C = Cache.counters();
  EXPECT_EQ(C.Misses[LevelFront], 2u);
  EXPECT_EQ(C.Misses[LevelMid], 3u);
  EXPECT_EQ(C.Misses[LevelCompile], 3u);
  EXPECT_EQ(C.Misses[LevelRun], 4u);
  EXPECT_EQ(C.Hits[LevelFront], 1u);
  EXPECT_EQ(C.Hits[LevelMid], 0u);
  EXPECT_EQ(C.Hits[LevelCompile], 1u);
  EXPECT_EQ(C.Hits[LevelRun], 1u);
  EXPECT_EQ(C.Entries, 9u);
  EXPECT_EQ(total(C.Evictions), 0u) << "unbounded cache must never evict";
  EXPECT_EQ(C.BytesEvicted, 0u);
  EXPECT_GT(C.BytesUsed, 0u);
}

TEST(ServeCache, TenantsAreIsolatedNamespaces) {
  StagedCache Cache{CacheConfig{}};
  std::shared_ptr<const RunResult> A =
      Cache.run(req("tenant-a", "sha", Environment::WarioComplete));
  std::shared_ptr<const RunResult> B =
      Cache.run(req("tenant-b", "sha", Environment::WarioComplete));
  ASSERT_TRUE(A->Error.empty());
  ASSERT_TRUE(B->Error.empty());
  EXPECT_NE(A.get(), B.get()) << "same options, two tenants, two entries";

  // Isolation is namespacing, not divergence: both tenants' runs must
  // still compute the same result.
  EXPECT_EQ(A->Emu.ReturnValue, B->Emu.ReturnValue);
  EXPECT_EQ(A->Emu.TotalCycles, B->Emu.TotalCycles);
  EXPECT_EQ(A->Emu.FinalMemory, B->Emu.FinalMemory);
  EXPECT_EQ(A->TextBytes, B->TextBytes);

  CacheCounters C = Cache.counters();
  EXPECT_EQ(total(C.Hits), 0u);
  EXPECT_EQ(C.Entries, 6u) << "every stored level is duplicated per tenant";

  // Within a tenant the entries behave normally.
  Provenance P;
  Cache.run(req("tenant-a", "sha", Environment::WarioComplete), &P);
  EXPECT_TRUE(P.RunHit);
}

TEST(ServeCache, LruEvictionHonorsTheByteBudget) {
  const size_t Budget = 1 << 20; // Far below three environments' worth.
  StagedCache Cache{CacheConfig{Budget}};
  for (Environment E : {Environment::PlainC, Environment::Ratchet,
                        Environment::WarioComplete}) {
    std::shared_ptr<const RunResult> R = Cache.run(req("t", "crc", E));
    ASSERT_TRUE(R->Error.empty()) << R->Error;
    CacheCounters C = Cache.counters();
    EXPECT_TRUE(C.BytesUsed <= Budget || C.Entries == 1)
        << C.BytesUsed << " bytes resident over the " << Budget
        << "-byte budget across " << C.Entries << " entries";
  }
  CacheCounters C = Cache.counters();
  EXPECT_EQ(C.ByteBudget, Budget);
  EXPECT_GT(total(C.Evictions), 0u);
  EXPECT_GT(C.BytesEvicted, 0u);

  // An evicted configuration recomputes — same answer, fresh entry.
  Provenance P;
  std::shared_ptr<const RunResult> Again =
      Cache.run(req("t", "crc", Environment::PlainC), &P);
  ASSERT_TRUE(Again->Error.empty());
  EXPECT_FALSE(P.RunHit) << "the oldest entry must have been evicted";
}

TEST(ServeCache, EvictionNeverStrandsALiveResult) {
  // Holders keep evicted artifacts alive through their shared_ptr; the
  // cache merely forgets them. A tiny budget forces every publish to
  // evict the predecessor while the caller still holds it.
  StagedCache Cache{CacheConfig{1}}; // 1 byte: evict always.
  std::shared_ptr<const RunResult> First =
      Cache.run(req("t", "crc", Environment::PlainC));
  std::shared_ptr<const RunResult> Second =
      Cache.run(req("t", "crc", Environment::WarioComplete));
  ASSERT_TRUE(First->Error.empty());
  ASSERT_TRUE(Second->Error.empty());
  EXPECT_FALSE(First->Emu.FinalMemory.empty());
  EXPECT_NE(First->Emu.TotalCycles, Second->Emu.TotalCycles);
  CacheCounters C = Cache.counters();
  EXPECT_GT(total(C.Evictions), 0u);
  EXPECT_LE(C.Entries, 1u) << "a 1-byte budget keeps at most the MRU entry";
}

TEST(ServeCache, ErrorsAreCachedAsData) {
  // An unknown workload or failing pipeline is a result, not an
  // exception: the entry caches and replays like any other.
  StagedCache Cache{CacheConfig{}};
  Provenance P;
  std::shared_ptr<const RunResult> R =
      Cache.run(req("t", "no-such-workload", Environment::PlainC), &P);
  EXPECT_FALSE(R->Error.empty());
  EXPECT_FALSE(R->Emu.Ok);
  std::shared_ptr<const RunResult> R2 =
      Cache.run(req("t", "no-such-workload", Environment::PlainC), &P);
  EXPECT_EQ(R.get(), R2.get()) << "failures replay from cache too";
  EXPECT_TRUE(P.RunHit);
}

TEST(ServeCache, PublishedResultsCarryTheirReplyDigest) {
  // The run level hashes each result once, before publishing it; a hit
  // must reply with the digest the miss computed, and the digest must be
  // the kernels' value over the result's own image and region sizes.
  auto ExpectDigest = [](const RunResult &R, const std::string &Tag) {
    EXPECT_EQ(R.MemHash,
              fnv1a(R.Emu.FinalMemory.data(), R.Emu.FinalMemory.size()))
        << Tag;
    EXPECT_EQ(R.RegionHash, fnv1aU64s(R.Emu.RegionSizes)) << Tag;
  };
  auto ExpectHitRepliesAsMiss = [](StagedCache &Cache, const CacheRequest &Q,
                                   const RunResult &Missed, Provenance Miss,
                                   const std::string &Tag) {
    Provenance Hit;
    std::shared_ptr<const RunResult> Again = Cache.run(Q, &Hit);
    EXPECT_TRUE(Hit.RunHit) << Tag;
    RunReplyMsg A = makeRunReply(Missed, Miss), B = makeRunReply(*Again, Hit);
    EXPECT_EQ(B.MemHash, A.MemHash) << Tag;
    EXPECT_EQ(B.RegionHash, A.RegionHash) << Tag;
  };

  StagedCache Cache{CacheConfig{}};
  Provenance P;
  const CacheRequest Good = req("t", "crc", Environment::WarioComplete);
  std::shared_ptr<const RunResult> Ok = Cache.run(Good, &P);
  ASSERT_TRUE(Ok->Error.empty()) << Ok->Error;
  ASSERT_FALSE(P.RunHit);
  ASSERT_FALSE(Ok->Emu.FinalMemory.empty());
  ASSERT_FALSE(Ok->Emu.RegionSizes.empty());
  ExpectDigest(*Ok, "ok");
  ExpectHitRepliesAsMiss(Cache, Good, *Ok, P, "ok");

  // A failure has no image: it hashes to the FNV offset basis, as a
  // failed reply always has.
  const CacheRequest Bad = req("t", "no-such-workload", Environment::PlainC);
  std::shared_ptr<const RunResult> Failed = Cache.run(Bad, &P);
  ASSERT_FALSE(Failed->Error.empty());
  ASSERT_FALSE(P.RunHit);
  ExpectDigest(*Failed, "unknown workload");
  EXPECT_EQ(Failed->MemHash, 1469598103934665603ull);
  ExpectHitRepliesAsMiss(Cache, Bad, *Failed, P, "unknown workload");

  // A 1-byte budget evicts every result but the newest; the evicted
  // configuration recomputes its digest to the same value.
  StagedCache Tiny{CacheConfig{1}};
  const CacheRequest Evicted = req("t", "crc", Environment::Ratchet);
  std::shared_ptr<const RunResult> First = Tiny.run(Evicted);
  Tiny.run(req("t", "crc", Environment::PlainC));
  std::shared_ptr<const RunResult> Recomputed = Tiny.run(Evicted, &P);
  ASSERT_TRUE(Recomputed->Error.empty()) << Recomputed->Error;
  ASSERT_FALSE(P.RunHit) << "the 1-byte budget must have evicted it";
  ASSERT_NE(Recomputed.get(), First.get());
  ExpectDigest(*First, "evicted");
  ExpectDigest(*Recomputed, "recomputed");
  EXPECT_EQ(Recomputed->MemHash, First->MemHash);
  EXPECT_EQ(Recomputed->RegionHash, First->RegionHash);
  ExpectHitRepliesAsMiss(Tiny, Evicted, *Recomputed, P, "recomputed");
}

} // namespace
