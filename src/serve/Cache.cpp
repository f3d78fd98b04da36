#include "serve/Cache.h"

#include "serve/Protocol.h"

#include "workloads/Workloads.h"
#include "ir/Cloning.h"

#include <condition_variable>
#include <functional>
#include <list>
#include <map>
#include <mutex>

using namespace wario;
using namespace wario::serve;

EmulatorOptions wario::serve::effectiveOptions(const PipelineOptions &PO,
                                               const EmulatorOptions &EOpts) {
  EmulatorOptions EO = EOpts;
  if (PO.Env == Environment::PlainC)
    EO.WarIsFatal = false;
  return EO;
}

PipelineStats wario::serve::computedStages(const PipelineStats &S,
                                           Provenance P) {
  bool Compiled = P.RunHit || P.CompileHit;
  bool Mid = Compiled || P.MidHit;
  bool Front = Mid || P.FrontHit;
  PipelineStats C = S;
  if (Front)
    C.FrontendSeconds = C.FrontHalfSeconds = 0;
  if (Mid)
    C.MiddleEndSeconds = 0;
  if (Compiled)
    C.BackendSeconds = 0;
  if (P.RunHit)
    C.EmulateSeconds = 0;
  return C;
}

namespace {

//===----------------------------------------------------------------------===//
// Artifacts and keys
//===----------------------------------------------------------------------===//

/// Frontend + front-half artifact: one per (tenant, workload). The module
/// is the pristine post-front-half IR; every pipeline configuration
/// clones it. On failure M is null and Error says why.
struct FrontArtifact {
  std::unique_ptr<Module> M;
  PipelineStats Stats;
  std::string Error;
};

struct FrontKey {
  std::string Tenant, Workload;
  auto operator<=>(const FrontKey &) const = default;
};

struct CompileKey {
  std::string Tenant, Workload;
  PipelineOptions PO;
  auto operator<=>(const CompileKey &) const = default;
};

struct RunKey {
  std::string Tenant, Workload;
  PipelineOptions PO;
  EmulatorOptions EO;
  auto operator<=>(const RunKey &) const = default;
};

//===----------------------------------------------------------------------===//
// Approximate footprints
//===----------------------------------------------------------------------===//
// Byte accounting is approximate by design: the budget bounds the order
// of magnitude of residency, it is not an allocator audit. Each estimate
// covers the fields that actually dominate (arena slabs, instruction
// vectors, the final NVM image).

size_t moduleBytes(const Module *M) {
  return M ? M->getContext().bytesUsed() + 4096 : 256;
}

size_t mmoduleBytes(const MModule &MM) {
  size_t N = MM.InitImage.size() + 1024;
  for (const MFunction &F : MM.Functions)
    for (const MBasicBlock &BB : F.Blocks)
      N += BB.Insts.size() * sizeof(MInst) + sizeof(MBasicBlock);
  return N;
}

size_t emuResultBytes(const EmulatorResult &R) {
  size_t N = R.FinalMemory.size() + R.Output.size() * sizeof(int32_t) +
             R.RegionSizes.size() * sizeof(uint64_t) +
             R.Commits.size() * sizeof(EmulatorResult::CommitEvent) +
             R.StoreCycles.size() * sizeof(uint64_t) + R.Error.size() + 512;
  for (const std::string &S : R.WarReports)
    N += S.size();
  for (const std::string &S : R.Window)
    N += S.size();
  return N;
}

//===----------------------------------------------------------------------===//
// Slots and the LRU index
//===----------------------------------------------------------------------===//

/// Common LRU bookkeeping of a cache entry. Bytes/InLru/LruIt are
/// guarded by the cache mutex; the slot synchronization below is
/// per-slot.
struct EntryBase {
  unsigned Level = 0;
  size_t Bytes = 0;
  bool InLru = false;
  std::list<EntryBase *>::iterator LruIt;
  std::function<void()> EraseFromMap; ///< Drops the owning map's ref.
  virtual ~EntryBase() = default;
};

/// A cache slot: filled exactly once by the thread that claimed it;
/// other threads (and later lookups) block on Ready. The value is a
/// shared_ptr so eviction can never invalidate a holder.
template <typename V> struct Slot : EntryBase {
  std::mutex M;
  std::condition_variable CV;
  bool Ready = false;
  std::shared_ptr<const V> Val;

  void publish(std::shared_ptr<const V> Value) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Val = std::move(Value);
      Ready = true;
    }
    CV.notify_all();
  }
  std::shared_ptr<const V> get() {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [this] { return Ready; });
    return Val;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// The cache
//===----------------------------------------------------------------------===//

struct StagedCache::Impl {
  const CacheConfig Config;

  /// Guards the three maps, the LRU list, and the counters — not the
  /// slots' contents (each slot has its own mutex/CV).
  mutable std::mutex Mutex;
  std::map<FrontKey, std::shared_ptr<Slot<FrontArtifact>>> Front;
  std::map<CompileKey, std::shared_ptr<Slot<CompileResult>>> Compile;
  std::map<RunKey, std::shared_ptr<Slot<RunResult>>> Run;
  std::list<EntryBase *> Lru; ///< Front = most recently used.
  CacheCounters Ctr;

  explicit Impl(CacheConfig C) : Config(std::move(C)) {
    Ctr.ByteBudget = Config.ByteBudget;
  }

  /// Claims or finds the slot for \p Key. Returns the slot (shared: it
  /// outlives eviction while any claimer holds it) and whether this
  /// caller must compute it.
  template <typename MapT, typename KeyT>
  auto claim(MapT &Map, const KeyT &Key, unsigned Level, bool *HitFlag)
      -> std::pair<typename MapT::mapped_type, bool> {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto [It, Inserted] = Map.try_emplace(Key);
    if (Inserted) {
      using SlotT = typename MapT::mapped_type::element_type;
      It->second = std::make_shared<SlotT>();
      It->second->Level = Level;
      It->second->EraseFromMap = [&Map, Key] { Map.erase(Key); };
      ++Ctr.Misses[Level];
    } else {
      ++Ctr.Hits[Level];
      if (HitFlag)
        *HitFlag = true;
      if (It->second->InLru) // Unpublished slots are not in the LRU yet.
        Lru.splice(Lru.begin(), Lru, It->second->LruIt);
    }
    return {It->second, Inserted};
  }

  /// Books a freshly published entry into the LRU and the byte total,
  /// then evicts from the cold end until the budget holds again. The
  /// most-recently-used entry (the one just booked) is never evicted.
  void account(EntryBase &E, size_t Bytes) {
    std::lock_guard<std::mutex> Lock(Mutex);
    E.Bytes = Bytes;
    Lru.push_front(&E);
    E.LruIt = Lru.begin();
    E.InLru = true;
    Ctr.BytesUsed += Bytes;
    ++Ctr.Entries;
    while (Config.ByteBudget && Ctr.BytesUsed > Config.ByteBudget &&
           Lru.size() > 1) {
      EntryBase *Cold = Lru.back();
      Lru.pop_back();
      Cold->InLru = false;
      Ctr.BytesUsed -= Cold->Bytes;
      Ctr.BytesEvicted += Cold->Bytes;
      ++Ctr.Evictions[Cold->Level];
      --Ctr.Entries;
      Cold->EraseFromMap(); // May destroy *Cold: last use of the pointer.
    }
  }

  std::shared_ptr<const FrontArtifact> frontFor(const std::string &Tenant,
                                                const std::string &Name,
                                                Provenance *Prov) {
    auto [S, Mine] = claim(Front, FrontKey{Tenant, Name}, LevelFront,
                           Prov ? &Prov->FrontHit : nullptr);
    if (Mine) {
      auto A = std::make_shared<FrontArtifact>();
      {
        StageTimer T(A->Stats.FrontendSeconds);
        if (const Workload *W = findWorkload(Name)) {
          DiagnosticEngine Diags;
          A->M = buildWorkloadIR(*W, Diags);
          if (!A->M)
            A->Error = "frontend failure on " + Name + ":\n" +
                       Diags.formatAll();
        } else {
          A->Error = "unknown workload '" + Name + "'";
        }
      }
      if (A->M)
        runFrontHalf(*A->M, A->Stats);
      size_t Bytes = moduleBytes(A->M.get()) + A->Error.size();
      S->publish(std::move(A));
      account(*S, Bytes);
    }
    return S->get();
  }

  std::shared_ptr<const CompileResult> compileFor(const CacheRequest &R,
                                                  Provenance *Prov) {
    auto [S, Mine] = claim(Compile, CompileKey{R.Tenant, R.Workload, R.PO},
                           LevelCompile, Prov ? &Prov->CompileHit : nullptr);
    if (Mine) {
      std::shared_ptr<const FrontArtifact> F =
          frontFor(R.Tenant, R.Workload, Prov);
      auto A = std::make_shared<CompileResult>();
      A->Error = F->Error;
      if (F->M) {
        // The middle end runs on a private clone that dies with this
        // scope: no middle-end module is stored, so its level only
        // counts runs (one miss each, never a hit).
        {
          std::lock_guard<std::mutex> Lock(Mutex);
          ++Ctr.Misses[LevelMid];
        }
        std::unique_ptr<Module> M = cloneModule(*F->M);
        A->Pipeline = F->Stats;
        runMiddleEnd(*M, R.PO, A->Pipeline);
        A->MM = runBackendStage(*M, R.PO, A->Pipeline);
        A->TextBytes = A->MM.textSizeBytes();
      }
      size_t Bytes = mmoduleBytes(A->MM) + A->Error.size();
      S->publish(std::move(A));
      account(*S, Bytes);
    }
    return S->get();
  }

  std::shared_ptr<const RunResult> runFor(const CacheRequest &R,
                                          Provenance *Prov) {
    auto [S, Mine] = claim(Run, RunKey{R.Tenant, R.Workload, R.PO, R.EO},
                           LevelRun, Prov ? &Prov->RunHit : nullptr);
    if (Mine) {
      std::shared_ptr<const CompileResult> CR = compileFor(R, Prov);
      auto Res = std::make_shared<RunResult>();
      Res->Pipeline = CR->Pipeline;
      Res->TextBytes = CR->TextBytes;
      Res->Error = CR->Error;
      if (Res->Error.empty()) {
        {
          StageTimer T(Res->Pipeline.EmulateSeconds);
          Res->Emu = emulate(CR->MM, effectiveOptions(R.PO, R.EO));
        }
        if (!Res->Emu.Ok)
          Res->Error = "emulation failure on " + R.Workload + " @ " +
                       environmentName(R.PO.Env) + ": " + Res->Emu.Error;
      } else {
        Res->Emu.Ok = false;
        Res->Emu.Error = Res->Error;
      }
      // Every reply of this result carries the digest; hash once here,
      // outside the emulate timer, rather than per reply.
      Res->MemHash =
          fnv1a(Res->Emu.FinalMemory.data(), Res->Emu.FinalMemory.size());
      Res->RegionHash = fnv1aU64s(Res->Emu.RegionSizes);
      size_t Bytes = emuResultBytes(Res->Emu) + sizeof(RunResult);
      S->publish(std::move(Res));
      account(*S, Bytes);
    }
    return S->get();
  }
};

StagedCache::StagedCache(CacheConfig Config)
    : I(std::make_unique<Impl>(std::move(Config))) {}
StagedCache::~StagedCache() = default;

std::shared_ptr<const RunResult> StagedCache::run(const CacheRequest &R,
                                                  Provenance *Prov) {
  if (Prov)
    *Prov = Provenance{}; // Per-request provenance: start from no-hits.
  return I->runFor(R, Prov);
}

std::shared_ptr<const CompileResult>
StagedCache::compileCell(const CacheRequest &R, Provenance *Prov) {
  if (Prov)
    *Prov = Provenance{};
  return I->compileFor(R, Prov);
}

CacheCounters StagedCache::counters() const {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  return I->Ctr;
}
