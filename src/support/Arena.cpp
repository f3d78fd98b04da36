#include "support/Arena.h"

#include <map>
#include <mutex>
#include <new>
#include <shared_mutex>
#include <unordered_set>

using namespace wario;

namespace {

/// Process-wide recycling pool of arena slabs, keyed by (quantized) size.
/// Module lifetimes in the experiment harness are short and bursty —
/// clone, mutate, measure, drop — so slabs cycle through here instead of
/// the system allocator.
class SlabPool {
public:
  /// The pool is built on first use and never destroyed: arenas owned by
  /// other statics (a process-lifetime cache's modules) release their
  /// slabs during exit, after any function-local static built later than
  /// them would already be gone.
  static SlabPool &get() {
    static SlabPool *Pool = new SlabPool;
    return *Pool;
  }

  char *acquire(size_t Size) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      auto It = Free.find(Size);
      if (It != Free.end() && !It->second.empty()) {
        char *Base = It->second.back();
        It->second.pop_back();
        FreeBytes -= Size;
        return Base;
      }
    }
    return static_cast<char *>(::operator new(Size));
  }

  void release(char *Base, size_t Size) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Free[Size].push_back(Base);
    FreeBytes += Size;
  }

  size_t freeBytes() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return FreeBytes;
  }

private:
  mutable std::mutex Mutex;
  std::map<size_t, std::vector<char *>> Free;
  size_t FreeBytes = 0;
};

size_t quantize(size_t Bytes) {
  return (Bytes + Arena::SlabQuantum - 1) / Arena::SlabQuantum *
         Arena::SlabQuantum;
}

} // namespace

Arena::~Arena() {
  for (const Slab &S : Slabs)
    SlabPool::get().release(S.Base, S.Size);
}

void *Arena::allocate(size_t Bytes, size_t Align) {
  assert(Align && (Align & (Align - 1)) == 0 && "alignment not a power of 2");
  assert(Align <= alignof(std::max_align_t) && "over-aligned arena request");
  if (!Slabs.empty()) {
    Slab &S = Slabs.back();
    size_t Aligned = (S.Used + Align - 1) & ~(Align - 1);
    if (Aligned + Bytes <= S.Size) {
      S.Used = Aligned + Bytes;
      return S.Base + Aligned;
    }
  }
  size_t SlabSize = quantize(Bytes);
  Slabs.push_back({SlabPool::get().acquire(SlabSize), SlabSize, Bytes});
  return Slabs.back().Base;
}

size_t Arena::bytesUsed() const {
  size_t N = 0;
  for (const Slab &S : Slabs)
    N += S.Used;
  return N;
}

void Arena::adoptCopyOf(const Arena &Src) {
  assert(Slabs.empty() && "adoptCopyOf target must be a fresh arena");
  Slabs.reserve(Src.Slabs.size());
  for (const Slab &S : Src.Slabs) {
    char *Base = SlabPool::get().acquire(S.Size);
    std::memcpy(Base, S.Base, S.Used);
    Slabs.push_back({Base, S.Size, S.Used});
  }
}

size_t Arena::pooledBytes() { return SlabPool::get().freeBytes(); }

const std::string &wario::internedName(std::string S) {
  // std::unordered_set never moves elements, so the returned reference is
  // stable for the life of the process.
  static std::shared_mutex Mutex;
  static std::unordered_set<std::string> Table;
  {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    auto It = Table.find(S);
    if (It != Table.end())
      return *It;
  }
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  return *Table.insert(std::move(S)).first;
}
