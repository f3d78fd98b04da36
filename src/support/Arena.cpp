#include "support/Arena.h"

#include <algorithm>
#include <mutex>
#include <new>
#include <shared_mutex>
#include <unordered_set>

using namespace wario;

Arena::~Arena() {
  for (const Slab &S : Slabs)
    ::operator delete(S.Base);
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
  size_t SlabSize = std::max(Bytes, SlabQuantum);
  Slabs.push_back(
      {static_cast<char *>(::operator new(SlabSize)), SlabSize, Bytes});
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
    char *Base = static_cast<char *>(::operator new(S.Size));
    std::memcpy(Base, S.Base, S.Used);
    Slabs.push_back({Base, S.Size, S.Used});
  }
}

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
