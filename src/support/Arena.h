//===----------------------------------------------------------------------===//
///
/// \file
/// Bump-pointer arena allocation for the IR core, plus the process-wide
/// string interner.
///
/// An Arena hands out memory by bumping a cursor through slabs it takes
/// from ::operator new; nothing is freed individually, and destroying the
/// arena frees every slab. cloneModule duplicates an arena with plain
/// memcpy (Arena::adoptCopyOf): the copy takes one slab of the same size
/// per source slab, so every node keeps its offset within its slab and
/// the pointers can be fixed up afterwards.
///
/// ArenaVec is the growable-array companion: a trivially-copyable
/// {data, size, capacity} triple whose storage lives in an arena. IR nodes
/// use it for operand, user, and predecessor lists so that whole nodes
/// stay trivially copyable for the bulk clone.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_SUPPORT_ARENA_H
#define WARIO_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace wario {

struct ModuleCloner;

/// A bump-pointer allocator over owned slabs. Not thread-safe: one arena
/// backs one IR module, and only the thread compiling that module
/// allocates from it.
class Arena {
public:
  /// Minimum slab size; a larger request gets a slab of its own size.
  static constexpr size_t SlabQuantum = 1u << 16; // 64 KiB

  struct Slab {
    char *Base;
    size_t Size; ///< Total capacity in bytes (at least SlabQuantum).
    size_t Used; ///< Bump cursor.
  };

  Arena() = default;
  ~Arena();
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Bump-allocates \p Bytes with \p Align (power of two).
  void *allocate(size_t Bytes, size_t Align);

  /// Placement-constructs a T in the arena. T must be trivially
  /// destructible: arena teardown never runs destructors.
  template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena-allocated types must not need destructors");
    return new (allocate(sizeof(T), alignof(T)))
        T(std::forward<ArgTs>(Args)...);
  }

  const std::vector<Slab> &slabs() const { return Slabs; }

  /// Total bytes handed out so far (sum of every slab's cursor).
  size_t bytesUsed() const;

  /// Clone support: this arena must be empty; afterwards it holds slabs of
  /// exactly the same sizes and cursors as \p Src, with identical
  /// contents. Interior pointers still point into \p Src — the caller
  /// (ModuleCloner) rewrites them.
  void adoptCopyOf(const Arena &Src);

private:
  std::vector<Slab> Slabs;
};

/// Interns \p S into a process-wide, thread-safe table and returns a
/// reference that lives until process exit. Equal strings yield the same
/// address, so IR nodes store `const std::string *` names — trivially
/// copyable, clone-invariant, and free to compare.
const std::string &internedName(std::string S);

/// A growable array of trivially-copyable elements with arena-backed
/// storage. Growth allocates a fresh block and abandons the old one (bump
/// arenas do not free); mutation APIs therefore take the Arena explicitly.
template <typename T> class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVec elements must be trivially copyable");

public:
  ArenaVec() = default;
  ArenaVec(const ArenaVec &) = delete;
  ArenaVec &operator=(const ArenaVec &) = delete;

  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  T *begin() { return Data; }
  T *end() { return Data + Sz; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Sz; }

  size_t size() const { return Sz; }
  bool empty() const { return Sz == 0; }

  T &operator[](size_t I) {
    assert(I < Sz && "ArenaVec index out of range");
    return Data[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Sz && "ArenaVec index out of range");
    return Data[I];
  }
  T &front() { return (*this)[0]; }
  T &back() { return (*this)[Sz - 1]; }
  const T &front() const { return (*this)[0]; }
  const T &back() const { return (*this)[Sz - 1]; }

  void push_back(Arena &A, const T &V) {
    if (Sz == Cap)
      grow(A, Sz + 1);
    Data[Sz++] = V;
  }

  void pop_back() {
    assert(Sz && "pop_back on empty ArenaVec");
    --Sz;
  }

  /// Drops all elements but keeps the storage (the predecessor caches are
  /// rebuilt over and over; this keeps that churn allocation-free).
  void clear() { Sz = 0; }

  /// Removes element \p I, shifting later elements down — order-preserving,
  /// like std::vector::erase. User lists rely on this: passes iterate them
  /// and the order is part of the deterministic-compile contract.
  void erase(size_t I) {
    assert(I < Sz && "ArenaVec erase out of range");
    std::memmove(Data + I, Data + I + 1, (Sz - I - 1) * sizeof(T));
    --Sz;
  }

  void reserve(Arena &A, size_t N) {
    if (N > Cap)
      grow(A, N);
  }

  void assign(Arena &A, const T *First, const T *Last) {
    Sz = 0;
    reserve(A, size_t(Last - First));
    std::memcpy(Data, First, size_t(Last - First) * sizeof(T));
    Sz = uint32_t(Last - First);
  }

private:
  friend struct ModuleCloner;

  void grow(Arena &A, size_t MinCap) {
    size_t NewCap = Cap ? Cap * 2 : 4;
    if (NewCap < MinCap)
      NewCap = MinCap;
    T *NewData = static_cast<T *>(A.allocate(NewCap * sizeof(T), alignof(T)));
    if (Sz)
      std::memcpy(NewData, Data, Sz * sizeof(T));
    Data = NewData;
    Cap = uint32_t(NewCap);
  }

  T *Data = nullptr;
  uint32_t Sz = 0;
  uint32_t Cap = 0;
};

} // namespace wario

#endif // WARIO_SUPPORT_ARENA_H
