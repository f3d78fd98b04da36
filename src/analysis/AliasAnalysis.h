//===----------------------------------------------------------------------===//
///
/// \file
/// Alias analysis with two precision levels.
///
/// The paper's Ratchet baseline uses LLVM's built-in aliasing while WARio
/// and R-PDG use NOELLE's PDG (built on richer alias analyses). We model
/// that split with two precision levels:
///
///  - Conservative: resolves address expressions only through Gep chains
///    with constant offsets; any variable-indexed access has an unknown
///    base and may-aliases everything. This over-approximates aggressively,
///    like the baseline the paper reports as "disproportionately" over-
///    instrumented.
///  - Precise: tracks bases through variable-indexed Geps, phis and
///    selects, distinguishes identified objects (globals, allocas), and
///    reasons about constant-offset ranges and matching index expressions.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_ANALYSIS_ALIASANALYSIS_H
#define WARIO_ANALYSIS_ALIASANALYSIS_H

#include "ir/Function.h"

#include <unordered_map>
#include <unordered_set>

namespace wario {

enum class AliasResult { NoAlias, MayAlias, MustAlias };

enum class AliasPrecision {
  Conservative, ///< Models the Ratchet baseline's aliasing.
  Precise,      ///< Models the NOELLE PDG used by R-PDG and WARio.
};

/// A decomposed memory address: an identified base object (or unknown)
/// plus either a constant byte offset or a variable index expression.
struct MemLocation {
  /// The identified base (GlobalVariable or Alloca instruction), or
  /// nullptr when the base could not be resolved.
  const Value *Base = nullptr;
  /// True if the full address is Base + ConstOffset.
  bool HasConstOffset = false;
  int32_t ConstOffset = 0;
  /// For single variable-indexed addresses: Base + Index*Scale + Offset.
  const Value *Index = nullptr;
  int32_t Scale = 1;

  bool isIdentified() const { return Base != nullptr; }
};

/// Per-function alias queries at a configurable precision.
///
/// Queries are pure functions of the IR, so results are memoized: address
/// decompositions per Value, and pair verdicts per canonicalized
/// (AddrA, SizeA, AddrB, SizeB, CrossIteration) key — alias() is
/// symmetric, so (A, B) and (B, A) share one entry. MemoryDependence's
/// WAR search therefore never re-computes a query it (or any earlier
/// pass holding the same AliasAnalysis) already issued. The caches key
/// on Value pointers: invalidate() (or a fresh AliasAnalysis) is required
/// after the IR is mutated. Instances are not thread-safe; use one per
/// thread.
class AliasAnalysis {
public:
  explicit AliasAnalysis(AliasPrecision P, bool EnableCache = true)
      : Precision(P), CacheEnabled(EnableCache) {}

  AliasPrecision getPrecision() const { return Precision; }

  /// Drops all memoized results (call after mutating the IR).
  void invalidate() const {
    LocationCache.clear();
    QueryCache.clear();
  }

  /// Decomposes the address \p Addr (as used by a load/store).
  MemLocation getLocation(const Value *Addr) const;

  /// May/must/no-alias verdict for two accesses of \p SizeA and \p SizeB
  /// bytes at the given addresses.
  ///
  /// \p CrossIteration matters when address expressions involve loop-
  /// variant values: with it set, the two accesses may execute in
  /// *different* iterations, so a shared symbolic index denotes two
  /// different runtime values. Equal symbolic addresses then only
  /// MayAlias, and constant-offset disjointness weakens to a
  /// residue-class argument (a[2i] vs a[2i'+1] still cannot collide).
  AliasResult alias(const Value *AddrA, uint8_t SizeA, const Value *AddrB,
                    uint8_t SizeB, bool CrossIteration = false) const;

  /// Convenience: verdict for two memory-access instructions.
  AliasResult alias(const Instruction *A, const Instruction *B,
                    bool CrossIteration = false) const;

private:
  MemLocation decompose(const Value *Addr, unsigned Depth) const;
  AliasResult aliasUncached(const Value *AddrA, uint8_t SizeA,
                            const Value *AddrB, uint8_t SizeB,
                            bool CrossIteration) const;

  /// Canonicalized pair-query key: the lower pointer first (alias() is
  /// symmetric), sizes in matching order, plus the cross-iteration flag.
  struct QueryKey {
    const Value *A;
    const Value *B;
    uint8_t SizeA;
    uint8_t SizeB;
    bool Cross;
    bool operator==(const QueryKey &O) const {
      return A == O.A && B == O.B && SizeA == O.SizeA && SizeB == O.SizeB &&
             Cross == O.Cross;
    }
  };
  struct QueryKeyHash {
    size_t operator()(const QueryKey &K) const {
      size_t H = std::hash<const void *>()(K.A);
      H = H * 1000003u ^ std::hash<const void *>()(K.B);
      H = H * 1000003u ^
          (size_t(K.SizeA) << 10 | size_t(K.SizeB) << 2 | size_t(K.Cross));
      return H;
    }
  };

  AliasPrecision Precision;
  bool CacheEnabled;
  mutable std::unordered_map<const Value *, MemLocation> LocationCache;
  mutable std::unordered_map<QueryKey, AliasResult, QueryKeyHash> QueryCache;
};

} // namespace wario

#endif // WARIO_ANALYSIS_ALIASANALYSIS_H
