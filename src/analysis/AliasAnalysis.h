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

/// A memory access decomposed once: its address value, that address's
/// location, and its size in bytes. Callers that query one access
/// against many (findWars) keep these instead of re-decomposing per pair.
struct MemAccess {
  const Value *Addr = nullptr;
  MemLocation Loc;
  uint8_t Size = 0;
};

/// Per-function alias queries at a configurable precision.
///
/// The analysis holds nothing but its precision: access() decomposes an
/// address and alias() computes the verdict on every call. Queries are
/// pure functions of the IR, so an instance stays valid across IR
/// mutation and may be shared between threads.
class AliasAnalysis {
public:
  explicit AliasAnalysis(AliasPrecision P) : Precision(P) {}

  /// Decomposes an access of \p Size bytes at \p Addr.
  MemAccess access(const Value *Addr, uint8_t Size) const {
    return {Addr, decompose(Addr, 0), Size};
  }
  /// Decomposes the load or store \p I.
  MemAccess access(const Instruction *I) const;

  /// May/must/no-alias verdict for two decomposed accesses. Symmetric in
  /// the two accesses.
  ///
  /// \p CrossIteration matters when address expressions involve loop-
  /// variant values: with it set, the two accesses may execute in
  /// *different* iterations, so a shared symbolic index denotes two
  /// different runtime values. Equal symbolic addresses then only
  /// MayAlias, and constant-offset disjointness weakens to a
  /// residue-class argument (a[2i] vs a[2i'+1] still cannot collide).
  AliasResult alias(const MemAccess &A, const MemAccess &B,
                    bool CrossIteration = false) const;

  /// Convenience: decomposes accesses of \p SizeA and \p SizeB bytes at
  /// the given addresses, then the verdict above.
  AliasResult alias(const Value *AddrA, uint8_t SizeA, const Value *AddrB,
                    uint8_t SizeB, bool CrossIteration = false) const {
    return alias(access(AddrA, SizeA), access(AddrB, SizeB), CrossIteration);
  }

  /// Convenience: verdict for two memory-access instructions.
  AliasResult alias(const Instruction *A, const Instruction *B,
                    bool CrossIteration = false) const {
    return alias(access(A), access(B), CrossIteration);
  }

private:
  MemLocation decompose(const Value *Addr, unsigned Depth) const;

  AliasPrecision Precision;
};

} // namespace wario

#endif // WARIO_ANALYSIS_ALIASANALYSIS_H
