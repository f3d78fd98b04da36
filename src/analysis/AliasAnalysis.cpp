#include "analysis/AliasAnalysis.h"

#include <unordered_set>

using namespace wario;

namespace {

/// True if the address of \p Alloca can leak out of direct address
/// arithmetic: stored to memory, passed to a call, or combined through
/// non-Gep arithmetic. Non-escaping allocas cannot alias unknown pointers.
bool addressEscapes(const Instruction *Alloca) {
  std::vector<const Value *> Work{Alloca};
  std::unordered_set<const Value *> Seen;
  while (!Work.empty()) {
    const Value *V = Work.back();
    Work.pop_back();
    if (!Seen.insert(V).second)
      continue;
    for (const Instruction *U : V->users()) {
      switch (U->getOpcode()) {
      case Opcode::Load:
        break; // Reading through the pointer does not leak it.
      case Opcode::Store:
        if (U->getStoredValue() == V)
          return true; // The pointer itself is written to memory.
        break;
      case Opcode::Gep:
      case Opcode::Phi:
      case Opcode::Select:
        Work.push_back(U); // Derived pointer; keep following.
        break;
      default:
        return true; // Calls, arithmetic, returns: assume it escapes.
      }
    }
  }
  return false;
}

} // namespace

namespace {

/// SCEV-lite: strips constant additions from an index expression, so the
/// unrolled `w[t]`, `w[t+1]`, ... all decompose to the same symbolic base
/// plus distinct constant offsets. Returns the underlying value and
/// accumulates the constant into \p Offset.
const Value *stripConstantAdds(const Value *V, int64_t &Offset) {
  for (unsigned Guard = 0; Guard != 16; ++Guard) {
    const auto *I = dyn_cast<Instruction>(V);
    if (!I)
      return V;
    if (I->getOpcode() == Opcode::Add) {
      if (const auto *C = dyn_cast<Constant>(I->getOperand(1))) {
        Offset += C->getValue();
        V = I->getOperand(0);
        continue;
      }
      if (const auto *C = dyn_cast<Constant>(I->getOperand(0))) {
        Offset += C->getValue();
        V = I->getOperand(1);
        continue;
      }
      return V;
    }
    if (I->getOpcode() == Opcode::Sub) {
      if (const auto *C = dyn_cast<Constant>(I->getOperand(1))) {
        Offset -= C->getValue();
        V = I->getOperand(0);
        continue;
      }
      return V;
    }
    return V;
  }
  return V;
}

} // namespace

MemLocation AliasAnalysis::decompose(const Value *Addr,
                                     unsigned Depth) const {
  MemLocation Loc;
  if (Depth > 16)
    return Loc; // Give up on deep chains / phi cycles.

  if (const auto *G = dyn_cast<GlobalVariable>(Addr)) {
    Loc.Base = G;
    Loc.HasConstOffset = true;
    return Loc;
  }
  const auto *I = dyn_cast<Instruction>(Addr);
  if (!I)
    return Loc; // Arguments, constants: unknown.

  if (I->getOpcode() == Opcode::Alloca) {
    Loc.Base = I;
    Loc.HasConstOffset = true;
    return Loc;
  }

  if (I->getOpcode() == Opcode::Gep) {
    MemLocation Inner = decompose(I->getGepBase(), Depth + 1);
    if (!Inner.isIdentified())
      return Loc;
    Value *Index = I->getGepIndex();
    // Fold a constant index into the offset.
    int64_t Extra = I->getGepOffset();
    if (const auto *CIdx = dyn_cast<Constant>(Index ? Index : nullptr)) {
      Extra += int64_t(CIdx->getValue()) * I->getGepScale();
      Index = nullptr;
    }
    if (!Index) {
      if (Inner.HasConstOffset) {
        Loc.Base = Inner.Base;
        Loc.HasConstOffset = true;
        Loc.ConstOffset = Inner.ConstOffset + int32_t(Extra);
        return Loc;
      }
      // Constant offset on top of a variable index.
      if (Precision == AliasPrecision::Conservative)
        return Loc;
      Loc.Base = Inner.Base;
      Loc.Index = Inner.Index;
      Loc.Scale = Inner.Scale;
      Loc.ConstOffset = Inner.ConstOffset + int32_t(Extra);
      return Loc;
    }
    // Variable index. The conservative level models the baseline: it
    // cannot see through variable subscripts at all.
    if (Precision == AliasPrecision::Conservative)
      return Loc;
    Loc.Base = Inner.Base;
    if (Inner.HasConstOffset) {
      // SCEV-lite: fold constant addends of the index into the byte
      // offset (i and i+2 share the symbolic base i).
      int64_t IdxOffset = 0;
      const Value *IdxBase = stripConstantAdds(Index, IdxOffset);
      Loc.Index = IdxBase;
      Loc.Scale = I->getGepScale();
      Loc.ConstOffset = Inner.ConstOffset + int32_t(Extra) +
                        int32_t(IdxOffset * I->getGepScale());
    }
    // else: two variable indices; keep only the base.
    return Loc;
  }

  if (Precision == AliasPrecision::Precise &&
      (I->getOpcode() == Opcode::Phi || I->getOpcode() == Opcode::Select)) {
    // If every incoming pointer shares one base, the result does too.
    unsigned First = I->getOpcode() == Opcode::Select ? 1 : 0;
    const Value *CommonBase = nullptr;
    for (unsigned J = First, E = I->getNumOperands(); J != E; ++J) {
      MemLocation Sub = decompose(I->getOperand(J), Depth + 1);
      if (!Sub.isIdentified())
        return Loc;
      if (CommonBase && Sub.Base != CommonBase)
        return Loc;
      CommonBase = Sub.Base;
    }
    Loc.Base = CommonBase; // Offset unknown.
    return Loc;
  }

  return Loc; // Loads, calls, arithmetic results: unknown.
}

MemAccess AliasAnalysis::access(const Instruction *I) const {
  assert(I->isMemoryAccess() && "alias query on a non-memory instruction");
  return access(I->getAddressOperand(), I->getAccessSize());
}

AliasResult AliasAnalysis::alias(const MemAccess &X, const MemAccess &Y,
                                 bool CrossIteration) const {
  uint8_t SizeA = X.Size, SizeB = Y.Size;
  // Equal address values denote one address within an iteration, whether
  // or not its base was identified.
  if (X.Addr == Y.Addr && !CrossIteration)
    return SizeA == SizeB ? AliasResult::MustAlias : AliasResult::MayAlias;

  const MemLocation &A = X.Loc, &B = Y.Loc;

  if (A.isIdentified() && B.isIdentified()) {
    if (A.Base != B.Base)
      return AliasResult::NoAlias; // Distinct identified objects.
    if (A.HasConstOffset && B.HasConstOffset) {
      // Loop-invariant addresses: iteration context is irrelevant.
      int64_t LoA = A.ConstOffset, HiA = LoA + SizeA;
      int64_t LoB = B.ConstOffset, HiB = LoB + SizeB;
      if (HiA <= LoB || HiB <= LoA)
        return AliasResult::NoAlias;
      if (LoA == LoB && SizeA == SizeB)
        return AliasResult::MustAlias;
      return AliasResult::MayAlias;
    }
    if (!A.HasConstOffset && !B.HasConstOffset && A.Index && B.Index &&
        A.Index == B.Index && A.Scale == B.Scale) {
      if (!CrossIteration) {
        // Same iteration: the symbolic index denotes one runtime value,
        // so constant-offset range reasoning applies directly.
        int64_t LoA = A.ConstOffset, HiA = LoA + SizeA;
        int64_t LoB = B.ConstOffset, HiB = LoB + SizeB;
        if (HiA <= LoB || HiB <= LoA)
          return AliasResult::NoAlias;
        if (LoA == LoB && SizeA == SizeB)
          return AliasResult::MustAlias;
        return AliasResult::MayAlias;
      }
      // Different iterations: addresses are S*i + oA vs S*j + oB for
      // arbitrary integers i, j. They stay disjoint for every (i, j)
      // exactly when the offset residues keep the ranges apart within
      // one stride.
      int64_t S = A.Scale;
      if (S < 0)
        S = -S;
      if (S > 0 && SizeA <= S && SizeB <= S) {
        int64_t D = (B.ConstOffset - A.ConstOffset) % S;
        if (D < 0)
          D += S;
        // Range A occupies [0, SizeA) mod S; B starts at D.
        if (D >= SizeA && D <= S - SizeB)
          return AliasResult::NoAlias;
      }
      return AliasResult::MayAlias;
    }
    return AliasResult::MayAlias;
  }

  // One side unknown. A non-escaping alloca cannot be reached through an
  // unknown pointer (precise level only; the baseline lacks this power).
  if (Precision == AliasPrecision::Precise) {
    const MemLocation &Known = A.isIdentified() ? A : B;
    if (Known.isIdentified()) {
      if (const auto *AI = dyn_cast<Instruction>(Known.Base))
        if (AI->getOpcode() == Opcode::Alloca && !addressEscapes(AI))
          return AliasResult::NoAlias;
    }
  }
  return AliasResult::MayAlias;
}
