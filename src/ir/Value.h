//===----------------------------------------------------------------------===//
///
/// \file
/// Value hierarchy for the WARio intermediate representation.
///
/// The IR models a 32-bit embedded target (ARM Cortex-M class): every SSA
/// value is a 32-bit integer, and pointers are plain 32-bit addresses.
/// Memory accesses carry an explicit access size (1, 2 or 4 bytes) instead
/// of the values being typed. This matches what the WARio transformations
/// need: they reason about *memory dependencies*, not about types.
///
/// Every Value lives in a bump arena owned by its module's IRContext and
/// is trivially destructible: names are pointers into the process-wide
/// string interner, and all growable lists are ArenaVecs. That layout is
/// what lets cloneModule bulk-copy arenas and lets module teardown be a
/// handful of slab releases.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_IR_VALUE_H
#define WARIO_IR_VALUE_H

#include "ir/Type.h"
#include "support/Arena.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace wario {

class Instruction;

/// Base class of everything an instruction can reference as an operand.
///
/// Uses hand-rolled LLVM-style RTTI: each subclass has a fixed ValueKind,
/// and isa<>/cast<>/dyn_cast<> dispatch on it.
class Value {
public:
  enum class ValueKind : uint8_t {
    Constant,
    GlobalVariable,
    Argument,
    Instruction,
  };

  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;

  ValueKind getKind() const { return Kind; }
  const Type *getType() const { return Ty; }

  const std::string &getName() const { return *Name; }
  void setName(std::string N) { Name = &internedName(std::move(N)); }

  /// Whether this value maintains a user list. Function-local values
  /// (instructions, arguments) do; constants and globals do not: they are
  /// shared by every function of the module, so their lists would grow
  /// with each use anywhere (and be copied by every clone), and no
  /// transformation reads them.
  bool tracksUsers() const {
    return Kind == ValueKind::Instruction || Kind == ValueKind::Argument;
  }

  /// All instructions that use this value as an operand. An instruction
  /// appears once per use (so it can appear multiple times). Only valid
  /// for values that track users; passes iterate this list, and its order
  /// is part of the deterministic-compile contract.
  const ArenaVec<Instruction *> &users() const {
    assert(tracksUsers() && "this value kind does not track users");
    return Users;
  }
  bool hasUsers() const { return !Users.empty(); }

  /// Rewrites every use of this value to use \p New instead. Only valid
  /// for values that track users.
  void replaceAllUsesWith(Value *New);

protected:
  Value(ValueKind K, const Type *Ty)
      : Kind(K), Ty(Ty), Name(&internedName(std::string())) {}

  void setType(const Type *T) { Ty = T; }

private:
  friend class Instruction;
  friend struct ModuleCloner;

  void addUser(Instruction *I);
  void removeUser(Instruction *I);

  ValueKind Kind;
  const Type *Ty;
  const std::string *Name;
  ArenaVec<Instruction *> Users;
};

/// LLVM-style RTTI helpers.
template <typename To> bool isa(const Value *V) {
  return To::classof(V);
}
template <typename To> To *cast(Value *V) {
  assert(V && isa<To>(V) && "cast to incompatible value kind");
  return static_cast<To *>(V);
}
template <typename To> const To *cast(const Value *V) {
  assert(V && isa<To>(V) && "cast to incompatible value kind");
  return static_cast<const To *>(V);
}
template <typename To> To *dyn_cast(Value *V) {
  return V && isa<To>(V) ? static_cast<To *>(V) : nullptr;
}
template <typename To> const To *dyn_cast(const Value *V) {
  return V && isa<To>(V) ? static_cast<const To *>(V) : nullptr;
}

/// A 32-bit integer constant. Constants are interned per IRContext: equal
/// values are pointer-equal within a module.
class Constant : public Value {
public:
  Constant(const Type *Ty, int32_t V)
      : Value(ValueKind::Constant, Ty), Val(V) {}

  int32_t getValue() const { return Val; }
  uint32_t getZExtValue() const { return static_cast<uint32_t>(Val); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Constant;
  }

private:
  int32_t Val;
};

/// A module-level variable living in non-volatile main memory.
///
/// Its value as an SSA operand is its (link-time) address, so its SSA type
/// is ptr; the storage shape is an interned array type. The initializer is
/// a raw byte image; zero-initialized variables keep \c Init empty and use
/// \c SizeBytes.
class GlobalVariable : public Value {
public:
  GlobalVariable(const Type *PtrTy, const Type *ValueTy, std::string Name)
      : Value(ValueKind::GlobalVariable, PtrTy), ValueTy(ValueTy) {
    setName(std::move(Name));
  }

  uint32_t getSizeBytes() const { return ValueTy->getArrayBytes(); }
  const ArenaVec<uint8_t> &getInit() const { return Init; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::GlobalVariable;
  }

private:
  friend class Module;
  friend struct ModuleCloner;

  const Type *ValueTy;
  ArenaVec<uint8_t> Init;
};

class Function;

/// A formal parameter of a Function.
class Argument : public Value {
public:
  Argument(const Type *Ty, Function *Parent, unsigned Index)
      : Value(ValueKind::Argument, Ty), Parent(Parent), Index(Index) {}

  Function *getParent() const { return Parent; }
  unsigned getIndex() const { return Index; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Argument;
  }

private:
  friend struct ModuleCloner;

  Function *Parent;
  unsigned Index;
};

} // namespace wario

#endif // WARIO_IR_VALUE_H
