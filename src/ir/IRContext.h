//===----------------------------------------------------------------------===//
///
/// \file
/// IRContext: per-module home of the arena and the interning tables.
///
/// One IRContext backs one Module. Its single arena holds every node of
/// the module: globals, constants, array types, global initializers, and
/// each function with its blocks, instructions and operand/user lists.
/// Node allocation is pointer-bump; dropping the module frees whole
/// slabs; and because every owning pointer leads into that arena,
/// cloneModule can duplicate the module by memcpying slabs and fixing
/// pointers up.
///
/// Nothing here is synchronized: only the thread compiling a module
/// mutates its context (driver/Pipeline.h). The interning tables
/// (integer constants, array types) are ordered by *value*, so the
/// iteration order observable by printing or cloning is independent of
/// creation order.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_IR_IRCONTEXT_H
#define WARIO_IR_IRCONTEXT_H

#include "ir/Type.h"
#include "ir/Value.h"
#include "support/Arena.h"

#include <map>

namespace wario {

class IRContext {
public:
  IRContext() = default;
  IRContext(const IRContext &) = delete;
  IRContext &operator=(const IRContext &) = delete;

  // -- Arena ------------------------------------------------------------------
  /// The arena every node of the module lives in.
  Arena &moduleArena() { return ModArena; }

  // -- Types (interned; equal types are pointer-equal) ------------------------
  const Type *getVoidType() const { return &VoidTy; }
  const Type *getI32Type() const { return &I32Ty; }
  const Type *getPtrType() const { return &PtrTy; }
  /// The interned array-of-\p Bytes type (storage shape of a global).
  const Type *getArrayType(uint32_t Bytes);

  /// Total bytes bump-allocated in the module arena. An upper bound on
  /// the live IR footprint (abandoned ArenaVec blocks count too), which
  /// is exactly what a byte-budgeted artifact cache wants to account.
  size_t bytesUsed() const { return ModArena.bytesUsed(); }

  // -- Constants (interned) ---------------------------------------------------
  /// Returns the interned Constant for \p V.
  Constant *getConstant(int32_t V);
  /// All interned constants, ordered by value (printing and cloning walk
  /// these, so the order must not depend on creation order).
  const std::map<int32_t, Constant *> &constants() const { return Constants; }

private:
  friend struct ModuleCloner;

  Arena ModArena;

  // The three singleton types live inline (not in the arena): they are
  // plain data, and the clone fixup maps them as three tiny ranges.
  Type VoidTy{Type::Kind::Void};
  Type I32Ty{Type::Kind::I32};
  Type PtrTy{Type::Kind::Ptr};
  std::map<uint32_t, Type *> ArrayTypes;
  std::map<int32_t, Constant *> Constants;
};

} // namespace wario

#endif // WARIO_IR_IRCONTEXT_H
