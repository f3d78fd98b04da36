//===----------------------------------------------------------------------===//
///
/// \file
/// Interned types for the WARio IR.
///
/// The IR models a 32-bit target where every SSA value is a 32-bit
/// integer, so the type lattice is deliberately tiny: void (instructions
/// that produce no value), i32 (everything else), ptr (the SSA value of a
/// global — a link-time address), and byte arrays (the storage shape of a
/// global). Types are interned per IRContext: equal types are
/// pointer-equal, so passes compare with `==` and clones remap a handful
/// of pointers instead of copying type graphs.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_IR_TYPE_H
#define WARIO_IR_TYPE_H

#include <cassert>
#include <cstdint>

namespace wario {

class IRContext;
struct ModuleCloner;

class Type {
public:
  enum class Kind : uint8_t {
    Void,  ///< No SSA value (stores, branches, ...).
    I32,   ///< 32-bit integer, the universal value type.
    Ptr,   ///< A 32-bit address (SSA value of a global).
    Array, ///< Byte-array storage shape of a global variable.
  };

  Kind getKind() const { return K; }
  bool isVoid() const { return K == Kind::Void; }
  bool isPtr() const { return K == Kind::Ptr; }
  bool isArray() const { return K == Kind::Array; }

  /// Array only: storage size in bytes.
  uint32_t getArrayBytes() const {
    assert(K == Kind::Array && "not an array type");
    return Bytes;
  }

private:
  friend class IRContext;
  friend struct ModuleCloner;

  explicit Type(Kind K, uint32_t Bytes = 0) : K(K), Bytes(Bytes) {}

  Kind K;
  uint32_t Bytes;
};

} // namespace wario

#endif // WARIO_IR_TYPE_H
