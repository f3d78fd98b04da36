//===----------------------------------------------------------------------===//
///
/// \file
/// Cloning primitives for the WARio IR: the value-remapping table and
/// single-instruction clone shared by the loop unroller and the inliner,
/// plus whole-module deep copying (cloneModule).
///
/// cloneModule exists so one expensive front-half compilation (frontend +
/// inline + mem2reg + cleanup) can be reused across every pipeline
/// configuration of the experiment matrix: the cached module stays
/// pristine and each configuration mutates its own clone.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_IR_CLONING_H
#define WARIO_IR_CLONING_H

#include "ir/Module.h"

#include <memory>
#include <unordered_map>

namespace wario {

/// Remapping table from original values to their clones. Values absent
/// from the table map to themselves (constants, globals, out-of-region
/// definitions).
class ValueMapper {
public:
  void map(const Value *From, Value *To) { Table[From] = To; }

  Value *lookup(Value *V) const {
    auto It = Table.find(V);
    return It == Table.end() ? V : It->second;
  }

  bool contains(const Value *V) const { return Table.count(V) != 0; }

private:
  std::unordered_map<const Value *, Value *> Table;
};

/// Creates a detached copy of \p I (same opcode, payload, and name) in
/// \p F's module arena, with operands remapped through \p VM. Block operands are
/// copied verbatim; the caller retargets them.
Instruction *cloneInstruction(const Instruction *I, Function &F,
                              const ValueMapper &VM);

/// Copies \p M wholesale: every node of a module lives in its IRContext's
/// bump arena, so the clone memcpys the arena slabs and rewrites each
/// interior pointer through a slab remap table. The clone shares no
/// Value, BasicBlock, or Function pointer with the source.
///
/// The copy is behaviorally indistinguishable from the source *by
/// construction*: instruction ids, the per-function id counters, block
/// order, and even the order of every value's user list are byte-copies
/// of the original. Passes use ids and user lists for deterministic
/// iteration, so a weaker clone could compile to a different (equally
/// correct) machine module — which would break the experiment harness's
/// guarantee that cached-and-cloned builds emit byte-identical numbers.
std::unique_ptr<Module> cloneModule(const Module &M);

} // namespace wario

#endif // WARIO_IR_CLONING_H
