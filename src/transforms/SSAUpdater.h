//===----------------------------------------------------------------------===//
///
/// \file
/// SSA reconstruction helper in the spirit of llvm::SSAUpdater: given the
/// definitions of one "variable" in several blocks, computes the reaching
/// value at any program point, inserting phi nodes on demand.
///
/// Used by Mem2Reg (promoting stack slots to SSA values) and by the loop
/// unroller (rewriting uses outside the loop after body duplication).
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_TRANSFORMS_SSAUPDATER_H
#define WARIO_TRANSFORMS_SSAUPDATER_H

#include "ir/IRBuilder.h"

#include <unordered_map>

namespace wario {

/// Tracks one variable's definitions and materializes its value anywhere.
class SSAUpdater {
public:
  /// \p F is the function being rewritten; \p Name is used for created
  /// phis; \p Default is the value when no definition reaches (an
  /// uninitialized read) — typically constant 0.
  SSAUpdater(Function &F, std::string Name, Value *Default);

  /// Declares that \p V is the live-out definition of the variable in
  /// \p BB. At most one per block (callers pass the last def per block).
  void addAvailableValue(BasicBlock *BB, Value *V);

  /// The variable's value on entry to \p BB (inserting phis as needed).
  Value *getValueAtEntry(BasicBlock *BB);

  /// The variable's value at the end of \p BB.
  Value *getValueAtExit(BasicBlock *BB);

  /// After all queries: erases inserted phis that turned out trivial
  /// (all incoming values identical or self-references).
  void simplifyInsertedPhis();

private:
  Function &F;
  std::string Name;
  Value *Default;
  std::unordered_map<const BasicBlock *, Value *> AtExit;  // Explicit defs.
  std::unordered_map<const BasicBlock *, Value *> AtEntry; // Memoized.
  std::vector<Instruction *> InsertedPhis;
};

} // namespace wario

#endif // WARIO_TRANSFORMS_SSAUPDATER_H
