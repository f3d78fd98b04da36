//===----------------------------------------------------------------------===//
///
/// \file
/// Promotes non-escaping, directly-accessed allocas to SSA values.
///
/// This mirrors clang -O2/-O3 behavior the paper's pipeline relies on:
/// scalar locals live in registers, so the residual memory traffic — and
/// therefore the residual WAR violations — concern genuinely memory-
/// resident data (globals, arrays, spills).
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_TRANSFORMS_MEM2REG_H
#define WARIO_TRANSFORMS_MEM2REG_H

#include "ir/Module.h"

namespace wario {

/// Promotes every promotable alloca in \p F. An alloca is promotable when
/// all its uses are whole-slot, 4-byte loads and stores of the slot address
/// itself (no geps, no escapes). Returns the number promoted.
unsigned promoteAllocasToSSA(Function &F);

} // namespace wario

#endif // WARIO_TRANSFORMS_MEM2REG_H
