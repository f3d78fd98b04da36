//===----------------------------------------------------------------------===//
///
/// \file
/// Per-function machine CFG analysis. runBackend builds it once per
/// function and shares it between both register-allocation attempts and
/// the spill checkpoint inserter: allocation and frame lowering insert
/// instructions but never change a block's successors.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_BACKEND_MACHINECFG_H
#define WARIO_BACKEND_MACHINECFG_H

#include "backend/MIR.h"

#include <span>

namespace wario {

class MachineCFG {
public:
  explicit MachineCFG(const MFunction &F);

  unsigned numBlocks() const { return unsigned(Depth.size()); }
  /// Successor blocks of \p B in MFunction::successors order (a CBr whose
  /// targets agree lists its target twice).
  std::span<const int> successors(unsigned B) const {
    return {Succ.data() + SuccBegin[B], Succ.data() + SuccBegin[B + 1]};
  }
  /// Natural-loop nesting depth of \p B: the number of back edges (edges
  /// U -> H where H dominates U) whose natural loop contains B, so two
  /// back edges into one header count as two loops. Unreachable blocks,
  /// which instruction selection never emits, have depth 0.
  unsigned loopDepth(unsigned B) const { return Depth[B]; }

private:
  std::vector<int> Succ;
  std::vector<unsigned> SuccBegin{0}, Depth;
};

} // namespace wario

#endif // WARIO_BACKEND_MACHINECFG_H
