#include "transforms/WriteClusterer.h"

#include "ir/Module.h"

#include <algorithm>
#include <unordered_set>

using namespace wario;

namespace {

/// Stores in \p BB that complete a WAR violation within the block: some
/// earlier load in the same block may read the address they overwrite.
std::vector<Instruction *> warWritesInBlock(BasicBlock *BB,
                                            const AliasAnalysis &AA) {
  std::vector<Instruction *> Loads;
  std::vector<Instruction *> Writes;
  for (Instruction *I : *BB) {
    if (I->getOpcode() == Opcode::Load) {
      Loads.push_back(I);
      continue;
    }
    if (I->getOpcode() != Opcode::Store)
      continue;
    for (Instruction *R : Loads) {
      if (AA.alias(R, I) != AliasResult::NoAlias) {
        Writes.push_back(I);
        break;
      }
    }
  }
  return Writes;
}

/// Attempts to sink \p W down to immediately before the next WAR write in
/// its block. Returns true if it moved.
bool sinkWARWrite(Instruction *W,
                  const std::unordered_set<Instruction *> &WARWrites,
                  const AliasAnalysis &AA) {
  BasicBlock *BB = W->getParent();
  auto It = std::find(BB->begin(), BB->end(), W);
  assert(It != BB->end());
  ++It;
  for (; It != BB->end(); ++It) {
    Instruction *X = *It;
    if (WARWrites.count(X)) {
      // Reached the next cluster seed; park W right before it.
      W->moveBefore(X);
      return true;
    }
    switch (X->getOpcode()) {
    case Opcode::Load:
      if (AA.alias(X, W) != AliasResult::NoAlias)
        return false; // Would reorder a read of the stored location.
      break;
    case Opcode::Store:
      if (AA.alias(X, W) != AliasResult::NoAlias)
        return false; // Would reorder same-location writes.
      break;
    case Opcode::Call:
    case Opcode::Out:
    case Opcode::Checkpoint:
      return false; // Side effects / region cuts: do not cross.
    default:
      if (X->isTerminator())
        return false;
      break; // Pure arithmetic: safe to cross.
    }
  }
  return false;
}

} // namespace

unsigned wario::runWriteClusterer(Function &F, const AliasAnalysis &AA) {
  if (F.isDeclaration())
    return 0;
  unsigned Sunk = 0;
  for (BasicBlock *BB : F) {
    std::vector<Instruction *> Writes = warWritesInBlock(BB, AA);
    if (Writes.size() < 2)
      continue;
    std::unordered_set<Instruction *> WriteSet(Writes.begin(), Writes.end());
    // Later writes settle first so earlier ones can chain up behind them.
    for (auto It = Writes.rbegin(); It != Writes.rend(); ++It)
      if (sinkWARWrite(*It, WriteSet, AA))
        ++Sunk;
  }
  return Sunk;
}
