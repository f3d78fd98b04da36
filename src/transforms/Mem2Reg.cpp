#include "transforms/Mem2Reg.h"

#include "transforms/SSAUpdater.h"

using namespace wario;

namespace {

/// A promotable alloca: 4 bytes, accessed only by direct full-word loads
/// and stores (and never stored *as a value*, i.e. its address does not
/// escape).
bool isPromotable(const Instruction *Alloca) {
  if (Alloca->getAllocaSize() > 4)
    return false;
  for (const Instruction *U : Alloca->users()) {
    switch (U->getOpcode()) {
    case Opcode::Load:
      if (U->getAccessSize() != 4)
        return false;
      break;
    case Opcode::Store:
      if (U->getStoredValue() == Alloca || U->getAccessSize() != 4)
        return false;
      break;
    default:
      return false;
    }
  }
  return true;
}

void promoteOne(Function &F, Instruction *Alloca) {
  Module *M = F.getParent();
  SSAUpdater Updater(F, Alloca->getName(), M->getConstant(0));

  // Pass 1: register each block's live-out definition (its last store).
  for (BasicBlock *BB : F) {
    Value *Last = nullptr;
    for (Instruction *I : *BB)
      if (I->getOpcode() == Opcode::Store && I->getAddressOperand() == Alloca)
        Last = I->getStoredValue();
    if (Last)
      Updater.addAvailableValue(BB, Last);
  }

  // Pass 2: rewrite loads using the value that reaches them, tracking the
  // running value within each block.
  std::vector<Instruction *> ToErase;
  for (BasicBlock *BB : F) {
    Value *Current = nullptr;
    for (Instruction *I : *BB) {
      if (I->getOpcode() == Opcode::Load && I->getAddressOperand() == Alloca) {
        Value *V = Current ? Current : Updater.getValueAtEntry(BB);
        I->replaceAllUsesWith(V);
        ToErase.push_back(I);
      } else if (I->getOpcode() == Opcode::Store &&
                 I->getAddressOperand() == Alloca) {
        Current = I->getStoredValue();
        ToErase.push_back(I);
      }
    }
  }

  for (Instruction *I : ToErase)
    F.eraseInstruction(I);
  Updater.simplifyInsertedPhis();
  assert(!Alloca->hasUsers() && "alloca still used after promotion");
  F.eraseInstruction(Alloca);
}

} // namespace

unsigned wario::promoteAllocasToSSA(Function &F) {
  if (F.isDeclaration())
    return 0;
  unsigned Promoted = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<Instruction *> Candidates;
    for (Instruction *I : *F.getEntryBlock())
      if (I->getOpcode() == Opcode::Alloca && isPromotable(I))
        Candidates.push_back(I);
    for (Instruction *A : Candidates) {
      promoteOne(F, A);
      ++Promoted;
      Changed = true;
    }
  }
  return Promoted;
}
