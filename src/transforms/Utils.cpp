#include "transforms/Utils.h"

#include "ir/ConstEval.h"
#include "ir/IRBuilder.h"

#include <unordered_set>

using namespace wario;

BasicBlock *wario::splitEdge(BasicBlock *From, BasicBlock *To) {
  Function *F = From->getParent();
  BasicBlock *NB = F->createBlockAfter(From, From->getName() + ".split");
  Instruction *Term = From->getTerminator();
  assert(Term && "cannot split an edge from an unterminated block");
  [[maybe_unused]] unsigned Hits = 0;
  for (unsigned I = 0, E = Term->getNumBlockOperands(); I != E; ++I) {
    if (Term->getBlockOperand(I) == To) {
      Term->setBlockOperand(I, NB);
      ++Hits;
    }
  }
  assert(Hits == 1 && "splitEdge expects a unique From->To edge; "
                      "canonicalize duplicate-target branches first");
  IRBuilder IRB(F->getParent());
  IRB.setInsertPoint(NB);
  IRB.createJmp(To);
  for (Instruction *Phi : To->phis()) {
    for (unsigned I = 0, E = Phi->getNumBlockOperands(); I != E; ++I)
      if (Phi->getBlockOperand(I) == From)
        Phi->setBlockOperand(I, NB);
  }
  return NB;
}

BasicBlock *wario::ensurePreheader(Loop &L) {
  if (BasicBlock *Pre = L.getPreheader())
    return Pre;

  BasicBlock *H = L.getHeader();
  Function *F = H->getParent();
  std::vector<BasicBlock *> Outside;
  for (BasicBlock *P : H->predecessors())
    if (!L.contains(P))
      Outside.push_back(P);
  assert(!Outside.empty() && "loop header with no outside predecessor");

  BasicBlock *PH = F->createBlockAfter(Outside.front(),
                                       H->getName() + ".preheader");
  IRBuilder IRB(F->getParent());

  // Merge outside incoming phi values in the preheader when there are
  // several outside predecessors.
  for (Instruction *Phi : H->phis()) {
    if (Outside.size() == 1) {
      for (unsigned I = 0, E = Phi->getNumBlockOperands(); I != E; ++I)
        if (Phi->getBlockOperand(I) == Outside.front())
          Phi->setBlockOperand(I, PH);
      continue;
    }
    IRB.setInsertPoint(PH);
    Instruction *Merged = IRB.createPhi(Phi->getName() + ".pre");
    // Collect and remove the outside entries.
    for (BasicBlock *P : Outside) {
      Value *V = Phi->getPhiIncomingFor(P);
      IRBuilder::addPhiIncoming(Merged, V, P);
      Phi->removePhiIncomingFor(P);
    }
    IRBuilder::addPhiIncoming(Phi, Merged, PH);
  }

  for (BasicBlock *P : Outside) {
    Instruction *Term = P->getTerminator();
    for (unsigned I = 0, E = Term->getNumBlockOperands(); I != E; ++I)
      if (Term->getBlockOperand(I) == H)
        Term->setBlockOperand(I, PH);
  }
  IRB.setInsertPoint(PH);
  IRB.createJmp(H);
  return PH;
}

bool wario::ensureDedicatedExits(Loop &L) {
  bool Changed = false;
  for (auto &[E, X] : L.getExitEdges()) {
    bool Dedicated = X->predecessors().size() == 1;
    if (!Dedicated) {
      splitEdge(E, X);
      Changed = true;
    }
  }
  return Changed;
}

bool wario::removeUnreachableBlocks(Function &F) {
  if (F.isDeclaration())
    return false;
  std::unordered_set<BasicBlock *> Reachable;
  std::vector<BasicBlock *> Work{F.getEntryBlock()};
  Reachable.insert(F.getEntryBlock());
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    for (BasicBlock *S : BB->successors())
      if (Reachable.insert(S).second)
        Work.push_back(S);
  }
  if (Reachable.size() == F.size())
    return false;

  std::vector<BasicBlock *> Dead;
  for (BasicBlock *BB : F)
    if (!Reachable.count(BB))
      Dead.push_back(BB);

  // Phis in reachable blocks may name dead predecessors.
  for (BasicBlock *BB : F) {
    if (!Reachable.count(BB))
      continue;
    for (Instruction *Phi : BB->phis())
      for (int I = int(Phi->getNumBlockOperands()) - 1; I >= 0; --I)
        if (!Reachable.count(Phi->getBlockOperand(unsigned(I)))) {
          Phi->removeOperand(unsigned(I));
          Phi->removeBlockOperand(unsigned(I));
        }
  }

  // Break def-use edges among dead instructions, then erase the blocks.
  for (BasicBlock *BB : Dead)
    for (Instruction *I : *BB)
      I->dropAllOperands();
  for (BasicBlock *BB : Dead) {
    while (!BB->empty()) {
      Instruction *I = BB->back();
      assert(!I->hasUsers() && "dead block defines a value used by "
                               "reachable code");
      BB->remove(I);
    }
  }
  for (BasicBlock *BB : Dead)
    F.eraseBlock(BB);
  return true;
}

namespace {

/// Turns `br c, T, T` into `jmp T`, and folds constant conditions.
bool canonicalizeBranches(Function &F) {
  bool Changed = false;
  for (BasicBlock *BB : F) {
    Instruction *Term = BB->getTerminator();
    if (!Term || Term->getOpcode() != Opcode::Br)
      continue;
    BasicBlock *Then = Term->getBlockOperand(0);
    BasicBlock *Else = Term->getBlockOperand(1);
    BasicBlock *Taken = nullptr;
    if (Then == Else) {
      Taken = Then;
      // Duplicate incoming edge collapses to one; drop one phi entry.
      for (Instruction *Phi : Taken->phis()) {
        assert(Phi->getPhiIncomingFor(BB) && "missing phi entry");
        Phi->removePhiIncomingFor(BB);
      }
    } else if (auto *C = dyn_cast<Constant>(Term->getOperand(0))) {
      Taken = C->getValue() != 0 ? Then : Else;
      BasicBlock *Dropped = C->getValue() != 0 ? Else : Then;
      for (Instruction *Phi : Dropped->phis())
        Phi->removePhiIncomingFor(BB);
    }
    if (!Taken)
      continue;
    Function *Fn = BB->getParent();
    Term->removeFromParent();
    Term->dropAllOperands();
    IRBuilder IRB(Fn->getParent());
    IRB.setInsertPoint(BB);
    IRB.createJmp(Taken);
    Changed = true;
  }
  return Changed;
}

/// Folds a block containing only `jmp S` by retargeting its predecessors.
bool foldForwarders(Function &F) {
  bool Changed = false;
  for (BasicBlock *BB : F) {
    if (BB == F.getEntryBlock() || BB->size() != 1)
      continue;
    Instruction *Term = BB->getTerminator();
    if (!Term || Term->getOpcode() != Opcode::Jmp)
      continue;
    BasicBlock *S = Term->getBlockOperand(0);
    if (S == BB)
      continue;
    const auto &PredList = BB->predecessors();
    std::vector<BasicBlock *> Preds(PredList.begin(), PredList.end());
    if (Preds.empty())
      continue; // Unreachable; handled elsewhere.
    // If the successor has phis, retargeting is only simple when BB has a
    // single predecessor that is not already a predecessor of S.
    if (!S->phis().empty()) {
      if (Preds.size() != 1)
        continue;
      BasicBlock *P = Preds.front();
      bool AlreadyPred = false;
      for (BasicBlock *SP : S->predecessors())
        if (SP == P)
          AlreadyPred = true;
      if (AlreadyPred)
        continue;
      for (Instruction *Phi : S->phis())
        for (unsigned I = 0, E = Phi->getNumBlockOperands(); I != E; ++I)
          if (Phi->getBlockOperand(I) == BB)
            Phi->setBlockOperand(I, P);
    }
    for (BasicBlock *P : Preds) {
      Instruction *PTerm = P->getTerminator();
      for (unsigned I = 0, E = PTerm->getNumBlockOperands(); I != E; ++I)
        if (PTerm->getBlockOperand(I) == BB)
          PTerm->setBlockOperand(I, S);
    }
    Changed = true;
    // BB is now unreachable; removeUnreachableBlocks cleans it up.
  }
  return Changed;
}

/// Merges S into B when B->S is the only edge in and out.
bool mergeLinearPairs(Function &F) {
  bool Changed = false;
  for (BasicBlock *BB : F) {
    Instruction *Term = BB->getTerminator();
    if (!Term || Term->getOpcode() != Opcode::Jmp)
      continue;
    BasicBlock *S = Term->getBlockOperand(0);
    if (S == BB || S == F.getEntryBlock() || S->predecessors().size() != 1)
      continue;
    // Replace single-incoming phis with their value.
    for (Instruction *Phi : S->phis()) {
      assert(Phi->getNumOperands() == 1 && "phi/pred mismatch");
      Value *V = Phi->getOperand(0);
      Phi->replaceAllUsesWith(V);
      F.eraseInstruction(Phi);
    }
    F.eraseInstruction(Term);
    while (!S->empty()) {
      Instruction *I = S->front();
      S->remove(I);
      BB->push_back(I);
    }
    // S's successors now flow from BB.
    if (Instruction *NewTerm = BB->getTerminator())
      for (unsigned I = 0, E = NewTerm->getNumBlockOperands(); I != E; ++I)
        for (Instruction *Phi : NewTerm->getBlockOperand(I)->phis())
          for (unsigned J = 0, PE = Phi->getNumBlockOperands(); J != PE; ++J)
            if (Phi->getBlockOperand(J) == S)
              Phi->setBlockOperand(J, BB);
    F.eraseBlock(S);
    Changed = true;
    break; // Block list mutated; restart the scan.
  }
  return Changed;
}

} // namespace

bool wario::simplifyCFG(Function &F) {
  if (F.isDeclaration())
    return false;
  bool Any = false;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    Changed |= canonicalizeBranches(F);
    Changed |= foldForwarders(F);
    Changed |= removeUnreachableBlocks(F);
    while (mergeLinearPairs(F))
      Changed = true;
    Any |= Changed;
  }
  return Any;
}

bool wario::eliminateDeadCode(Function &F) {
  if (F.isDeclaration())
    return false;
  bool Any = false;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<Instruction *> Dead;
    for (BasicBlock *BB : F)
      for (Instruction *I : *BB) {
        if (!I->producesValue() || I->hasUsers())
          continue;
        if (I->getOpcode() == Opcode::Call)
          continue; // Calls have side effects.
        Dead.push_back(I);
      }
    for (Instruction *I : Dead)
      F.eraseInstruction(I);
    Changed = !Dead.empty();
    Any |= Changed;
  }
  return Any;
}

bool wario::foldConstants(Function &F) {
  if (F.isDeclaration())
    return false;
  Module *M = F.getParent();
  bool Any = false;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : F) {
      for (auto It = BB->begin(); It != BB->end();) {
        Instruction *I = *It;
        ++It;
        Value *Repl = nullptr;

        if (I->isBinaryOp()) {
          auto *A = dyn_cast<Constant>(I->getOperand(0));
          auto *B = dyn_cast<Constant>(I->getOperand(1));
          if (A && B) {
            if (auto R = constEvalBinary(I->getOpcode(), A->getZExtValue(),
                                         B->getZExtValue()))
              Repl = M->getConstant(int32_t(*R));
          } else if (B) {
            uint32_t BV = B->getZExtValue();
            Opcode Op = I->getOpcode();
            bool IdentZero = BV == 0 && (Op == Opcode::Add ||
                                         Op == Opcode::Sub ||
                                         Op == Opcode::Or ||
                                         Op == Opcode::Xor ||
                                         Op == Opcode::Shl ||
                                         Op == Opcode::LShr ||
                                         Op == Opcode::AShr);
            if (IdentZero || (BV == 1 && Op == Opcode::Mul))
              Repl = I->getOperand(0);
            else if (BV == 0 && (Op == Opcode::Mul || Op == Opcode::And))
              Repl = M->getConstant(0);
          } else if (A) {
            uint32_t AV = A->getZExtValue();
            Opcode Op = I->getOpcode();
            if (AV == 0 && (Op == Opcode::Add || Op == Opcode::Or ||
                            Op == Opcode::Xor))
              Repl = I->getOperand(1);
            else if (AV == 0 && (Op == Opcode::Mul || Op == Opcode::And))
              Repl = M->getConstant(0);
            else if (AV == 1 && Op == Opcode::Mul)
              Repl = I->getOperand(1);
          }
        } else if (I->getOpcode() == Opcode::ICmp) {
          auto *A = dyn_cast<Constant>(I->getOperand(0));
          auto *B = dyn_cast<Constant>(I->getOperand(1));
          if (A && B)
            Repl = M->getConstant(constEvalPred(I->getPredicate(),
                                                A->getZExtValue(),
                                                B->getZExtValue())
                                      ? 1
                                      : 0);
        } else if (I->getOpcode() == Opcode::Select) {
          if (auto *C = dyn_cast<Constant>(I->getOperand(0)))
            Repl = C->getValue() != 0 ? I->getOperand(1) : I->getOperand(2);
          else if (I->getOperand(1) == I->getOperand(2))
            Repl = I->getOperand(1);
        } else if (I->getOpcode() == Opcode::Phi) {
          // Trivial phi: all incoming values equal (ignoring self).
          Value *Common = nullptr;
          bool Trivial = true;
          for (unsigned J = 0, E = I->getNumOperands(); J != E; ++J) {
            Value *V = I->getOperand(J);
            if (V == I)
              continue;
            if (Common && V != Common) {
              Trivial = false;
              break;
            }
            Common = V;
          }
          if (Trivial && Common)
            Repl = Common;
        }

        if (Repl && Repl != I) {
          I->replaceAllUsesWith(Repl);
          F.eraseInstruction(I);
          Changed = true;
        }
      }
    }
    Any |= Changed;
  }
  return Any;
}

void wario::cleanup(Function &F) {
  if (F.isDeclaration())
    return;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    Changed |= foldConstants(F);
    Changed |= eliminateDeadCode(F);
    Changed |= simplifyCFG(F);
  }
}
