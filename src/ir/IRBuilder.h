//===----------------------------------------------------------------------===//
///
/// \file
/// IRBuilder: convenience factory for creating instructions at an insertion
/// point, in the style of llvm::IRBuilder.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_IR_IRBUILDER_H
#define WARIO_IR_IRBUILDER_H

#include "ir/Module.h"

#include <algorithm>

namespace wario {

/// Creates instructions and inserts them at a movable insertion point.
class IRBuilder {
public:
  explicit IRBuilder(Module *M) : M(M) {}

  /// Sets the insertion point to the end of \p BB.
  void setInsertPoint(BasicBlock *BB) {
    InsertBB = BB;
    InsertPos = BB->end();
  }
  /// Sets the insertion point immediately before \p I.
  void setInsertPoint(Instruction *I) {
    InsertBB = I->getParent();
    assert(InsertBB && "cannot insert before a detached instruction");
    InsertPos = std::find(InsertBB->begin(), InsertBB->end(), I);
  }
  BasicBlock *getInsertBlock() const { return InsertBB; }

  Constant *getInt(int32_t V) { return M->getConstant(V); }

  // -- Memory -----------------------------------------------------------------
  Instruction *createAlloca(uint32_t SizeBytes, const std::string &Name) {
    Instruction *I = create(Opcode::Alloca, {});
    I->setAllocaSize(SizeBytes);
    I->setName(Name);
    return I;
  }

  Instruction *createLoad(Value *Addr, uint8_t Size = 4, bool Signed = false,
                          const std::string &Name = "ld") {
    Instruction *I = create(Opcode::Load, {Addr});
    I->setAccessSize(Size);
    I->setSignedLoad(Signed);
    I->setName(Name);
    return I;
  }

  Instruction *createStore(Value *Val, Value *Addr, uint8_t Size = 4) {
    Instruction *I = create(Opcode::Store, {Val, Addr});
    I->setAccessSize(Size);
    return I;
  }

  /// Address arithmetic: Base + Index * Scale + Offset. Pass Index=nullptr
  /// for a constant-only offset.
  Instruction *createGep(Value *Base, Value *Index, int32_t Scale,
                         int32_t Offset = 0, const std::string &Name = "gep") {
    std::vector<Value *> Ops{Base};
    if (Index)
      Ops.push_back(Index);
    Instruction *I = create(Opcode::Gep, std::move(Ops));
    I->setGepScale(Scale);
    I->setGepOffset(Offset);
    I->setName(Name);
    return I;
  }

  // -- Arithmetic ---------------------------------------------------------------
  Instruction *createBinary(Opcode Op, Value *A, Value *B,
                            const std::string &Name = "t") {
    assert(Op >= Opcode::Add && Op <= Opcode::AShr && "not a binary opcode");
    Instruction *I = create(Op, {A, B});
    I->setName(Name);
    return I;
  }
  Instruction *createAdd(Value *A, Value *B, const std::string &N = "add") {
    return createBinary(Opcode::Add, A, B, N);
  }
  Instruction *createSub(Value *A, Value *B, const std::string &N = "sub") {
    return createBinary(Opcode::Sub, A, B, N);
  }
  Instruction *createMul(Value *A, Value *B, const std::string &N = "mul") {
    return createBinary(Opcode::Mul, A, B, N);
  }

  Instruction *createICmp(CmpPred P, Value *A, Value *B,
                          const std::string &Name = "cmp") {
    Instruction *I = create(Opcode::ICmp, {A, B});
    I->setPredicate(P);
    I->setName(Name);
    return I;
  }

  Instruction *createSelect(Value *Cond, Value *TVal, Value *FVal,
                            const std::string &Name = "sel") {
    Instruction *I = create(Opcode::Select, {Cond, TVal, FVal});
    I->setName(Name);
    return I;
  }

  // -- Calls / intrinsics ----------------------------------------------------------
  Instruction *createCall(Function *Callee, std::vector<Value *> Args,
                          const std::string &Name = "call") {
    assert(Args.size() == Callee->getNumParams() && "call arity mismatch");
    Instruction *I = create(Opcode::Call, std::move(Args));
    I->setCallee(Callee);
    if (Callee->returnsValue())
      I->setName(Name);
    return I;
  }

  Instruction *createOut(Value *V) { return create(Opcode::Out, {V}); }

  Instruction *createCheckpoint() { return create(Opcode::Checkpoint, {}); }

  // -- Control flow ------------------------------------------------------------------
  Instruction *createBr(Value *Cond, BasicBlock *Then, BasicBlock *Else) {
    Instruction *I = create(Opcode::Br, {Cond});
    I->addBlockOperand(Then);
    I->addBlockOperand(Else);
    return I;
  }

  Instruction *createJmp(BasicBlock *Dest) {
    Instruction *I = create(Opcode::Jmp, {});
    I->addBlockOperand(Dest);
    return I;
  }

  Instruction *createRet(Value *V = nullptr) {
    return create(Opcode::Ret, V ? std::vector<Value *>{V}
                                 : std::vector<Value *>{});
  }

  Instruction *createPhi(const std::string &Name = "phi") {
    Instruction *I = create(Opcode::Phi, {});
    I->setName(Name);
    return I;
  }

  /// Adds an incoming (value, predecessor) pair to a phi.
  static void addPhiIncoming(Instruction *Phi, Value *V, BasicBlock *Pred) {
    assert(Phi->getOpcode() == Opcode::Phi && "not a phi");
    Phi->addOperand(V);
    Phi->addBlockOperand(Pred);
  }

private:
  Instruction *create(Opcode Op, const std::vector<Value *> &Ops) {
    assert(InsertBB && "no insertion point set");
    Function *F = InsertBB->getParent();
    Instruction *I = F->createInstruction(Op, Ops);
    InsertBB->insert(InsertPos, I);
    return I;
  }

  Module *M;
  BasicBlock *InsertBB = nullptr;
  BasicBlock::iterator InsertPos;
};

} // namespace wario

#endif // WARIO_IR_IRBUILDER_H
