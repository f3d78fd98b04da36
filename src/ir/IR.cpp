//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the core IR classes (Value, Instruction, BasicBlock,
/// Function, Module, IRContext).
///
//===----------------------------------------------------------------------===//

#include "ir/Module.h"

#include <algorithm>

using namespace wario;

// Arena teardown never runs destructors, so every arena-resident node must
// be trivially destructible — this is also what entitles cloneModule to
// duplicate them with memcpy.
static_assert(std::is_trivially_destructible_v<Constant>);
static_assert(std::is_trivially_destructible_v<GlobalVariable>);
static_assert(std::is_trivially_destructible_v<Argument>);
static_assert(std::is_trivially_destructible_v<Instruction>);
static_assert(std::is_trivially_destructible_v<BasicBlock>);
static_assert(std::is_trivially_destructible_v<Function>);

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

void Value::addUser(Instruction *I) {
  if (!tracksUsers())
    return;
  Users.push_back(I->arena(), I);
}

void Value::removeUser(Instruction *I) {
  if (!tracksUsers())
    return;
  for (size_t J = 0, E = Users.size(); J != E; ++J) {
    if (Users[J] == I) {
      Users.erase(J); // Order-preserving, like the old vector::erase.
      return;
    }
  }
  assert(false && "removing a user that was never added");
}

void Value::replaceAllUsesWith(Value *New) {
  assert(New != this && "replacing a value with itself");
  assert(tracksUsers() && "value kind does not track users");
  // Copy: setOperand mutates the user list.
  std::vector<Instruction *> Snapshot(Users.begin(), Users.end());
  for (Instruction *U : Snapshot)
    for (unsigned I = 0, E = U->getNumOperands(); I != E; ++I)
      if (U->getOperand(I) == this)
        U->setOperand(I, New);
  assert(Users.empty() && "stale uses after replaceAllUsesWith");
}

//===----------------------------------------------------------------------===//
// Instruction
//===----------------------------------------------------------------------===//

const char *wario::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Alloca: return "alloca";
  case Opcode::Load: return "load";
  case Opcode::Store: return "store";
  case Opcode::Gep: return "gep";
  case Opcode::Add: return "add";
  case Opcode::Sub: return "sub";
  case Opcode::Mul: return "mul";
  case Opcode::UDiv: return "udiv";
  case Opcode::SDiv: return "sdiv";
  case Opcode::URem: return "urem";
  case Opcode::SRem: return "srem";
  case Opcode::And: return "and";
  case Opcode::Or: return "or";
  case Opcode::Xor: return "xor";
  case Opcode::Shl: return "shl";
  case Opcode::LShr: return "lshr";
  case Opcode::AShr: return "ashr";
  case Opcode::ICmp: return "icmp";
  case Opcode::Select: return "select";
  case Opcode::Call: return "call";
  case Opcode::Out: return "out";
  case Opcode::Checkpoint: return "checkpoint";
  case Opcode::Br: return "br";
  case Opcode::Jmp: return "jmp";
  case Opcode::Ret: return "ret";
  case Opcode::Phi: return "phi";
  }
  return "<bad opcode>";
}

const char *wario::checkpointCauseName(CheckpointCause C) {
  switch (C) {
  case CheckpointCause::MiddleEndWar: return "middle-end-war";
  case CheckpointCause::BackendSpill: return "backend-spill";
  case CheckpointCause::FunctionEntry: return "function-entry";
  case CheckpointCause::FunctionExit: return "function-exit";
  }
  return "<bad cause>";
}

const char *wario::checkpointStrategyName(CheckpointStrategy S) {
  switch (S) {
  case CheckpointStrategy::Idempotent: return "idempotent";
  case CheckpointStrategy::Differential: return "differential";
  case CheckpointStrategy::Speculative: return "speculative";
  }
  return "<bad strategy>";
}

const char *wario::predName(CmpPred P) {
  switch (P) {
  case CmpPred::EQ: return "eq";
  case CmpPred::NE: return "ne";
  case CmpPred::ULT: return "ult";
  case CmpPred::ULE: return "ule";
  case CmpPred::UGT: return "ugt";
  case CmpPred::UGE: return "uge";
  case CmpPred::SLT: return "slt";
  case CmpPred::SLE: return "sle";
  case CmpPred::SGT: return "sgt";
  case CmpPred::SGE: return "sge";
  }
  return "<bad pred>";
}

namespace {
const Type *typeForOpcode(const IRContext &Ctx, Opcode Op) {
  switch (Op) {
  case Opcode::Store:
  case Opcode::Out:
  case Opcode::Checkpoint:
  case Opcode::Br:
  case Opcode::Jmp:
  case Opcode::Ret:
  case Opcode::Call: // Refined by setCallee.
    return Ctx.getVoidType();
  default:
    return Ctx.getI32Type();
  }
}
} // namespace

Instruction::Instruction(Function *F, Opcode Op)
    : Value(ValueKind::Instruction,
            typeForOpcode(F->getParent()->getContext(), Op)),
      Op(Op), Func(F) {}

Arena &Instruction::arena() const { return Func->localArena(); }

void Instruction::setOperand(unsigned I, Value *V) {
  assert(I < Operands.size() && "operand index out of range");
  assert(V && "operand must not be null");
  if (Operands[I] == V)
    return;
  if (Operands[I])
    Operands[I]->removeUser(this);
  Operands[I] = V;
  V->addUser(this);
}

void Instruction::addOperand(Value *V) {
  assert(V && "operand must not be null");
  Operands.push_back(arena(), V);
  V->addUser(this);
}

void Instruction::removeOperand(unsigned I) {
  assert(I < Operands.size() && "operand index out of range");
  Operands[I]->removeUser(this);
  Operands.erase(I);
}

void Instruction::removeBlockOperand(unsigned I) {
  assert(I < BlockOps.size() && "block operand index out of range");
  BlockOps.erase(I);
  if (Parent)
    Parent->getParent()->invalidateCFG();
}

void Instruction::removePhiIncomingFor(const BasicBlock *Pred) {
  assert(Op == Opcode::Phi && "not a phi");
  for (unsigned I = 0, E = unsigned(BlockOps.size()); I != E; ++I) {
    if (BlockOps[I] == Pred) {
      removeOperand(I);
      removeBlockOperand(I);
      return;
    }
  }
  assert(false && "phi has no incoming entry for this block");
}

Value *Instruction::getPhiIncomingFor(const BasicBlock *Pred) const {
  assert(Op == Opcode::Phi && "not a phi");
  for (unsigned I = 0, E = unsigned(BlockOps.size()); I != E; ++I)
    if (BlockOps[I] == Pred)
      return Operands[I];
  assert(false && "phi has no incoming entry for this block");
  return nullptr;
}

void Instruction::dropAllOperands() {
  for (Value *V : Operands)
    if (V)
      V->removeUser(this);
  Operands.clear();
}

void Instruction::setBlockOperand(unsigned I, BasicBlock *BB) {
  assert(I < BlockOps.size() && "block operand index out of range");
  BlockOps[I] = BB;
  if (Parent)
    Parent->getParent()->invalidateCFG();
}

void Instruction::addBlockOperand(BasicBlock *BB) {
  BlockOps.push_back(arena(), BB);
  if (Parent)
    Parent->getParent()->invalidateCFG();
}

void Instruction::setCallee(Function *F) {
  Callee = F;
  const IRContext &Ctx = Func->getParent()->getContext();
  setType(F && F->returnsValue() ? Ctx.getI32Type() : Ctx.getVoidType());
}

bool Instruction::producesValue() const {
  switch (Op) {
  case Opcode::Store:
  case Opcode::Out:
  case Opcode::Checkpoint:
  case Opcode::Br:
  case Opcode::Jmp:
  case Opcode::Ret:
    return false;
  case Opcode::Call:
    return Callee && Callee->returnsValue();
  default:
    return true;
  }
}

bool Instruction::mayReadMemory() const {
  // Calls may transitively read; checkpoints only write their own NVM
  // buffer, which no program load can observe.
  return Op == Opcode::Load || Op == Opcode::Call;
}

bool Instruction::mayWriteMemory() const {
  return Op == Opcode::Store || Op == Opcode::Call;
}

void Instruction::removeFromParent() {
  assert(Parent && "instruction is not attached to a block");
  Parent->remove(this);
}

void Instruction::moveBefore(Instruction *Other) {
  assert(Other->Parent && "target instruction is detached");
  if (Parent)
    removeFromParent();
  BasicBlock *BB = Other->Parent;
  BB->insert(BasicBlock::iterator(Other, BB), this);
}

void Instruction::moveBeforeTerminator(BasicBlock *BB) {
  if (Parent)
    removeFromParent();
  Instruction *Term = BB->getTerminator();
  if (Term && !isTerminator())
    BB->insert(BasicBlock::iterator(Term, BB), this);
  else
    BB->push_back(this);
}

//===----------------------------------------------------------------------===//
// BasicBlock
//===----------------------------------------------------------------------===//

BasicBlock::iterator BasicBlock::insert(iterator Pos, Instruction *I) {
  assert(!I->Parent && "instruction already attached to a block");
  assert(I->Func == Parent && "instruction belongs to another function");
  Instruction *Next = Pos.Cur;
  Instruction *Prev = Next ? Next->PrevI : ILast;
  I->Parent = this;
  I->PrevI = Prev;
  I->NextI = Next;
  (Prev ? Prev->NextI : IFirst) = I;
  (Next ? Next->PrevI : ILast) = I;
  ++NumInsts;
  if (I->isTerminator())
    Parent->invalidateCFG();
  return iterator(I, this);
}

void BasicBlock::remove(Instruction *I) {
  assert(I->Parent == this && "instruction not attached to this block");
  if (I->isTerminator())
    Parent->invalidateCFG();
  (I->PrevI ? I->PrevI->NextI : IFirst) = I->NextI;
  (I->NextI ? I->NextI->PrevI : ILast) = I->PrevI;
  I->PrevI = I->NextI = nullptr;
  I->Parent = nullptr;
  --NumInsts;
}

std::span<BasicBlock *const> BasicBlock::successors() const {
  const Instruction *Term = getTerminator();
  if (!Term)
    return {};
  return {Term->BlockOps.begin(), Term->BlockOps.size()};
}

const ArenaVec<BasicBlock *> &BasicBlock::predecessors() const {
  Parent->ensureCFG();
  return Preds;
}

BasicBlock::iterator BasicBlock::firstNonPhi() const {
  iterator It = begin();
  while (It != end() && (*It)->getOpcode() == Opcode::Phi)
    ++It;
  return It;
}

std::vector<Instruction *> BasicBlock::phis() const {
  std::vector<Instruction *> Result;
  for (Instruction *I : *this) {
    if (I->getOpcode() != Opcode::Phi)
      break;
    Result.push_back(I);
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Function
//===----------------------------------------------------------------------===//

Function::Function(Module *Parent, Arena *A, std::string Name,
                   unsigned NumParams, bool ReturnsVal)
    : Parent(Parent), A(A), Name(&internedName(std::move(Name))),
      ReturnsVal(ReturnsVal) {
  const Type *I32 = Parent->getContext().getI32Type();
  for (unsigned I = 0; I != NumParams; ++I) {
    Argument *Arg = A->create<Argument>(I32, this, I);
    Arg->setName("arg" + std::to_string(I));
    Args.push_back(*A, Arg);
  }
}

BasicBlock *Function::createBlock(std::string BlockName) {
  BasicBlock *BB =
      A->create<BasicBlock>(this, numBlockNumbers(), std::move(BlockName));
  AllBlocks.push_back(*A, BB);
  BB->PrevB = BLast;
  (BLast ? BLast->NextB : BFirst) = BB;
  BLast = BB;
  ++NumBlocks;
  invalidateCFG();
  return BB;
}

BasicBlock *Function::createBlockAfter(BasicBlock *After,
                                       std::string BlockName) {
  assert(After && After->Parent == this && "anchor block not in this function");
  BasicBlock *BB =
      A->create<BasicBlock>(this, numBlockNumbers(), std::move(BlockName));
  AllBlocks.push_back(*A, BB);
  BB->PrevB = After;
  BB->NextB = After->NextB;
  (After->NextB ? After->NextB->PrevB : BLast) = BB;
  After->NextB = BB;
  ++NumBlocks;
  invalidateCFG();
  return BB;
}

void Function::eraseBlock(BasicBlock *BB) {
  assert(BB->predecessors().empty() && "erasing a block with predecessors");
  // Detach all instructions, dropping operands so no dangling uses remain.
  while (!BB->empty()) {
    Instruction *I = BB->back();
    BB->remove(I);
    I->dropAllOperands();
    assert(!I->hasUsers() && "erased block defines a live value");
  }
  (BB->PrevB ? BB->PrevB->NextB : BFirst) = BB->NextB;
  (BB->NextB ? BB->NextB->PrevB : BLast) = BB->PrevB;
  BB->PrevB = BB->NextB = nullptr;
  --NumBlocks;
  invalidateCFG();
}

Instruction *Function::createInstruction(Opcode Op,
                                         const std::vector<Value *> &Ops) {
  Instruction *I = A->create<Instruction>(this, Op);
  I->Id = NextInstId++;
  AllInsts.push_back(*A, I);
  for (Value *V : Ops)
    I->addOperand(V);
  return I;
}

void Function::eraseInstruction(Instruction *I) {
  assert(!I->hasUsers() && "erasing an instruction that still has users");
  if (I->getParent())
    I->removeFromParent();
  I->dropAllOperands();
}

void Function::ensureCFG() const {
  if (!CFGDirty)
    return;
  for (BasicBlock *BB : *this)
    BB->Preds.clear();
  for (BasicBlock *BB : *this)
    if (const Instruction *Term = BB->getTerminator())
      for (unsigned I = 0, E = Term->getNumBlockOperands(); I != E; ++I)
        Term->getBlockOperand(I)->Preds.push_back(*A, BB);
  CFGDirty = false;
}

unsigned Function::countInstructions() const {
  unsigned N = 0;
  for (const BasicBlock *BB : *this)
    N += unsigned(BB->size());
  return N;
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

Function *Module::createFunction(std::string FnName, unsigned NumParams,
                                 bool ReturnsVal) {
  assert(!getFunction(FnName) && "duplicate function name");
  Arena &FA = Ctx->newFunctionArena();
  Function *F =
      FA.create<Function>(this, &FA, std::move(FnName), NumParams, ReturnsVal);
  Functions.push_back(F);
  return F;
}

Function *Module::getFunction(const std::string &FnName) const {
  for (Function *F : Functions)
    if (F->getName() == FnName)
      return F;
  return nullptr;
}

GlobalVariable *Module::createGlobal(std::string GlobalName,
                                     uint32_t SizeBytes,
                                     const std::vector<uint8_t> &Init) {
  assert(!getGlobal(GlobalName) && "duplicate global name");
  assert((Init.empty() || Init.size() == SizeBytes) &&
         "initializer size mismatch");
  Arena &MA = Ctx->moduleArena();
  GlobalVariable *G = MA.create<GlobalVariable>(
      Ctx->getPtrType(), Ctx->getArrayType(SizeBytes), std::move(GlobalName));
  if (!Init.empty())
    G->Init.assign(MA, Init.data(), Init.data() + Init.size());
  Globals.push_back(G);
  return G;
}

GlobalVariable *Module::getGlobal(const std::string &GlobalName) const {
  for (GlobalVariable *G : Globals)
    if (G->getName() == GlobalName)
      return G;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// IRContext
//===----------------------------------------------------------------------===//

const Type *IRContext::getArrayType(uint32_t Bytes) {
  std::lock_guard<std::mutex> Lock(InternMutex);
  auto It = ArrayTypes.find(Bytes);
  if (It != ArrayTypes.end())
    return It->second;
  void *Mem = ModArena.allocate(sizeof(Type), alignof(Type));
  Type *T = new (Mem) Type(Type::Kind::Array, Bytes);
  ArrayTypes.emplace(Bytes, T);
  return T;
}

Constant *IRContext::getConstant(int32_t V) {
  std::lock_guard<std::mutex> Lock(InternMutex);
  auto It = Constants.find(V);
  if (It != Constants.end())
    return It->second;
  void *Mem = ModArena.allocate(sizeof(Constant), alignof(Constant));
  Constant *C = new (Mem) Constant(&I32Ty, V);
  Constants.emplace(V, C);
  return C;
}
