//===----------------------------------------------------------------------===//
///
/// \file
/// Instruction class of the WARio IR.
///
/// A single concrete Instruction class carries an opcode plus a small
/// payload instead of a deep subclass hierarchy; accessors assert that the
/// opcode matches. Operands are Value pointers with def-use maintenance;
/// control-flow targets and phi incoming blocks are kept in a separate
/// block-operand list.
///
/// Instructions are bump-allocated in their module's arena and linked
/// into blocks through intrusive prev/next pointers, so the whole node is
/// trivially copyable for cloneModule's bulk copy.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_IR_INSTRUCTION_H
#define WARIO_IR_INSTRUCTION_H

#include "ir/Value.h"

namespace wario {

class BasicBlock;
class Function;

/// Instruction opcodes. All arithmetic is 32-bit; loads/stores carry an
/// explicit access size.
enum class Opcode : uint8_t {
  // Memory.
  Alloca, ///< Reserve bytes in the (non-volatile) stack frame.
  Load,   ///< Read 1/2/4 bytes, zero- or sign-extended to 32 bits.
  Store,  ///< Write the low 1/2/4 bytes of a value.
  Gep,    ///< Address arithmetic: base + index * scale + offset.
  // Arithmetic / logic.
  Add, Sub, Mul, UDiv, SDiv, URem, SRem,
  And, Or, Xor, Shl, LShr, AShr,
  ICmp,   ///< Integer compare, produces 0 or 1.
  Select, ///< cond ? tval : fval.
  // Calls and intrinsics.
  Call,       ///< Direct call.
  Out,        ///< Write a word to the emulated output port (write-only MMIO).
  Checkpoint, ///< Save the volatile register state (inserted by passes).
  // Terminators.
  Br,  ///< Conditional branch.
  Jmp, ///< Unconditional branch.
  Ret, ///< Return, with optional value.
  // SSA.
  Phi,
};

/// Predicates for ICmp.
enum class CmpPred : uint8_t {
  EQ, NE, ULT, ULE, UGT, UGE, SLT, SLE, SGT, SGE,
};

/// Why a checkpoint was inserted. Carried through the back end to the
/// emulator so Figure 5 (checkpoint-cause breakdown) can be reproduced.
enum class CheckpointCause : uint8_t {
  MiddleEndWar,  ///< Resolves an IR-level WAR violation (PDG inserter).
  BackendSpill,  ///< Resolves a register-spill stack-slot WAR.
  FunctionEntry, ///< Guards the prologue's stack pushes.
  FunctionExit,  ///< Guards the epilog's pops / SP adjustments.
};

/// Returns a printable name for \p C.
const char *checkpointCauseName(CheckpointCause C);

/// How a compiled program survives power failures (the bench matrix's
/// strategy axis, orthogonal to the Environment axis). Carried from
/// PipelineOptions through the backend into MModule so the emulator
/// applies the matching commit/rollback semantics.
enum class CheckpointStrategy : uint8_t {
  /// WARio/Ratchet-style idempotence: every WAR violation is broken by
  /// a register checkpoint; NVM state is never rolled back.
  Idempotent,
  /// DiCA-style differential checkpointing (arXiv 2308.12819): WARs are
  /// left unbroken, the runtime journals pages dirtied since the last
  /// commit, a commit pays per-dirty-page cost, and a reboot discards
  /// (rolls back) all uncommitted dirty pages.
  Differential,
  /// Compiler-directed speculative intermittent computation
  /// (arXiv 2006.11479): stores that complete a WAR execute
  /// speculatively with a word-granular undo log; a reboot unwinds the
  /// log back to the last committed checkpoint.
  Speculative,
};

/// Returns a printable name for \p S ("idempotent" / "differential" /
/// "speculative").
const char *checkpointStrategyName(CheckpointStrategy S);

/// Returns a printable mnemonic for \p Op.
const char *opcodeName(Opcode Op);
/// Returns a printable mnemonic for \p P.
const char *predName(CmpPred P);

/// One IR instruction. Owned by its module's arena; linked into a
/// BasicBlock's instruction list while attached.
class Instruction : public Value {
public:
  /// Instructions are created through Function::createInstruction (or
  /// IRBuilder); the constructor only wires the owning function so operand
  /// bookkeeping has an arena from the first addOperand on.
  Instruction(Function *F, Opcode Op);

  Opcode getOpcode() const { return Op; }
  BasicBlock *getParent() const { return Parent; }
  /// The owning function. Valid even while detached from any block.
  Function *getFunction() const { return Func; }

  /// Monotonically increasing creation index within the parent function;
  /// used for deterministic iteration orders.
  unsigned getId() const { return Id; }

  // -- Operands ------------------------------------------------------------
  unsigned getNumOperands() const { return unsigned(Operands.size()); }
  Value *getOperand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  void setOperand(unsigned I, Value *V);
  void addOperand(Value *V);
  /// Removes operand \p I (shifting later operands down). For phis, the
  /// caller must remove the matching block operand too.
  void removeOperand(unsigned I);
  /// Drops all operands (removing this from their user lists).
  void dropAllOperands();

  // -- Block operands (branch targets / phi incoming blocks) ---------------
  unsigned getNumBlockOperands() const { return unsigned(BlockOps.size()); }
  BasicBlock *getBlockOperand(unsigned I) const {
    assert(I < BlockOps.size() && "block operand index out of range");
    return BlockOps[I];
  }
  void setBlockOperand(unsigned I, BasicBlock *BB);
  void addBlockOperand(BasicBlock *BB);
  void removeBlockOperand(unsigned I);

  // -- Phi helpers -----------------------------------------------------------
  /// Removes the first incoming entry whose block is \p Pred.
  void removePhiIncomingFor(const BasicBlock *Pred);
  /// The incoming value for predecessor \p Pred (first match).
  Value *getPhiIncomingFor(const BasicBlock *Pred) const;

  // -- Classification -------------------------------------------------------
  bool isTerminator() const {
    return Op == Opcode::Br || Op == Opcode::Jmp || Op == Opcode::Ret;
  }
  bool isBinaryOp() const {
    return Op >= Opcode::Add && Op <= Opcode::AShr;
  }
  /// True if the instruction defines an SSA value other instructions can use.
  bool producesValue() const;
  bool mayReadMemory() const;
  bool mayWriteMemory() const;
  /// Loads and stores; the instructions memory dependence analysis tracks.
  bool isMemoryAccess() const {
    return Op == Opcode::Load || Op == Opcode::Store;
  }

  // -- Payload accessors -----------------------------------------------------
  /// Alloca: reserved size in bytes.
  uint32_t getAllocaSize() const {
    assert(Op == Opcode::Alloca);
    return AllocaSize;
  }
  void setAllocaSize(uint32_t S) {
    assert(Op == Opcode::Alloca);
    AllocaSize = S;
  }

  /// Load/Store: access size in bytes (1, 2 or 4).
  uint8_t getAccessSize() const {
    assert(Op == Opcode::Load || Op == Opcode::Store);
    return AccessSize;
  }
  void setAccessSize(uint8_t S) {
    assert((S == 1 || S == 2 || S == 4) && "invalid access size");
    AccessSize = S;
  }
  /// Load: whether a sub-word load sign-extends.
  bool isSignedLoad() const {
    assert(Op == Opcode::Load);
    return SignedLoad;
  }
  void setSignedLoad(bool S) { SignedLoad = S; }
  /// Store: marked by the speculative-strategy checkpoint inserter as
  /// completing an unresolved WAR — the emulator undo-logs its old value
  /// instead of a checkpoint breaking the hazard.
  bool isSpecLogged() const {
    assert(Op == Opcode::Store);
    return SpecLogged;
  }
  void setSpecLogged(bool L) {
    assert(Op == Opcode::Store);
    SpecLogged = L;
  }

  /// Load: the address operand. Store: value is operand 0, address operand 1.
  Value *getAddressOperand() const {
    assert(isMemoryAccess());
    return Op == Opcode::Load ? getOperand(0) : getOperand(1);
  }
  Value *getStoredValue() const {
    assert(Op == Opcode::Store);
    return getOperand(0);
  }

  /// Gep: compile-time scale and byte offset.
  int32_t getGepScale() const {
    assert(Op == Opcode::Gep);
    return GepScale;
  }
  int32_t getGepOffset() const {
    assert(Op == Opcode::Gep);
    return GepOffset;
  }
  void setGepScale(int32_t S) { GepScale = S; }
  void setGepOffset(int32_t O) { GepOffset = O; }
  /// Gep: base address operand.
  Value *getGepBase() const {
    assert(Op == Opcode::Gep);
    return getOperand(0);
  }
  /// Gep: optional index operand (nullptr if the offset is constant-only).
  Value *getGepIndex() const {
    assert(Op == Opcode::Gep);
    return getNumOperands() > 1 ? getOperand(1) : nullptr;
  }

  CmpPred getPredicate() const {
    assert(Op == Opcode::ICmp);
    return Pred;
  }
  void setPredicate(CmpPred P) { Pred = P; }

  Function *getCallee() const {
    assert(Op == Opcode::Call);
    return Callee;
  }
  void setCallee(Function *F);

  CheckpointCause getCheckpointCause() const {
    assert(Op == Opcode::Checkpoint);
    return CkptCause;
  }
  void setCheckpointCause(CheckpointCause C) {
    assert(Op == Opcode::Checkpoint);
    CkptCause = C;
  }

  // -- Placement -------------------------------------------------------------
  /// Unlinks this instruction from its parent block (ownership stays with
  /// the module arena).
  void removeFromParent();
  /// Moves this instruction immediately before \p Other (possibly in a
  /// different block of the same function).
  void moveBefore(Instruction *Other);
  /// Moves this instruction to the end of \p BB, before its terminator if
  /// one exists and this instruction is not itself a terminator.
  void moveBeforeTerminator(BasicBlock *BB);

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Instruction;
  }

private:
  friend class BasicBlock;
  friend class Function;
  friend class Value; // addUser/removeUser need the arena.
  friend struct ModuleCloner;

  /// The module arena — where operand/user lists grow.
  Arena &arena() const;

  Opcode Op;
  ArenaVec<Value *> Operands;
  ArenaVec<BasicBlock *> BlockOps;
  BasicBlock *Parent = nullptr;
  Instruction *PrevI = nullptr; ///< Intrusive block list links.
  Instruction *NextI = nullptr;
  Function *Func;
  unsigned Id = 0;

  // Payload (interpretation depends on Op).
  uint32_t AllocaSize = 0;
  uint8_t AccessSize = 4;
  bool SignedLoad = false;
  bool SpecLogged = false;
  CmpPred Pred = CmpPred::EQ;
  int32_t GepScale = 1;
  int32_t GepOffset = 0;
  Function *Callee = nullptr;
  CheckpointCause CkptCause = CheckpointCause::MiddleEndWar;
};

} // namespace wario

#endif // WARIO_IR_INSTRUCTION_H
