//===----------------------------------------------------------------------===//
///
/// \file
/// Function: a CFG of basic blocks whose nodes live in the module arena.
///
/// The function object, its blocks and its instructions are all
/// bump-allocated in its module's arena, which keeps the whole ownership
/// graph inside IRContext's slab set — that is what cloneModule
/// bulk-copies. The enumeration lists (AllBlocks, AllInsts) are
/// per-function.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_IR_FUNCTION_H
#define WARIO_IR_FUNCTION_H

#include "ir/BasicBlock.h"

#include <iterator>
#include <string>
#include <vector>

namespace wario {

class Module;

/// A function definition (or declaration, when it has no blocks).
///
/// Blocks and instructions are arena-owned: detaching an instruction from
/// a block does not destroy it, which lets passes move instructions
/// around freely (the write-clustering passes depend on this).
class Function {
public:
  Function(Module *Parent, Arena *A, std::string Name, unsigned NumParams,
           bool ReturnsVal);
  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  Module *getParent() const { return Parent; }
  const std::string &getName() const { return *Name; }

  unsigned getNumParams() const { return unsigned(Args.size()); }
  Argument *getArg(unsigned I) const {
    assert(I < Args.size() && "argument index out of range");
    return Args[I];
  }
  bool returnsValue() const { return ReturnsVal; }

  bool isDeclaration() const { return NumBlocks == 0; }

  /// The module arena every node of this function lives in.
  Arena &arena() const { return *A; }

  // -- Blocks ----------------------------------------------------------------
  /// Bidirectional iterator over the intrusive block list; `*it` is the
  /// BasicBlock pointer, matching the old std::list<BasicBlock *>.
  class block_iterator {
  public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = BasicBlock *;
    using difference_type = std::ptrdiff_t;
    using pointer = BasicBlock *const *;
    using reference = BasicBlock *;

    block_iterator() = default;
    block_iterator(BasicBlock *BB, const Function *F) : Cur(BB), F(F) {}

    BasicBlock *operator*() const { return Cur; }
    block_iterator &operator++() {
      Cur = Cur->NextB;
      return *this;
    }
    block_iterator operator++(int) {
      block_iterator T = *this;
      ++*this;
      return T;
    }
    block_iterator &operator--() {
      Cur = Cur ? Cur->PrevB : F->BLast;
      return *this;
    }
    block_iterator operator--(int) {
      block_iterator T = *this;
      --*this;
      return T;
    }
    bool operator==(const block_iterator &O) const { return Cur == O.Cur; }
    bool operator!=(const block_iterator &O) const { return Cur != O.Cur; }

  private:
    BasicBlock *Cur = nullptr;
    const Function *F = nullptr;
  };
  using const_block_iterator = block_iterator;

  block_iterator begin() const { return block_iterator(BFirst, this); }
  block_iterator end() const { return block_iterator(nullptr, this); }
  size_t size() const { return NumBlocks; }

  BasicBlock *getEntryBlock() const {
    assert(BFirst && "function has no body");
    return BFirst;
  }

  /// Creates a new block appended to the block list.
  BasicBlock *createBlock(std::string BlockName);
  /// Creates a new block inserted after \p After in the block list.
  BasicBlock *createBlockAfter(BasicBlock *After, std::string BlockName);
  /// Unlinks \p BB from the block list and detaches its instructions.
  /// The block must have no predecessors.
  void eraseBlock(BasicBlock *BB);
  /// One past the largest block number ever handed out (erased blocks
  /// included): the size of a table indexed by BasicBlock::getNumber().
  unsigned numBlockNumbers() const { return unsigned(AllBlocks.size()); }

  // -- Instructions -----------------------------------------------------------
  /// Bump-allocates a detached instruction in the module arena,
  /// assigns the next per-function id, and attaches the operands. The
  /// caller inserts it into a block.
  Instruction *createInstruction(Opcode Op,
                                 const std::vector<Value *> &Ops = {});

  /// The id the next created instruction would receive.
  unsigned nextInstId() const { return NextInstId; }

  /// Detaches \p I from its block and drops its operands. The value must
  /// have no remaining users. Memory is reclaimed when the module dies.
  void eraseInstruction(Instruction *I);

  // -- CFG cache ----------------------------------------------------------------
  /// Marks predecessor caches stale. Called by mutation APIs; passes that
  /// mutate terminators through raw setters must call it themselves.
  void invalidateCFG() { CFGDirty = true; }
  /// Recomputes predecessor lists if stale.
  void ensureCFG() const;

  /// Total number of instructions currently attached to blocks.
  unsigned countInstructions() const;

private:
  friend class Module;
  friend struct ModuleCloner;

  Module *Parent;
  Arena *A;
  const std::string *Name;
  bool ReturnsVal;

  ArenaVec<Argument *> Args;
  BasicBlock *BFirst = nullptr;
  BasicBlock *BLast = nullptr;
  uint32_t NumBlocks = 0;
  /// Every block/instruction ever created, attached or not — the clone
  /// fixup walk and teardown-free ownership both need full enumeration.
  ArenaVec<BasicBlock *> AllBlocks;
  ArenaVec<Instruction *> AllInsts;
  unsigned NextInstId = 0;
  mutable bool CFGDirty = true;
};

} // namespace wario

#endif // WARIO_IR_FUNCTION_H
