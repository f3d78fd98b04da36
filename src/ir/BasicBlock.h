//===----------------------------------------------------------------------===//
///
/// \file
/// BasicBlock: a straight-line instruction sequence ended by a terminator.
///
/// The instruction list is intrusive (prev/next pointers inside
/// Instruction) so blocks stay trivially copyable for cloneModule's bulk
/// copy. The iterator keeps std::list semantics where passes rely on them:
/// dereferencing yields `Instruction *`, inserting before a held iterator
/// keeps it valid, and end() can be decremented.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_IR_BASICBLOCK_H
#define WARIO_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <iterator>
#include <span>
#include <string>
#include <vector>

namespace wario {

class Function;

/// A basic block. Instructions are owned by the module arena; the block
/// holds an ordered list of attached instructions. Instructions may only
/// branch at the terminator, so any path leaving the block passes through
/// every instruction after a given point — a property the WAR
/// resolution-set computation relies on.
class BasicBlock {
public:
  /// Bidirectional iterator over the intrusive instruction list. Like a
  /// std::list<Instruction *> iterator, `*it` is the Instruction pointer
  /// and a held iterator survives inserts before it.
  class iterator {
  public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = Instruction *;
    using difference_type = std::ptrdiff_t;
    using pointer = Instruction *const *;
    using reference = Instruction *;

    iterator() = default;
    iterator(Instruction *I, const BasicBlock *BB) : Cur(I), BB(BB) {}

    Instruction *operator*() const { return Cur; }
    iterator &operator++() {
      Cur = Cur->NextI;
      return *this;
    }
    iterator operator++(int) {
      iterator T = *this;
      ++*this;
      return T;
    }
    iterator &operator--() {
      Cur = Cur ? Cur->PrevI : BB->ILast;
      return *this;
    }
    iterator operator--(int) {
      iterator T = *this;
      --*this;
      return T;
    }
    bool operator==(const iterator &O) const { return Cur == O.Cur; }
    bool operator!=(const iterator &O) const { return Cur != O.Cur; }

  private:
    friend class BasicBlock;
    Instruction *Cur = nullptr;
    const BasicBlock *BB = nullptr;
  };
  /// Const iteration still yields mutable Instruction pointers, exactly as
  /// a const std::list<Instruction *> did.
  using const_iterator = iterator;

  BasicBlock(Function *Parent, unsigned Number, std::string Name)
      : Parent(Parent), Number(Number) {
    setName(std::move(Name));
  }
  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;

  Function *getParent() const { return Parent; }
  /// Dense per-function number, fixed at creation: the block's index in
  /// its function's creation order, below Function::numBlockNumbers().
  /// Erased blocks keep theirs, so the attached blocks' numbers may have
  /// holes. Analyses index their per-block tables by it.
  unsigned getNumber() const { return Number; }
  const std::string &getName() const { return *Name; }
  void setName(std::string N) { Name = &internedName(std::move(N)); }

  iterator begin() const { return iterator(IFirst, this); }
  iterator end() const { return iterator(nullptr, this); }
  bool empty() const { return NumInsts == 0; }
  size_t size() const { return NumInsts; }
  Instruction *front() const {
    assert(IFirst && "front() on empty block");
    return IFirst;
  }
  Instruction *back() const {
    assert(ILast && "back() on empty block");
    return ILast;
  }

  /// Inserts \p I before \p Pos. \p I must be detached.
  iterator insert(iterator Pos, Instruction *I);
  /// Appends \p I at the end of the block.
  void push_back(Instruction *I) { insert(end(), I); }
  /// Unlinks \p I from this block (does not destroy it).
  void remove(Instruction *I);

  /// The block terminator, or nullptr if the block is not yet terminated.
  Instruction *getTerminator() const {
    if (!ILast || !ILast->isTerminator())
      return nullptr;
    return ILast;
  }

  /// Successor blocks: a view of the terminator's block operands (empty
  /// when the block is unterminated), valid until the terminator changes.
  std::span<BasicBlock *const> successors() const;
  /// Predecessor blocks (maintained lazily by the parent Function).
  const ArenaVec<BasicBlock *> &predecessors() const;

  /// First non-phi position; phi nodes must be grouped at the block head.
  iterator firstNonPhi() const;

  /// All phi instructions at the head of the block.
  std::vector<Instruction *> phis() const;

private:
  friend class Function;
  friend struct ModuleCloner;

  Function *Parent;
  const std::string *Name;
  Instruction *IFirst = nullptr;
  Instruction *ILast = nullptr;
  uint32_t NumInsts = 0;
  uint32_t Number;
  BasicBlock *PrevB = nullptr; ///< Intrusive function block list links.
  BasicBlock *NextB = nullptr;
  mutable ArenaVec<BasicBlock *> Preds; // Cache; see Function::ensureCFG.
};

} // namespace wario

#endif // WARIO_IR_BASICBLOCK_H
