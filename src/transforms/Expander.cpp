#include "transforms/Expander.h"

#include "analysis/LoopInfo.h"
#include "transforms/Inliner.h"

#include <unordered_set>

using namespace wario;

namespace {

/// Callee size cap (instructions). The paper notes the Expander's
/// heuristic is profile-free and can occasionally inline unprofitably;
/// the cap keeps worst-case code growth bounded.
constexpr unsigned MaxCalleeSize = 600;

/// Heuristic from Section 4.3: a function "contains pointers" when one of
/// its arguments flows (directly or through address arithmetic) into the
/// address of a load or store.
bool usesArgumentAsPointer(const Function &F) {
  if (F.isDeclaration())
    return false;
  std::vector<const Value *> Work;
  std::unordered_set<const Value *> Seen;
  for (unsigned I = 0, E = F.getNumParams(); I != E; ++I) {
    Work.push_back(F.getArg(I));
    Seen.insert(F.getArg(I));
  }
  while (!Work.empty()) {
    const Value *V = Work.back();
    Work.pop_back();
    for (const Instruction *U : V->users()) {
      if (U->isMemoryAccess() && U->getAddressOperand() == V)
        return true;
      if (U->getOpcode() == Opcode::Gep || U->getOpcode() == Opcode::Add ||
          U->getOpcode() == Opcode::Phi || U->getOpcode() == Opcode::Select)
        if (Seen.insert(U).second)
          Work.push_back(U);
    }
  }
  return false;
}

} // namespace

ExpanderStats wario::runExpander(Module &M) {
  ExpanderStats Stats;

  // Phase 1: candidate list.
  std::unordered_set<const Function *> Candidates;
  for (const auto &F : M.functions())
    if (usesArgumentAsPointer(*F)) {
      Candidates.insert(F);
      ++Stats.CandidateFunctions;
    }
  if (Candidates.empty())
    return Stats;

  // Phase 2: expand candidate calls inside innermost loops. Inlining
  // mutates the CFG, so re-derive analyses after each expansion.
  for (auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    bool Progress = true;
    while (Progress) {
      Progress = false;
      DominatorTree DT(*F);
      LoopInfo LI(*F, DT);
      for (BasicBlock *BB : *F) {
        Loop *L = LI.getLoopFor(BB);
        if (!L || !L->getSubLoops().empty())
          continue; // Only calls in innermost loops.
        for (Instruction *I : *BB) {
          if (I->getOpcode() != Opcode::Call)
            continue;
          Function *Callee = I->getCallee();
          if (!Candidates.count(Callee) || Callee == F ||
              Callee->countInstructions() > MaxCalleeSize)
            continue;
          if (inlineCall(I)) {
            ++Stats.CallsInlined;
            Progress = true;
            break;
          }
        }
        if (Progress)
          break;
      }
    }
  }
  return Stats;
}
