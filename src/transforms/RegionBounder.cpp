#include "transforms/RegionBounder.h"

#include "analysis/LoopInfo.h"
#include "ir/IRBuilder.h"
#include "transforms/Utils.h"

#include <unordered_set>

using namespace wario;

uint64_t wario::estimateCycles(const Instruction &I) {
  switch (I.getOpcode()) {
  case Opcode::Load:
  case Opcode::Store:
    return 2;
  case Opcode::UDiv:
  case Opcode::SDiv:
  case Opcode::URem:
  case Opcode::SRem:
    return 6;
  case Opcode::Br:
  case Opcode::Jmp:
  case Opcode::Ret:
  case Opcode::Call:
    return 3; // Branch plus pipeline refill.
  case Opcode::Checkpoint:
    return 40;
  case Opcode::Select:
  case Opcode::ICmp:
  case Opcode::Out:
    return 2;
  case Opcode::Phi:
    return 0; // Lowered to copies accounted at the branches.
  default:
    return 1;
  }
}

namespace {

/// Extra cycles a speculative undo-logged store spends over a plain
/// store (mirrors cycles::SpecLogStore in the emulator's cycle model).
constexpr uint64_t SpecLogCost = 4;

bool hasRegionCut(const Loop &L, const RegionBounderOptions &Opts) {
  for (BasicBlock *BB : L.blocks())
    for (Instruction *I : *BB) {
      if (I->getOpcode() == Opcode::Call)
        return true;
      if (I->getOpcode() != Opcode::Checkpoint)
        continue;
      // Under the rollback strategies no WAR checkpoints exist, so any
      // checkpoint seen here is a bounder-inserted *conditional* one —
      // it only fires when its own loop's counter fills, so it does not
      // statically cut an enclosing loop's accumulation. Idempotent
      // mode keeps the historical behavior (any checkpoint cuts).
      if (Opts.Strat == CheckpointStrategy::Idempotent)
        return true;
    }
  return false;
}

uint64_t bodyCycles(const Loop &L, const RegionBounderOptions &Opts) {
  uint64_t Sum = 0;
  for (BasicBlock *BB : L.blocks())
    for (Instruction *I : *BB) {
      Sum += estimateCycles(*I);
      if (Opts.Strat == CheckpointStrategy::Speculative &&
          I->getOpcode() == Opcode::Store && I->isSpecLogged())
        Sum += SpecLogCost;
    }
  return Sum;
}

/// Threads the register counter through loop \p L.
void boundOne(Function &F, Loop &L, uint64_t PerIter, uint64_t Budget) {
  Module *M = F.getParent();
  BasicBlock *H = L.getHeader();
  BasicBlock *LT = L.getLatch();
  assert(LT && "candidate loops have a unique latch");
  BasicBlock *Pre = ensurePreheader(L);

  // Dedicated back-edge block, then the conditional checkpoint diamond.
  BasicBlock *NB = splitEdge(LT, H);
  IRBuilder IRB(M);

  // The counter phi lives at the header; k' = k + PerIter in the latch.
  IRB.setInsertPoint(H->front());
  Instruction *K = IRB.createPhi("rb.k");

  IRB.setInsertPoint(LT->getTerminator());
  Instruction *K2 =
      IRB.createAdd(K, IRB.getInt(int32_t(PerIter)), "rb.k2");
  Instruction *Cmp = IRB.createICmp(CmpPred::UGE, K2,
                                    IRB.getInt(int32_t(Budget)), "rb.due");

  // NB: [jmp H]  =>  [br cmp, CkBB, H]; CkBB: [checkpoint; jmp H].
  BasicBlock *CkBB = F.createBlockAfter(NB, H->getName() + ".rb");
  Instruction *OldJmp = NB->getTerminator();
  assert(OldJmp && OldJmp->getOpcode() == Opcode::Jmp);
  F.eraseInstruction(OldJmp);
  IRB.setInsertPoint(NB);
  IRB.createBr(Cmp, CkBB, H);
  IRB.setInsertPoint(CkBB);
  IRB.createCheckpoint()->setCheckpointCause(CheckpointCause::MiddleEndWar);
  IRB.createJmp(H);

  // Header phis gain the CkBB predecessor, mirroring their NB value.
  for (Instruction *Phi : H->phis()) {
    if (Phi == K)
      continue;
    Value *V = Phi->getPhiIncomingFor(NB);
    IRBuilder::addPhiIncoming(Phi, V, CkBB);
  }
  // The counter: 0 on entry and after a checkpoint, k' otherwise.
  IRBuilder::addPhiIncoming(K, M->getConstant(0), Pre);
  IRBuilder::addPhiIncoming(K, K2, NB);
  IRBuilder::addPhiIncoming(K, M->getConstant(0), CkBB);
}

} // namespace

RegionBounderStats wario::boundRegions(Function &F,
                                       const RegionBounderOptions &Opts) {
  RegionBounderStats Stats;
  if (F.isDeclaration())
    return Stats;
  std::unordered_set<BasicBlock *> Done;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    DominatorTree DT(F);
    LoopInfo LI(F, DT);
    for (Loop *L : LI.loops()) {
      if (Done.count(L->getHeader()))
        continue;
      // Idempotent mode bounds only innermost loops (the historical
      // Section 6 extension — outer accumulation is cut by WAR
      // checkpoints anyway). The rollback strategies have no WAR
      // checkpoints, so a cut-free *nest* accumulates across its short
      // inner loops while every per-loop counter resets; bounding the
      // outer loops too (per-iteration estimate counts each subloop
      // body once) is their forward-progress guarantee.
      if (Opts.Strat == CheckpointStrategy::Idempotent &&
          !L->getSubLoops().empty())
        continue;
      if (!L->getLatch())
        continue;
      if (hasRegionCut(*L, Opts))
        continue;
      Done.insert(L->getHeader());
      // The IR-level estimate undercounts the final machine code
      // (instruction selection, spills, phi copies roughly triple it);
      // scale so the budget is honored in emulated cycles.
      constexpr uint64_t BackendExpansionFactor = 3;
      uint64_t PerIter = std::max<uint64_t>(
          1, bodyCycles(*L, Opts) * BackendExpansionFactor);
      if (PerIter >= Opts.MaxRegionCycles)
        continue; // One iteration already busts the budget; a register
                  // checkpoint cannot help a body this large.
      boundOne(F, *L, PerIter, Opts.MaxRegionCycles);
      ++Stats.LoopsBounded;
      Progress = true; // CFG changed; recompute analyses.
      break;
    }
  }
  return Stats;
}
