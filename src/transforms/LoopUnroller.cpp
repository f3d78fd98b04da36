#include "transforms/LoopUnroller.h"

#include "ir/Cloning.h"
#include "transforms/SSAUpdater.h"
#include "transforms/Utils.h"

#include <algorithm>
#include <unordered_set>

using namespace wario;

/// Within one iteration all defs precede their uses in this order, which
/// the unroller's cloning loop relies on.
std::vector<BasicBlock *> wario::loopBodyRPO(Loop &L) {
  BasicBlock *H = L.getHeader();
  std::vector<BasicBlock *> PostOrder;
  std::unordered_set<const BasicBlock *> Visited;
  // Iterative DFS with an explicit stack of (block, next-successor).
  std::vector<std::pair<BasicBlock *, unsigned>> Stack;
  Stack.emplace_back(H, 0);
  Visited.insert(H);
  while (!Stack.empty()) {
    auto &[BB, NextIdx] = Stack.back();
    auto Succs = BB->successors();
    if (NextIdx >= Succs.size()) {
      PostOrder.push_back(BB);
      Stack.pop_back();
      continue;
    }
    BasicBlock *S = Succs[NextIdx++];
    if (S == H || !L.contains(S) || Visited.count(S))
      continue;
    Visited.insert(S);
    Stack.emplace_back(S, 0);
  }
  return {PostOrder.rbegin(), PostOrder.rend()};
}

UnrollResult wario::unrollLoop(Loop &L, unsigned N) {
  UnrollResult R;
  assert(N >= 2 && "unroll factor must be at least 2");
  if (!L.getSubLoops().empty())
    return R; // Only innermost loops.
  BasicBlock *LT = L.getLatch();
  if (!LT)
    return R; // Requires a unique latch.
  BasicBlock *H = L.getHeader();
  Function &F = *H->getParent();
  Module *M = F.getParent();

  ensurePreheader(L);
  ensureDedicatedExits(L);

  std::vector<BasicBlock *> Body = loopBodyRPO(L);
  assert(Body.size() == L.blocks().size() &&
         "irreducible control flow inside a natural loop body");
  R.Iterations.push_back(Body);

  // The value each header phi carries around the back edge.
  std::vector<Instruction *> HeaderPhis = H->phis();
  std::unordered_map<const Instruction *, Value *> LatchIncoming;
  for (Instruction *Phi : HeaderPhis)
    LatchIncoming[Phi] = Phi->getPhiIncomingFor(LT);

  // Maps[K] remaps original loop values to replica K's clones (Maps[0] is
  // the identity).
  std::vector<ValueMapper> Maps(1);
  std::vector<BasicBlock *> Latches{LT};
  std::vector<BasicBlock *> Headers{H};
  BasicBlock *InsertAfter = Body.back();

  for (unsigned K = 1; K != N; ++K) {
    ValueMapper &Prev = Maps.back();
    std::string Suffix = ".it" + std::to_string(K);
    std::unordered_map<const BasicBlock *, BasicBlock *> CloneBB;
    for (BasicBlock *BB : Body) {
      BasicBlock *NB = F.createBlockAfter(InsertAfter, BB->getName() + Suffix);
      CloneBB[BB] = NB;
      InsertAfter = NB;
    }

    ValueMapper Cur;
    // Header phis are not cloned: within replica K they denote the value
    // flowing out of replica K-1's latch.
    for (Instruction *Phi : HeaderPhis)
      Cur.map(Phi, Prev.lookup(LatchIncoming[Phi]));

    for (BasicBlock *BB : Body) {
      BasicBlock *NB = CloneBB[BB];
      for (Instruction *I : *BB) {
        if (BB == H && I->getOpcode() == Opcode::Phi)
          continue;
        Instruction *NI = cloneInstruction(I, F, Cur);
        Cur.map(I, NI);
        NB->push_back(NI);

        if (NI->getOpcode() == Opcode::Phi) {
          // Incoming blocks are in-loop predecessors; remap all of them.
          for (unsigned J = 0, E = NI->getNumBlockOperands(); J != E; ++J) {
            BasicBlock *In = NI->getBlockOperand(J);
            assert(L.contains(In) && "phi in body with out-of-loop pred");
            NI->setBlockOperand(J, CloneBB[In]);
          }
          continue;
        }
        if (NI->isTerminator()) {
          for (unsigned J = 0, E = NI->getNumBlockOperands(); J != E; ++J) {
            BasicBlock *T = NI->getBlockOperand(J);
            if (T == H)
              continue; // Back edge; redirected below.
            if (L.contains(T)) {
              NI->setBlockOperand(J, CloneBB[T]);
              continue;
            }
            // Exit edge: the (dedicated) exit block gains this replica's
            // exiting block as a predecessor; extend its phis.
            for (Instruction *XPhi : T->phis()) {
              Value *OV = XPhi->getPhiIncomingFor(BB);
              IRBuilder::addPhiIncoming(XPhi, Cur.lookup(OV), NB);
            }
          }
        }
      }
    }

    Latches.push_back(CloneBB[LT]);
    Headers.push_back(CloneBB[H]);
    std::vector<BasicBlock *> IterBlocks;
    for (BasicBlock *BB : Body)
      IterBlocks.push_back(CloneBB[BB]);
    R.Iterations.push_back(std::move(IterBlocks));
    Maps.push_back(std::move(Cur));
  }

  // Chain the replicas: latch K's back-edge target becomes replica K+1's
  // header; only the last replica's latch branches back to the original
  // header. Deferred until after cloning because replicas are cloned from
  // the *original* blocks, whose terminators must stay untouched.
  for (unsigned K = 0; K + 1 < Latches.size(); ++K) {
    Instruction *Term = Latches[K]->getTerminator();
    for (unsigned J = 0, E = Term->getNumBlockOperands(); J != E; ++J)
      if (Term->getBlockOperand(J) == H)
        Term->setBlockOperand(J, Headers[K + 1]);
  }

  // The real back edge now leaves the last replica's latch.
  for (Instruction *Phi : HeaderPhis) {
    for (unsigned J = 0, E = Phi->getNumBlockOperands(); J != E; ++J) {
      if (Phi->getBlockOperand(J) == LT) {
        Phi->setBlockOperand(J, Latches.back());
        Phi->setOperand(J, Maps.back().lookup(LatchIncoming[Phi]));
      }
    }
  }

  // SSA reconstruction for uses of loop-defined values outside the loop.
  std::unordered_set<const BasicBlock *> Inside;
  for (const auto &Iter : R.Iterations)
    for (BasicBlock *BB : Iter)
      Inside.insert(BB);

  for (BasicBlock *BB : Body) {
    for (Instruction *D : *BB) {
      if (!D->producesValue())
        continue;
      std::vector<Instruction *> Outside;
      for (Instruction *U : D->users())
        if (!Inside.count(U->getParent()))
          Outside.push_back(U);
      if (Outside.empty())
        continue;

      SSAUpdater Updater(F, D->getName() + ".out", M->getConstant(0));
      Updater.addAvailableValue(BB, D);
      // Each replica provides its own definition of the value. Header
      // phis are special: their replica-K "clone" is a value living in an
      // earlier block, so register it against the replica header instead.
      unsigned BI = unsigned(std::find(Body.begin(), Body.end(), BB) -
                             Body.begin());
      for (unsigned K = 1; K < R.Iterations.size(); ++K) {
        Value *CV = Maps[K].lookup(D);
        BasicBlock *CB = R.Iterations[K][BI];
        if (auto *CI = dyn_cast<Instruction>(CV);
            CI && CI->getParent() == CB)
          Updater.addAvailableValue(CB, CI);
        else
          Updater.addAvailableValue(R.Iterations[K].front(), CV);
      }

      for (Instruction *U : Outside) {
        for (unsigned J = 0, E = U->getNumOperands(); J != E; ++J) {
          if (U->getOperand(J) != D)
            continue;
          if (U->getOpcode() == Opcode::Phi) {
            BasicBlock *In = U->getBlockOperand(J);
            if (Inside.count(In))
              continue; // Set correctly during cloning.
            U->setOperand(J, Updater.getValueAtExit(In));
          } else {
            U->setOperand(J, Updater.getValueAtEntry(U->getParent()));
          }
        }
      }
      Updater.simplifyInsertedPhis();
    }
  }

  R.Unrolled = true;
  return R;
}

unsigned wario::unrollStandardLoops(Function &F, unsigned Factor,
                                    unsigned MaxBodyInsts) {
  if (F.isDeclaration() || Factor < 2)
    return 0;
  unsigned Unrolled = 0;
  std::unordered_set<BasicBlock *> DoneHeaders;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    DominatorTree DT(F);
    LoopInfo LI(F, DT);
    for (Loop *L : LI.loops()) {
      if (DoneHeaders.count(L->getHeader()))
        continue;
      if (!L->getSubLoops().empty() || !L->getLatch())
        continue;
      unsigned BodySize = 0;
      bool HasSideEffects = false;
      for (BasicBlock *BB : L->blocks()) {
        BodySize += unsigned(BB->size());
        for (Instruction *I : *BB)
          if (I->getOpcode() == Opcode::Call ||
              I->getOpcode() == Opcode::Out ||
              I->getOpcode() == Opcode::Checkpoint)
            HasSideEffects = true;
      }
      if (HasSideEffects || BodySize > MaxBodyInsts)
        continue;
      DoneHeaders.insert(L->getHeader());
      UnrollResult UR = unrollLoop(*L, Factor);
      if (UR.Unrolled)
        ++Unrolled;
      Progress = true; // CFG changed (even on failure paths); recompute.
      break;
    }
  }
  return Unrolled;
}
