#include "transforms/LoopWriteClusterer.h"

#include "analysis/WarDependence.h"
#include "ir/IRBuilder.h"
#include "ir/Cloning.h"
#include "transforms/LoopUnroller.h"
#include "transforms/Utils.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace wario;

namespace {

/// Analysis bundle recomputed between loop transformations (each
/// transformation rewrites the CFG). WARs are computed per examined loop,
/// over the one reachability shared by all of this rebuild's queries.
struct Analyses {
  const Function &F;
  const AliasAnalysis &AA;
  DominatorTree DT;
  DominatorTree PDT;
  LoopInfo LI;
  CFGReachability Reach;

  Analyses(Function &F, const AliasAnalysis &AA)
      : F(F), AA(AA), DT(F), PDT(F, /*Post=*/true), LI(F, DT),
        Reach(F, LI) {}

  /// The WARs with both accesses inside \p L.
  std::vector<MemDep> warsIn(const Loop &L) const {
    return findWars(F, AA, LI, Reach, &L);
  }
};

/// Paper Algorithm 1, IsCandidate: innermost, unique latch, call-free
/// body, at least one WAR whose write the latch post-dominates — and the
/// latch must post-dominate *every* WAR write, or the loop is rejected.
bool isCandidate(Loop &L, const Analyses &A) {
  if (!L.getSubLoops().empty())
    return false;
  BasicBlock *Latch = L.getLatch();
  if (!Latch)
    return false;
  for (BasicBlock *BB : L.blocks())
    for (Instruction *I : *BB) {
      switch (I->getOpcode()) {
      case Opcode::Call:
      case Opcode::Out:
      case Opcode::Checkpoint:
        return false; // Forced checkpoints / side effects in the body.
      default:
        break;
      }
    }
  std::vector<MemDep> Wars = A.warsIn(L);
  if (Wars.empty())
    return false;
  for (const MemDep &D : Wars)
    if (!A.PDT.dominates(Latch, D.Dst->getParent()))
      return false;
  return true;
}

class LoopTransformer {
public:
  LoopTransformer(Function &F, const AliasAnalysis &AA,
                  LoopWriteClustererStats &Stats)
      : F(F), M(F.getParent()), AA(AA), Stats(Stats) {}

  /// Transforms the (already unrolled) loop with header \p Header.
  /// Returns false if no store could be postponed.
  bool run(const UnrollResult &UR) {
    Body = UR.allBlocks();
    BodySet.insert(Body.begin(), Body.end());
    for (BasicBlock *BB : Body)
      for (Instruction *I : *BB)
        Order.emplace(I, unsigned(Order.size()));

    Analyses A(F, AA);
    Loop *L = A.LI.getLoopFor(Body.front());
    assert(L && L->getHeader() == Body.front() &&
           "unrolled loop lost its header");
    BasicBlock *Latch = L->getLatch();
    assert(Latch && "unrolled loop lost its unique latch");
    Instruction *LatchTerm = Latch->getTerminator();

    // Collect the unrolled loop's WAR writes and dependent reads.
    std::vector<Instruction *> Postponed;
    std::unordered_set<Instruction *> PostponedSet;
    for (const MemDep &D : A.warsIn(*L)) {
      Instruction *W = D.Dst;
      if (!BodySet.count(W->getParent()) || PostponedSet.count(W))
        continue;
      Postponed.push_back(W);
      PostponedSet.insert(W);
    }
    if (Postponed.empty())
      return false;

    // Exit edges of the unrolled loop.
    std::vector<std::pair<BasicBlock *, BasicBlock *>> Exits =
        L->getExitEdges();

    // Iteratively drop stores whose postponement cannot be compensated.
    dropUnsupportedStores(A, LatchTerm, Exits, Postponed, PostponedSet);
    if (Postponed.empty())
      return false;

    std::sort(Postponed.begin(), Postponed.end(),
              [&](Instruction *X, Instruction *Y) {
                return Order.at(X) < Order.at(Y);
              });

    // Dependent reads must be instrumented before the stores move (the
    // checks are inserted at the read, using the store's operands).
    instrumentReads(A, Postponed);

    // Early exits get compensating copies of every postponed store that
    // dominates them.
    addExitCopies(A, Exits, Postponed);

    // Finally postpone: move the stores, in original order, to the latch.
    for (Instruction *W : Postponed) {
      W->moveBeforeTerminator(Latch);
      ++Stats.StoresPostponed;
    }

    // Place the cluster checkpoint (Figure 3, final form): one checkpoint
    // immediately before the first clustered store resolves the WARs of
    // all N merged iterations. Inserting it here also marks the loop as
    // transformed for later passes (a checkpoint in the body disqualifies
    // it from further unrolling or clustering).
    IRBuilder IRB(M);
    IRB.setInsertPoint(Postponed.front());
    IRB.createCheckpoint()->setCheckpointCause(
        CheckpointCause::MiddleEndWar);
    return true;
  }

private:
  /// A store S must not be overtaken by an aliasing stationary store, must
  /// dominate or be disjoint from every exit it "precedes", and every
  /// dependent read must be dominated by it (so the runtime check is
  /// meaningful). Violations remove S from the postponed set; removal can
  /// create new stationary stores, so iterate to a fixed point.
  void dropUnsupportedStores(
      Analyses &A, Instruction *LatchTerm,
      const std::vector<std::pair<BasicBlock *, BasicBlock *>> &Exits,
      std::vector<Instruction *> &Postponed,
      std::unordered_set<Instruction *> &PostponedSet) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (auto It = Postponed.begin(); It != Postponed.end();) {
        Instruction *W = *It;
        bool Drop = false;

        // (a0) W must dominate the latch: postponing may only move a
        // store that executes on *every* latch-reaching iteration, or a
        // conditional store would become unconditional. (The paper's
        // IsCandidate phrases this as the latch post-dominating the
        // write, which a rejoining branch arm also satisfies — dominance
        // is the sound direction.)
        if (!A.DT.dominates(W, LatchTerm))
          Drop = true;

        // (a) Operands must be available at the latch insertion point.
        for (unsigned J = 0; J != W->getNumOperands() && !Drop; ++J)
          if (auto *Def = dyn_cast<Instruction>(W->getOperand(J)))
            if (!A.DT.dominates(Def, LatchTerm))
              Drop = true;

        // (b) No stationary aliasing store W could overtake when sinking
        // (order on some forward path would flip).
        for (BasicBlock *BB : Body) {
          if (Drop)
            break;
          for (Instruction *S : *BB) {
            if (S->getOpcode() != Opcode::Store || PostponedSet.count(S) ||
                S == W)
              continue;
            if (onForwardPath(A, W, S) &&
                AA.alias(S, W) != AliasResult::NoAlias)
              Drop = true;
          }
        }

        // (c) Exits W forward-reaches must be dominated by W, or the
        // compensating copy cannot be placed.
        for (auto &[E, X] : Exits) {
          (void)X;
          if (Drop)
            break;
          Instruction *ETerm = E->getTerminator();
          if (A.DT.dominates(W, ETerm))
            continue; // Copy is well-defined.
          if (W->getParent() == E ||
              A.Reach.forwardReaches(W->getParent(), E))
            Drop = true; // Reachable but conditional: cannot compensate.
        }

        // (d) Dependent reads must be dominated by W, or the runtime
        // check would consult a store that never "executed".
        if (!Drop) {
          for (BasicBlock *BB : Body) {
            if (Drop)
              break;
            for (Instruction *R : *BB) {
              if (R->getOpcode() != Opcode::Load)
                continue;
              if (AA.alias(R, W) == AliasResult::NoAlias)
                continue;
              if (!onForwardPath(A, W, R) || A.DT.dominates(W, R))
                continue;
              Drop = true;
              break;
            }
          }
        }

        if (Drop) {
          PostponedSet.erase(W);
          It = Postponed.erase(It);
          Changed = true;
        } else {
          ++It;
        }
      }

      // (e) Break-even guard (paper Section 3.1.2): a read needing more
      // than a few compare+select pairs costs more than the checkpoint it
      // saves. Un-postpone the stores feeding such reads. Must-alias
      // forwarding is free and exempt.
      if (!Changed) {
        for (BasicBlock *BB : Body) {
          for (Instruction *R : *BB) {
            if (R->getOpcode() != Opcode::Load)
              continue;
            bool PureForward = false;
            std::vector<Instruction *> Deps =
                depsForRead(A, R, Postponed, PureForward);
            if (PureForward || Deps.size() <= MaxChecksPerRead)
              continue;
            for (Instruction *W : Deps) {
              PostponedSet.erase(W);
              Postponed.erase(
                  std::find(Postponed.begin(), Postponed.end(), W));
            }
            Changed = true;
            break;
          }
          if (Changed)
            break;
        }
      }
    }
  }

  static constexpr unsigned MaxChecksPerRead = 4;

  /// True if execution can flow from \p W to \p R without taking the
  /// unrolled loop's back edge.
  bool onForwardPath(Analyses &A, Instruction *W, Instruction *R) {
    if (W->getParent() == R->getParent())
      return Order.at(W) < Order.at(R);
    return A.Reach.forwardReaches(W->getParent(), R->getParent());
  }

  /// Postponed stores the read \p R may depend on, in original program
  /// order. When the latest one must-alias R (so its value statically
  /// shadows all earlier ones), only that store is returned with
  /// \p PureForward set: the read forwards with no runtime check.
  std::vector<Instruction *>
  depsForRead(Analyses &A, Instruction *R,
              const std::vector<Instruction *> &Postponed,
              bool &PureForward) {
    std::vector<Instruction *> Deps;
    for (Instruction *W : Postponed) {
      if (AA.alias(R, W) == AliasResult::NoAlias)
        continue;
      if (!onForwardPath(A, W, R))
        continue; // Carried around the back edge: cluster runs first.
      Deps.push_back(W);
    }
    std::sort(Deps.begin(), Deps.end(), [&](Instruction *X, Instruction *Y) {
      return Order.at(X) < Order.at(Y);
    });
    PureForward = false;
    if (!Deps.empty() && AA.alias(R, Deps.back()) == AliasResult::MustAlias &&
        A.DT.dominates(Deps.back(), R)) {
      // Store-to-load forwarding: the latest store writes exactly this
      // location on every path, shadowing all earlier aliasing stores.
      PureForward = true;
      Deps = {Deps.back()};
    }
    return Deps;
  }

  /// Paper Algorithm 1, InstrumentReads: after each dependent read, chain
  /// `cmp = (raddr == waddr); sel = cmp ? wval : prev` per aliasing
  /// postponed store (in store order, so the latest store wins), then
  /// rewire the read's users to the final select.
  void instrumentReads(Analyses &A,
                       const std::vector<Instruction *> &Postponed) {
    IRBuilder IRB(M);
    for (BasicBlock *BB : Body) {
      // Snapshot: instrumentation inserts instructions into the block.
      std::vector<Instruction *> Loads;
      for (Instruction *I : *BB)
        if (I->getOpcode() == Opcode::Load)
          Loads.push_back(I);
      for (Instruction *R : Loads) {
        bool PureForward = false;
        std::vector<Instruction *> Deps =
            depsForRead(A, R, Postponed, PureForward);
        if (Deps.empty())
          continue;
        for ([[maybe_unused]] Instruction *W : Deps)
          assert(A.DT.dominates(W, R) &&
                 "unsupported store left in postponed set");

        Value *Final = R;
        std::vector<Instruction *> Chain;
        if (PureForward) {
          // The latest store must-aliases the read on every path: the
          // read's value is simply the stored register (the now-dead
          // load is cleaned up by DCE).
          Final = Deps.back()->getStoredValue();
        } else {
          // Insert the chain right after the load (a load is never a
          // block terminator, so a next instruction always exists).
          auto Pos = std::find(R->getParent()->begin(),
                               R->getParent()->end(), R);
          ++Pos;
          assert(Pos != R->getParent()->end() &&
                 "load terminates a block?");
          for (Instruction *W : Deps) {
            IRB.setInsertPoint(*Pos);
            Instruction *Cmp =
                IRB.createICmp(CmpPred::EQ, R->getAddressOperand(),
                               W->getAddressOperand(), "wchk");
            Instruction *Sel =
                IRB.createSelect(Cmp, W->getStoredValue(), Final, "wfwd");
            Chain.push_back(Cmp);
            Chain.push_back(Sel);
            Final = Sel;
            ++Stats.RuntimeChecks;
          }
        }

        // Rewire users of R (outside the chain) to the final value.
        std::vector<Instruction *> Users(R->users().begin(),
                                         R->users().end());
        std::unordered_set<Instruction *> ChainSet(Chain.begin(),
                                                   Chain.end());
        for (Instruction *U : Users) {
          if (ChainSet.count(U))
            continue;
          for (unsigned J = 0, E = U->getNumOperands(); J != E; ++J)
            if (U->getOperand(J) == R)
              U->setOperand(J, Final);
        }
      }
    }
  }

  /// Paper Algorithm 1, ModifyExits: each exit edge gets a fresh block
  /// carrying copies (in original order) of every postponed store that
  /// dominates the exiting branch.
  void addExitCopies(
      Analyses &A,
      const std::vector<std::pair<BasicBlock *, BasicBlock *>> &Exits,
      const std::vector<Instruction *> &Postponed) {
    ValueMapper Identity;
    for (auto &[E, X] : Exits) {
      Instruction *ETerm = E->getTerminator();
      std::vector<Instruction *> Needed;
      for (Instruction *W : Postponed)
        if (A.DT.dominates(W, ETerm))
          Needed.push_back(W);
      if (Needed.empty())
        continue;
      BasicBlock *NB = splitEdge(E, X);
      Instruction *NTerm = NB->getTerminator();
      // As in Figure 3's final form, each early exit carries its own
      // checkpoint ahead of the compensating stores.
      IRBuilder IRB(M);
      IRB.setInsertPoint(NTerm);
      IRB.createCheckpoint()->setCheckpointCause(
          CheckpointCause::MiddleEndWar);
      for (Instruction *W : Needed) {
        Instruction *Copy = cloneInstruction(W, F, Identity);
        Copy->moveBefore(NTerm);
        ++Stats.ExitCopies;
      }
    }
  }

  Function &F;
  Module *M;
  const AliasAnalysis &AA;
  LoopWriteClustererStats &Stats;
  std::vector<BasicBlock *> Body;
  std::unordered_set<const BasicBlock *> BodySet;
  /// Per-instruction position in the unrolled body, iteration-major;
  /// used as "original program order" after unrolling.
  std::unordered_map<const Instruction *, unsigned> Order;
};

} // namespace

LoopWriteClustererStats
wario::runLoopWriteClusterer(Function &F,
                             const LoopWriteClustererOptions &Opts) {
  LoopWriteClustererStats Stats;
  if (F.isDeclaration() || Opts.UnrollFactor < 1)
    return Stats;
  AliasAnalysis AA(Opts.Precision);
  std::unordered_set<BasicBlock *> DoneHeaders;

  bool Progress = true;
  while (Progress) {
    Progress = false;
    Analyses A(F, AA);
    for (Loop *L : A.LI.loops()) {
      if (DoneHeaders.count(L->getHeader()))
        continue;
      if (!isCandidate(*L, A))
        continue;
      DoneHeaders.insert(L->getHeader());

      if (Opts.UnrollFactor < 2) {
        // N=1: clustering without unrolling (the Figure 6 baseline).
        UnrollResult UR;
        UR.Unrolled = true;
        UR.Iterations.push_back(loopBodyRPO(*L));
        LoopTransformer T(F, AA, Stats);
        if (T.run(UR))
          ++Stats.LoopsTransformed;
        Progress = true;
        break; // CFG changed; recompute analyses.
      }

      UnrollResult UR = unrollLoop(*L, Opts.UnrollFactor);
      if (!UR.Unrolled) {
        Progress = true; // unrollLoop may still have changed the CFG
        break;           // (preheader/exit splitting); recompute.
      }
      LoopTransformer T(F, AA, Stats);
      if (T.run(UR))
        ++Stats.LoopsTransformed;
      Progress = true;
      break;
    }
  }
  return Stats;
}

LoopWriteClustererStats
wario::runLoopWriteClusterer(Module &M,
                             const LoopWriteClustererOptions &Opts) {
  LoopWriteClustererStats Total;
  for (auto &F : M.functions()) {
    LoopWriteClustererStats S = runLoopWriteClusterer(*F, Opts);
    Total.LoopsTransformed += S.LoopsTransformed;
    Total.StoresPostponed += S.StoresPostponed;
    Total.ExitCopies += S.ExitCopies;
    Total.RuntimeChecks += S.RuntimeChecks;
  }
  return Total;
}
