#include "transforms/LoopWriteClusterer.h"

#include "analysis/WarDependence.h"
#include "ir/IRBuilder.h"
#include "ir/Cloning.h"
#include "transforms/LoopUnroller.h"
#include "transforms/Utils.h"

#include <algorithm>
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
  LoopInfo LI;
  CFGReachability Reach;

  Analyses(Function &F, const AliasAnalysis &AA)
      : F(F), AA(AA), DT(F), LI(F, DT), Reach(F, LI) {}

  /// The WARs with both accesses inside \p L.
  std::vector<MemDep> warsIn(const Loop &L) const {
    return findWars(F, AA, LI, Reach, &L);
  }
};

/// Paper Algorithm 1, IsCandidate: innermost, unique latch, call-free
/// body, at least one WAR whose write the latch post-dominates — and the
/// latch must post-dominate *every* WAR write, or the loop is rejected.
bool isCandidate(Loop &L, const Analyses &A, const DominatorTree &PDT) {
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
    if (!PDT.dominates(Latch, D.Dst->getParent()))
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
    std::vector<BasicBlock *> Body = UR.allBlocks();
    Order.assign(F.nextInstId(), NotInBody);
    IsPostponed.assign(F.nextInstId(), false);
    unsigned Pos = 0;
    for (BasicBlock *BB : Body)
      for (Instruction *I : *BB) {
        Order[I->getId()] = Pos++;
        if (I->getOpcode() == Opcode::Load)
          Reads.push_back({I, {}});
        else if (I->getOpcode() == Opcode::Store)
          Stores.push_back(I);
      }

    Analyses A(F, AA);
    Loop *L = A.LI.getLoopFor(Body.front());
    assert(L && L->getHeader() == Body.front() &&
           "unrolled loop lost its header");
    BasicBlock *Latch = L->getLatch();
    assert(Latch && "unrolled loop lost its unique latch");
    Instruction *LatchTerm = Latch->getTerminator();

    // Collect the unrolled loop's WAR writes, in original order.
    std::vector<Instruction *> Postponed;
    for (const MemDep &D : A.warsIn(*L)) {
      Instruction *W = D.Dst;
      if (Order[W->getId()] == NotInBody || IsPostponed[W->getId()])
        continue;
      Postponed.push_back(W);
      IsPostponed[W->getId()] = true;
    }
    if (Postponed.empty())
      return false;
    std::sort(Postponed.begin(), Postponed.end(),
              [&](Instruction *X, Instruction *Y) {
                return Order[X->getId()] < Order[Y->getId()];
              });

    // Exit edges of the unrolled loop.
    std::vector<std::pair<BasicBlock *, BasicBlock *>> Exits =
        L->getExitEdges();

    // Drop stores whose postponement cannot be compensated.
    dropUnsupportedStores(A, LatchTerm, Exits, Postponed);
    std::erase_if(Postponed,
                  [&](Instruction *W) { return !IsPostponed[W->getId()]; });
    if (Postponed.empty())
      return false;

    // Dependent reads must be instrumented before the stores move (the
    // checks are inserted at the read, using the store's operands).
    instrumentReads();

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
  /// A postponed store a body load may depend on: the store can reach the
  /// load without the back edge, and the two may alias.
  struct Dep {
    Instruction *W;
    AliasResult Alias;
    bool Dominates; ///< W dominates the load.
  };
  /// A body load and its candidate dependences in original order.
  struct Read {
    Instruction *R;
    std::vector<Dep> Deps;
  };

  /// A store S must not be overtaken by an aliasing stationary store, must
  /// dominate or be disjoint from every exit it "precedes", and every
  /// dependent read must be dominated by it (so the runtime check is
  /// meaningful). Violations clear S from IsPostponed. Checks (a0), (a),
  /// (c) and (d) depend on S alone and run once; (b) depends on the
  /// stationary stores, so each store, when it becomes stationary, drops
  /// the postponed stores it would be overtaken by. Both only drop more as
  /// the stationary set grows, so the set they leave is the unique one
  /// that no check rejects, whatever the order of the drops.
  void dropUnsupportedStores(
      Analyses &A, Instruction *LatchTerm,
      const std::vector<std::pair<BasicBlock *, BasicBlock *>> &Exits,
      const std::vector<Instruction *> &Postponed) {
    std::vector<Instruction *> Stationary;
    auto Drop = [&](Instruction *W) {
      IsPostponed[W->getId()] = false;
      Stationary.push_back(W);
    };
    for (Instruction *S : Stores)
      if (!IsPostponed[S->getId()])
        Stationary.push_back(S);

    for (Instruction *W : Postponed) {
      // (a0) W must dominate the latch: postponing may only move a store
      // that executes on *every* latch-reaching iteration, or a
      // conditional store would become unconditional. (The paper's
      // IsCandidate phrases this as the latch post-dominating the write,
      // which a rejoining branch arm also satisfies — dominance is the
      // sound direction.)
      bool Unsupported = !A.DT.dominates(W, LatchTerm);

      // (a) Operands must be available at the latch insertion point.
      for (unsigned J = 0; J != W->getNumOperands() && !Unsupported; ++J)
        if (auto *Def = dyn_cast<Instruction>(W->getOperand(J)))
          Unsupported = !A.DT.dominates(Def, LatchTerm);

      // (c) Exits W forward-reaches must be dominated by W, or the
      // compensating copy cannot be placed.
      for (auto &[E, X] : Exits) {
        (void)X;
        if (Unsupported)
          break;
        Instruction *ETerm = E->getTerminator();
        if (A.DT.dominates(W, ETerm))
          continue; // Copy is well-defined.
        // Reachable but conditional: cannot compensate.
        Unsupported = W->getParent() == E ||
                      A.Reach.forwardReaches(W->getParent(), E);
      }
      if (Unsupported)
        Drop(W);
    }

    // The candidate dependences of every body load, in program order;
    // the break-even guard and instrumentReads read them too.
    for (Read &Rd : Reads)
      for (Instruction *W : Postponed) {
        if (!IsPostponed[W->getId()] || !onForwardPath(A, W, Rd.R))
          continue; // Carried around the back edge: cluster runs first.
        AliasResult AR = AA.alias(Rd.R, W);
        if (AR == AliasResult::NoAlias)
          continue;
        // In one block, onForwardPath means W comes first.
        bool Dom = W->getParent() == Rd.R->getParent() ||
                   A.DT.dominates(W->getParent(), Rd.R->getParent());
        Rd.Deps.push_back({W, AR, Dom});
      }

    // (d) Dependent reads must be dominated by W, or the runtime check
    // would consult a store that never "executed".
    for (const Read &Rd : Reads)
      for (const Dep &D : Rd.Deps)
        if (!D.Dominates && IsPostponed[D.W->getId()])
          Drop(D.W);

    for (;;) {
      // (b) No stationary aliasing store W could overtake when sinking
      // (order on some forward path would flip).
      while (!Stationary.empty()) {
        Instruction *S = Stationary.back();
        Stationary.pop_back();
        for (Instruction *W : Postponed)
          if (IsPostponed[W->getId()] && onForwardPath(A, W, S) &&
              AA.alias(S, W) != AliasResult::NoAlias)
            Drop(W);
      }

      // (e) Break-even guard (paper Section 3.1.2): a read needing more
      // than a few compare+select pairs costs more than the checkpoint it
      // saves. Un-postpone the stores feeding the first such read, then
      // recheck (b). Must-alias forwarding is free and exempt (it returns
      // one dependence).
      std::vector<Instruction *> Deps;
      for (const Read &Rd : Reads) {
        bool PureForward;
        Deps = depsForRead(Rd, PureForward);
        if (Deps.size() > MaxChecksPerRead)
          break;
        Deps.clear();
      }
      if (Deps.empty())
        return;
      for (Instruction *W : Deps)
        Drop(W);
    }
  }

  static constexpr unsigned MaxChecksPerRead = 4;
  static constexpr unsigned NotInBody = ~0u;

  /// True if execution can flow from \p W to \p R without taking the
  /// unrolled loop's back edge.
  bool onForwardPath(Analyses &A, Instruction *W, Instruction *R) const {
    if (W->getParent() == R->getParent())
      return Order[W->getId()] < Order[R->getId()];
    return A.Reach.forwardReaches(W->getParent(), R->getParent());
  }

  /// Postponed stores the read \p Rd may depend on, in original program
  /// order. When the latest one must-alias the read (so its value
  /// statically shadows all earlier ones), only that store is returned
  /// with \p PureForward set: the read forwards with no runtime check.
  std::vector<Instruction *> depsForRead(const Read &Rd,
                                         bool &PureForward) const {
    std::vector<Instruction *> Deps;
    const Dep *Latest = nullptr;
    for (const Dep &D : Rd.Deps)
      if (IsPostponed[D.W->getId()]) {
        Deps.push_back(D.W);
        Latest = &D;
      }
    // Store-to-load forwarding: the latest store writes exactly this
    // location on every path, shadowing all earlier aliasing stores.
    PureForward = Latest && Latest->Alias == AliasResult::MustAlias &&
                  Latest->Dominates;
    if (PureForward)
      Deps = {Latest->W};
    return Deps;
  }

  /// Paper Algorithm 1, InstrumentReads: after each dependent read, chain
  /// `cmp = (raddr == waddr); sel = cmp ? wval : prev` per aliasing
  /// postponed store (in store order, so the latest store wins), then
  /// rewire the read's users to the final select.
  void instrumentReads() {
    IRBuilder IRB(M);
    for (const Read &Rd : Reads) {
      Instruction *R = Rd.R;
      bool PureForward = false;
      std::vector<Instruction *> Deps = depsForRead(Rd, PureForward);
      if (Deps.empty())
        continue;
      for ([[maybe_unused]] const Dep &D : Rd.Deps)
        assert((D.Dominates || !IsPostponed[D.W->getId()]) &&
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
        assert(Pos != R->getParent()->end() && "load terminates a block?");
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
      std::vector<Instruction *> Users(R->users().begin(), R->users().end());
      std::unordered_set<Instruction *> ChainSet(Chain.begin(), Chain.end());
      for (Instruction *U : Users) {
        if (ChainSet.count(U))
          continue;
        for (unsigned J = 0, E = U->getNumOperands(); J != E; ++J)
          if (U->getOperand(J) == R)
            U->setOperand(J, Final);
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
  /// Position in the unrolled body by instruction id, iteration-major
  /// ("original program order" after unrolling); NotInBody outside it.
  std::vector<unsigned> Order;
  std::vector<bool> IsPostponed;     ///< By instruction id.
  std::vector<Read> Reads;           ///< The body's loads, in order.
  std::vector<Instruction *> Stores; ///< The body's stores, in order.
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
    DominatorTree PDT(F, /*Post=*/true);
    for (Loop *L : A.LI.loops()) {
      if (DoneHeaders.count(L->getHeader()))
        continue;
      if (!isCandidate(*L, A, PDT))
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
