#include "analysis/WarDependence.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

using namespace wario;

CFGReachability::CFGReachability(const Function &F, const LoopInfo &LI) {
  size_t N = F.size();
  Index.assign(F.numBlockNumbers(), ~0u);
  unsigned Pos = 0;
  for (const BasicBlock *BB : F)
    Index[BB->getNumber()] = Pos++;
  Words = (N + 63) / 64;
  Succs.resize(N);
  std::vector<std::vector<unsigned>> ForwardSuccs(N);
  for (const BasicBlock *BB : F)
    for (const BasicBlock *S : BB->successors()) {
      Succs[index(BB)].push_back(index(S));
      if (!LI.isBackEdge(BB, S))
        ForwardSuccs[index(BB)].push_back(index(S));
    }

  // A flood from every block; N is small for embedded code.
  Full.assign(N * Words, 0);
  Forward.assign(N * Words, 0);
  std::vector<unsigned> Work;
  for (auto [Rows, Edges] : {std::pair{&Full, &Succs},
                             std::pair{&Forward, &ForwardSuccs}})
    for (size_t Start = 0; Start != N; ++Start) {
      uint64_t *Row = &(*Rows)[Start * Words];
      for (Work.assign(1, unsigned(Start)); !Work.empty();) {
        unsigned B = Work.back();
        Work.pop_back();
        for (unsigned S : (*Edges)[B])
          if (!(Row[S / 64] >> S % 64 & 1)) {
            Row[S / 64] |= uint64_t(1) << S % 64;
            Work.push_back(S);
          }
      }
    }
}

std::vector<MemDep> wario::findWars(const Function &F, const AliasAnalysis &AA,
                                    const LoopInfo &LI,
                                    const CFGReachability &Reach,
                                    const Loop *Scope) {
  // Loads and stores in program order, each decomposed once, with their
  // block numbers and positions. Two blocks share a loop iff they share
  // their outermost loop, because natural loops are either nested or
  // disjoint.
  struct Access {
    Instruction *I;
    MemAccess M;
    unsigned Block, Pos;
  };
  std::vector<Access> Loads, Stores;
  std::vector<const Loop *> Outermost;
  for (const BasicBlock *BB : F) {
    unsigned B = unsigned(Outermost.size()), Pos = 0;
    const Loop *L = LI.getLoopFor(BB);
    while (L && L->getParent())
      L = L->getParent();
    Outermost.push_back(L);
    if (!Scope || Scope->contains(BB))
      for (Instruction *I : *BB) {
        if (I->isMemoryAccess())
          (I->getOpcode() == Opcode::Load ? Loads : Stores)
              .push_back({I, AA.access(I), B, Pos});
        ++Pos;
      }
  }
  assert(Outermost.size() == Reach.numBlocks() && "stale reachability");

  // Accesses with distinct identified bases never alias, so a load of a
  // known base meets only the stores of that base and those of unknown
  // base (nullptr), merged back into program order; a load of unknown
  // base meets every store.
  std::unordered_map<const Value *, std::vector<unsigned>> ByBase, Merged;
  for (unsigned S = 0; S != Stores.size(); ++S) {
    ByBase[Stores[S].M.Loc.Base].push_back(S);
    Merged[nullptr].push_back(S);
  }

  // A pair can produce *two* dependences: a direct one (same iteration
  // instance: index expressions denote the same values) and a carried one
  // (different iterations: cross-iteration aliasing). Both matter — e.g.
  // `w[t] = f(w[t+3])` has no direct WAR (disjoint within an iteration)
  // but a real carried WAR three iterations later.
  std::vector<MemDep> Wars;
  for (const Access &R : Loads) {
    const Value *Base = R.M.Loc.Base;
    auto [Candidates, Fresh] = Merged.try_emplace(Base);
    if (Fresh)
      std::merge(ByBase[Base].begin(), ByBase[Base].end(),
                 ByBase[nullptr].begin(), ByBase[nullptr].end(),
                 std::back_inserter(Candidates->second));
    for (unsigned S : Candidates->second) {
      const Access &W = Stores[S];
      // Direct: W can follow R with no back edge on the path. Carried: W
      // can follow R around at least one back edge; both sitting in a
      // common loop suffices for that to be realizable.
      bool Direct, Carried;
      if (R.Block == W.Block) {
        Direct = R.Pos < W.Pos;
        Carried = Reach.reaches(R.Block, R.Block); // On a cycle.
      } else {
        Direct = Reach.forwardReaches(R.Block, W.Block);
        Carried = Reach.reaches(R.Block, W.Block) &&
                  (!Direct || (Outermost[R.Block] &&
                               Outermost[R.Block] == Outermost[W.Block]));
      }
      for (bool Cross : {false, true}) {
        if (!(Cross ? Carried : Direct))
          continue;
        AliasResult AR = AA.alias(R.M, W.M, /*CrossIteration=*/Cross);
        if (AR != AliasResult::NoAlias)
          Wars.push_back({R.I, W.I, /*LoopCarried=*/Cross, AR});
      }
    }
  }
  return Wars;
}
