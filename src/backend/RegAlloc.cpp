#include "backend/RegAlloc.h"

#include <algorithm>
#include <bit>

using namespace wario;

namespace {

/// Spilled operands of call pseudos are encoded as -2 - slot until
/// expansion (they cannot use the generic scratch-reload path: four
/// arguments would exceed the scratch pool).
int encodeSlot(int Slot) { return -2 - Slot; }
bool isEncodedSlot(int V) { return V <= -2; }
int decodeSlot(int V) { return -2 - V; }

/// Calls \p Fn on each vreg \p I reads (its def is I.Dst when >= 0).
template <typename UseFn> void forEachUse(const MInst &I, UseFn Fn) {
  for (int S : I.Src)
    if (S >= 0)
      Fn(S);
  for (int A : I.CallArgs)
    Fn(A);
}

struct Interval {
  int VReg = -1;
  int Start = INT32_MAX;
  int End = -1;
  bool CrossesCall = false;
  int Reg = -1;  // Assigned PReg, or -1.
  int Slot = -1; // Spill slot, or -1.
  // Rematerialization: a vreg defined once by a constant-producing
  // instruction is recomputed at each use instead of living in a slot.
  bool Remat = false;
  bool Evicted = false;
  double Weight = 0.0; // Loop-depth-weighted use density (spill cost).
  MOp RematOp = MOp::Nop;
  int64_t RematImm = 0;
  const GlobalVariable *RematGlobal = nullptr;

  bool spilled() const { return Evicted; }
};

/// Call-pseudo encoding for remat operands: -1000000 - vreg.
int encodeRemat(int VReg) { return -1000000 - VReg; }
bool isEncodedRemat(int V) { return V <= -1000000; }
int decodeRemat(int V) { return -1000000 - V; }

/// One move of a parallel move into registers.
struct Move {
  int DstReg;
  int Src; // PReg or encoded slot.
};

/// Emits \p Pending to \p Out: a move goes once no other pending move
/// still reads its destination (slot sources load straight into it), and
/// a pure register cycle rotates through r12, which is free at function
/// entry and at call boundaries.
void emitParallelMove(std::vector<Move> Pending, std::vector<MInst> &Out) {
  while (!Pending.empty()) {
    auto Free = std::find_if(Pending.begin(), Pending.end(),
                             [&](const Move &M) {
                               for (const Move &O : Pending)
                                 if (&O != &M && O.Src == M.DstReg)
                                   return false;
                               return true;
                             });
    MInst Mv;
    if (Free == Pending.end()) {
      Mv.Op = MOp::Mov;
      Mv.Dst = R12;
      Mv.Src[0] = Pending.front().Src;
      Out.push_back(Mv);
      for (Move &O : Pending)
        if (!isEncodedSlot(O.Src) && O.Src == Mv.Src[0])
          O.Src = R12;
      continue;
    }
    Mv.Dst = Free->DstReg;
    if (isEncodedSlot(Free->Src)) {
      Mv.Op = MOp::LdrSlot;
      Mv.Slot = decodeSlot(Free->Src);
    } else {
      Mv.Op = MOp::Mov;
      Mv.Src[0] = Free->Src;
    }
    Out.push_back(Mv);
    Pending.erase(Free);
  }
}

} // namespace

namespace {

/// One allocation attempt with \p NumRegs allocatable registers (the
/// rest of r10-r12 serve as spill scratch). Returns false when rewrite
/// would need more scratch registers than are reserved — the caller
/// retries with a smaller allocatable pool.
bool allocateOnce(MFunction &F, const MachineCFG &CFG,
                  const RegAllocOptions &Opts, unsigned NumRegs,
                  RegAllocStats &Stats) {
  unsigned NumScratch = 13 - NumRegs;
  const PReg Scratch[3] = {PReg(R0 + NumRegs), PReg(R0 + NumRegs + 1),
                           R12};
  Stats = RegAllocStats();
  Stats.VRegs = F.NumVRegs;
  unsigned NV = F.NumVRegs;

  // --- Block-level liveness over dense bit rows: one bit per vreg -----------
  unsigned NB = unsigned(F.Blocks.size()), Words = (NV + 63) / 64;
  std::vector<uint64_t> Use(NB * Words), Def(NB * Words), LiveIn(NB * Words),
      LiveOut(NB * Words);
  auto Has = [](const uint64_t *Row, int V) {
    return Row[V / 64] >> V % 64 & 1;
  };
  auto Set = [](uint64_t *Row, int V) { Row[V / 64] |= 1ull << V % 64; };
  for (unsigned B = 0; B != NB; ++B)
    for (const MInst &I : F.Blocks[B].Insts) {
      forEachUse(I, [&](int U) {
        if (!Has(&Def[B * Words], U))
          Set(&Use[B * Words], U);
      });
      if (I.Dst >= 0)
        Set(&Def[B * Words], I.Dst);
    }
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned B = NB; B-- != 0;)
      for (unsigned K = 0; K != Words; ++K) {
        uint64_t Out = 0;
        for (int S : CFG.successors(B))
          Out |= LiveIn[S * Words + K];
        unsigned At = B * Words + K;
        uint64_t In = Use[At] | (Out & ~Def[At]);
        Changed |= Out != LiveOut[At] || In != LiveIn[At];
        LiveOut[At] = Out;
        LiveIn[At] = In;
      }
  }
  auto ForEachLive = [&](const std::vector<uint64_t> &Rows, unsigned B,
                         auto Fn) {
    for (unsigned K = 0; K != Words; ++K)
      for (uint64_t X = Rows[B * Words + K]; X; X &= X - 1)
        Fn(int(K * 64 + std::countr_zero(X)));
  };

  // --- Intervals ---------------------------------------------------------------
  std::vector<Interval> Ivs(NV);
  for (unsigned V = 0; V != NV; ++V)
    Ivs[V].VReg = int(V);
  int Pos = 0; // Instructions are numbered in block order.
  std::vector<int> CallPositions;
  for (unsigned B = 0; B != NB; ++B) {
    int First = Pos;
    double BlockWeight = 1.0;
    for (unsigned D = 0; D != std::min(CFG.loopDepth(B), 6u); ++D)
      BlockWeight *= 8.0;
    auto Touch = [&](int V) {
      Ivs[V].Start = std::min(Ivs[V].Start, Pos);
      Ivs[V].End = std::max(Ivs[V].End, Pos);
      Ivs[V].Weight += BlockWeight;
    };
    for (const MInst &I : F.Blocks[B].Insts) {
      forEachUse(I, Touch);
      if (I.Dst >= 0)
        Touch(I.Dst);
      if (I.Op == MOp::CallPseudo)
        CallPositions.push_back(Pos);
      ++Pos;
    }
    ForEachLive(LiveIn, B, [&](int V) {
      Ivs[V].Start = std::min(Ivs[V].Start, First);
      Ivs[V].End = std::max(Ivs[V].End, First);
    });
    ForEachLive(LiveOut, B, [&](int V) {
      Ivs[V].End = std::max(Ivs[V].End, Pos - 1);
    });
  }
  // CallPositions ascend: test the first call after each start.
  for (Interval &Iv : Ivs) {
    auto It = std::upper_bound(CallPositions.begin(), CallPositions.end(),
                               Iv.Start);
    Iv.CrossesCall = It != CallPositions.end() && *It < Iv.End;
  }

  // Rematerialization candidates: exactly one def, and it is a cheap
  // constant producer. Spilling such a value needs no slot (and thus can
  // never create a spill WAR).
  {
    std::vector<int> DefCount(NV, 0);
    std::vector<const MInst *> DefInst(NV, nullptr);
    for (const MBasicBlock &BB : F.Blocks)
      for (const MInst &I : BB.Insts)
        if (I.Dst >= 0) {
          ++DefCount[I.Dst];
          DefInst[I.Dst] = &I;
        }
    for (unsigned V = 0; V != NV; ++V) {
      if (DefCount[V] != 1 || !DefInst[V])
        continue;
      const MInst &D = *DefInst[V];
      if (D.Op == MOp::MovImm) {
        Ivs[V].Remat = true;
        Ivs[V].RematOp = MOp::MovImm;
        Ivs[V].RematImm = D.Imm;
      } else if (D.Op == MOp::MovGlobal) {
        Ivs[V].Remat = true;
        Ivs[V].RematOp = MOp::MovGlobal;
        Ivs[V].RematGlobal = D.Global;
      }
    }
  }

  // --- Linear scan ----------------------------------------------------------------
  std::vector<Interval *> Order;
  for (Interval &Iv : Ivs)
    if (Iv.End >= 0)
      Order.push_back(&Iv);
  std::sort(Order.begin(), Order.end(), [](Interval *A, Interval *B) {
    if (A->Start != B->Start)
      return A->Start < B->Start;
    return A->VReg < B->VReg;
  });

  // Caller-saved first for short intervals, callee-saved (r4-r10) for
  // intervals live across calls.
  std::vector<int> AllPool, CalleePool;
  for (unsigned R = R0; R != R0 + NumRegs; ++R) {
    AllPool.push_back(int(R));
    if (R >= R4)
      CalleePool.push_back(int(R));
  }

  std::vector<Interval *> Active;
  std::vector<Interval *> Spills;
  auto RegInUse = [&](int R) {
    for (Interval *A : Active)
      if (A->Reg == R)
        return true;
    return false;
  };

  for (Interval *Iv : Order) {
    // Expire.
    Active.erase(std::remove_if(Active.begin(), Active.end(),
                                [&](Interval *A) {
                                  return A->End <= Iv->Start;
                                }),
                 Active.end());
    auto Pool = Iv->CrossesCall
                    ? std::pair(CalleePool.data(), CalleePool.size())
                    : std::pair(AllPool.data(), AllPool.size());
    int Free = -1;
    for (size_t J = 0; J != Pool.second && Free < 0; ++J)
      if (!RegInUse(Pool.first[J]))
        Free = Pool.first[J];
    if (Free >= 0) {
      Iv->Reg = Free;
      Active.push_back(Iv);
      continue;
    }
    // Spill the cheapest candidate among the compatible active intervals
    // and the new one: loop-resident values stay in registers (spill code
    // inside loops both costs cycles and breeds back-end WARs), and
    // rematerializable constants spill for free.
    auto SpillCost = [](const Interval *I) {
      double Density = I->Weight / double(I->End - I->Start + 1);
      return I->Remat ? Density * 0.25 : Density;
    };
    Interval *Victim = nullptr;
    for (Interval *A : Active) {
      bool Compatible = false;
      for (size_t J = 0; J != Pool.second; ++J)
        if (Pool.first[J] == A->Reg)
          Compatible = true;
      if (!Compatible)
        continue;
      if (!Victim || SpillCost(A) < SpillCost(Victim) ||
          (SpillCost(A) == SpillCost(Victim) && A->End > Victim->End))
        Victim = A;
    }
    if (Victim && SpillCost(Victim) < SpillCost(Iv)) {
      Iv->Reg = Victim->Reg;
      Victim->Reg = -1;
      Victim->Evicted = true;
      Spills.push_back(Victim);
      Active.erase(std::find(Active.begin(), Active.end(), Victim));
      Active.push_back(Iv);
    } else {
      Iv->Evicted = true;
      Spills.push_back(Iv);
    }
  }

  // --- Spill slot assignment --------------------------------------------------------
  std::sort(Spills.begin(), Spills.end(), [](Interval *A, Interval *B) {
    if (A->Start != B->Start)
      return A->Start < B->Start;
    return A->VReg < B->VReg;
  });
  // (slot, end-of-current-holder) pool for the sharing mode.
  std::vector<std::pair<int, int>> SlotPool;
  for (Interval *S : Spills) {
    if (S->Remat) {
      ++Stats.Spilled; // Counted as spilled, but lives nowhere.
      continue;
    }
    int Slot = -1;
    if (Opts.StackSlotSharing) {
      for (auto &[Sl, End] : SlotPool)
        if (End <= S->Start) {
          Slot = Sl;
          End = S->End;
          break;
        }
    }
    if (Slot < 0) {
      Slot = int(F.Slots.size());
      F.Slots.push_back({FrameSlot::Kind::Spill, 4, -1});
      SlotPool.push_back({Slot, S->End});
      ++Stats.SpillSlots;
    }
    S->Slot = Slot;
    ++Stats.Spilled;
  }

  // --- Rewrite ------------------------------------------------------------------------
  auto LocOf = [&](int V) -> const Interval & { return Ivs[V]; };

  for (MBasicBlock &BB : F.Blocks) {
    std::vector<MInst> Out;
    Out.reserve(BB.Insts.size() + 8);
    for (MInst I : BB.Insts) {
      if (I.Op == MOp::ArgGet) {
        // Like CallPseudo: encode the location; the expansion phase
        // resolves all ArgGets of the entry block as one parallel move
        // (a naive per-arg mov could clobber r0-r3 before they are read).
        const Interval &Iv = LocOf(I.Dst);
        I.Dst = Iv.spilled() ? encodeSlot(Iv.Slot) : Iv.Reg;
        Out.push_back(std::move(I));
        continue;
      }
      if (I.Op == MOp::CallPseudo) {
        // Encode operand locations; expanded below.
        for (int &A : I.CallArgs) {
          const Interval &Iv = LocOf(A);
          if (Iv.spilled())
            A = Iv.Remat ? encodeRemat(Iv.VReg) : encodeSlot(Iv.Slot);
          else
            A = Iv.Reg;
        }
        if (I.Dst >= 0) {
          const Interval &Iv = LocOf(I.Dst);
          I.Dst = Iv.spilled() ? encodeSlot(Iv.Slot) : Iv.Reg;
        }
        Out.push_back(std::move(I));
        continue;
      }
      // A rematerialized value's single def simply disappears.
      if (I.Dst >= 0 && LocOf(I.Dst).spilled() && LocOf(I.Dst).Remat)
        continue;
      unsigned NumScratchUsed = 0;
      for (int &S : I.Src) {
        if (S < 0)
          continue;
        const Interval &Iv = LocOf(S);
        if (Iv.spilled()) {
          if (NumScratchUsed >= NumScratch)
            return false; // Retry with more scratch registers.
          MInst Reload;
          if (Iv.Remat) {
            Reload.Op = Iv.RematOp;
            Reload.Imm = Iv.RematImm;
            Reload.Global = Iv.RematGlobal;
          } else {
            Reload.Op = MOp::LdrSlot;
            Reload.Slot = Iv.Slot;
          }
          Reload.Dst = Scratch[NumScratchUsed];
          Out.push_back(Reload);
          S = Scratch[NumScratchUsed++];
        } else {
          S = Iv.Reg;
        }
      }
      bool DstSpilled = false;
      int DstSlot = -1;
      if (I.Dst >= 0) {
        const Interval &Iv = LocOf(I.Dst);
        if (Iv.spilled()) {
          DstSpilled = true;
          DstSlot = Iv.Slot;
          I.Dst = Scratch[0];
        } else {
          I.Dst = Iv.Reg;
        }
      }
      Out.push_back(I);
      if (DstSpilled) {
        MInst Save;
        Save.Op = MOp::StrSlot;
        Save.Src[0] = Scratch[0];
        Save.Slot = DstSlot;
        Out.push_back(Save);
      }
    }
    BB.Insts = std::move(Out);
  }

  // --- Pseudo expansion -----------------------------------------------------------------
  for (MBasicBlock &BB : F.Blocks) {
    std::vector<MInst> Out;
    Out.reserve(BB.Insts.size() + 8);
    for (size_t Idx = 0; Idx != BB.Insts.size(); ++Idx) {
      MInst I = BB.Insts[Idx];
      switch (I.Op) {
      case MOp::ArgGet: {
        // Gather the whole consecutive ArgGet group and resolve it as a
        // parallel move from r0..rN. Spilled args store first (reads
        // only), then register targets move with r12 breaking cycles.
        std::vector<MInst> Group{I};
        while (Idx + 1 < BB.Insts.size() &&
               BB.Insts[Idx + 1].Op == MOp::ArgGet)
          Group.push_back(BB.Insts[++Idx]);
        std::vector<Move> Pending;
        for (const MInst &AG : Group) {
          int SrcReg = R0 + int(AG.Imm);
          if (isEncodedSlot(AG.Dst)) {
            MInst Sv;
            Sv.Op = MOp::StrSlot;
            Sv.Src[0] = SrcReg;
            Sv.Slot = decodeSlot(AG.Dst);
            Out.push_back(Sv);
          } else if (AG.Dst != SrcReg) {
            Pending.push_back({AG.Dst, SrcReg});
          }
        }
        emitParallelMove(std::move(Pending), Out);
        break;
      }
      case MOp::Ret: {
        if (I.Src[0] >= 0 && I.Src[0] != R0) {
          MInst Mv;
          Mv.Op = MOp::Mov;
          Mv.Dst = R0;
          Mv.Src[0] = I.Src[0];
          Out.push_back(Mv);
        }
        I.Src[0] = -1;
        Out.push_back(I);
        break;
      }
      case MOp::CallPseudo: {
        // Parallel move of arguments into r0..r3.
        std::vector<Move> Pending;
        std::vector<std::pair<int, int>> Remats; // (dst reg, vreg).
        for (unsigned A = 0; A != I.CallArgs.size(); ++A) {
          if (isEncodedRemat(I.CallArgs[A])) {
            Remats.emplace_back(int(R0 + A), decodeRemat(I.CallArgs[A]));
            continue;
          }
          if (I.CallArgs[A] != int(R0 + A))
            Pending.push_back({int(R0 + A), I.CallArgs[A]});
        }
        emitParallelMove(std::move(Pending), Out);
        for (auto &[DstReg, VReg] : Remats) {
          const Interval &Iv = Ivs[unsigned(VReg)];
          MInst Mv;
          Mv.Op = Iv.RematOp;
          Mv.Dst = DstReg;
          Mv.Imm = Iv.RematImm;
          Mv.Global = Iv.RematGlobal;
          Out.push_back(Mv);
        }
        MInst Call;
        Call.Op = MOp::Bl;
        Call.Callee = I.Callee;
        Out.push_back(Call);
        if (I.Dst != -1) {
          if (isEncodedSlot(I.Dst)) {
            MInst Sv;
            Sv.Op = MOp::StrSlot;
            Sv.Src[0] = R0;
            Sv.Slot = decodeSlot(I.Dst);
            Out.push_back(Sv);
          } else if (I.Dst != R0) {
            MInst Mv;
            Mv.Op = MOp::Mov;
            Mv.Dst = I.Dst;
            Mv.Src[0] = R0;
            Out.push_back(Mv);
          }
        }
        break;
      }
      default:
        Out.push_back(std::move(I));
        break;
      }
    }
    BB.Insts = std::move(Out);
  }

  // Record callee-saved registers that now appear in the code.
  uint16_t Saved = 0;
  for (const MBasicBlock &BB : F.Blocks)
    for (const MInst &I : BB.Insts) {
      auto Mark = [&](int R) {
        if (R >= R4 && R <= R10)
          Saved |= uint16_t(1u << R);
      };
      Mark(I.Dst);
      for (int S : I.Src)
        Mark(S);
    }
  F.SavedRegMask = Saved;
  F.PostRA = true;
  return true;
}

} // namespace

RegAllocStats wario::allocateRegisters(MFunction &F, const MachineCFG &CFG,
                                       const RegAllocOptions &Opts) {
  assert(!F.PostRA && "function already allocated");
  RegAllocStats Stats;
  // Prefer 11 allocatable registers (r0-r10) with two scratch; fall back
  // to 10 + three scratch for the rare function where some instruction
  // (a select) carries three spilled sources.
  MFunction Backup = F;
  if (allocateOnce(F, CFG, Opts, 11, Stats))
    return Stats;
  F = std::move(Backup);
  bool Ok = allocateOnce(F, CFG, Opts, 10, Stats);
  assert(Ok && "allocation with three scratch registers cannot fail");
  (void)Ok;
  return Stats;
}
