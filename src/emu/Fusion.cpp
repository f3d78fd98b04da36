//===----------------------------------------------------------------------===//
///
/// \file
/// Longest-match superinstruction fusion and the engine stream it
/// feeds (see Fusion.h). Runs once per module inside Emulator's
/// per-module preparation; the cost of the pass is O(program size) and
/// is amortized across every run.
///
//===----------------------------------------------------------------------===//

#include "emu/Fusion.h"

#include "emu/Emulator.h"

#include <cassert>

using namespace wario;
using namespace wario::emu_detail;

namespace {

/// Index of a fusable single-cycle binary ALU op in WARIO_EMU_ALU9
/// order (Add Sub Mul And Orr Eor Lsl Lsr Asr), or -1.
int aluIdx(MOp Op) {
  switch (Op) {
  case MOp::Add: return 0;
  case MOp::Sub: return 1;
  case MOp::Mul: return 2;
  case MOp::And: return 3;
  case MOp::Orr: return 4;
  case MOp::Eor: return 5;
  case MOp::Lsl: return 6;
  case MOp::Lsr: return 7;
  case MOp::Asr: return 8;
  default: return -1;
  }
}

// The family-base arithmetic below (FK_Fam_Add + aluIdx) requires the
// enum expansion and aluIdx() to agree on the op order.
static_assert(FK_MovImm_Alu_Asr == FK_MovImm_Alu_Add + 8);
static_assert(FK_Alu_Mov_Asr == FK_Alu_Mov_Add + 8);
static_assert(FK_Alu_MovImm_Asr == FK_Alu_MovImm_Add + 8);
static_assert(FK_LdrSlot_Alu_Asr == FK_LdrSlot_Alu_Add + 8);
static_assert(FK_Alu_StrSlot_Asr == FK_Alu_StrSlot_Add + 8);
static_assert(FK_LdrSlot_Alu_StrSlot_Asr == FK_LdrSlot_Alu_StrSlot_Add + 8);
static_assert(FK_MovImm_LdrSlot_Alu_Asr == FK_MovImm_LdrSlot_Alu_Add + 8);

/// Cycle cost of one fusable component (mirrors Machine::step's spend).
unsigned compCost(const DecodedInst &I) {
  switch (I.Op) {
  case MOp::MovImm: return I.MovCost;
  case MOp::Mov: return 1;
  case MOp::SetCond: return 2;
  case MOp::Ldr: case MOp::Str:
  case MOp::LdrSlot: case MOp::StrSlot: return 2;
  case MOp::CBr: return 1 + unsigned(cycles::PipelineRefill);
  default:
    assert(aluIdx(I.Op) >= 0 && "unexpected fused component");
    return 1;
  }
}

/// A speculative undo-logged store: never a group component (see
/// AuxLogged in Fusion.h).
bool isLoggedStore(const DecodedInst &I) {
  return I.Op == MOp::Str && I.Logged;
}

/// Header of the group starting at one program index.
struct FusedInst {
  uint16_t Kind; ///< FusedKind, or the MOp value for identity groups.
  uint8_t Len;   ///< Component count (1 for identity).
  uint8_t Cost;  ///< Pre-summed cycle cost of the whole group.
};

/// Matches the longest catalog pattern starting at \p pc. Returns the
/// identity group when nothing matches.
FusedInst matchAt(const DecodedInst *Prog, size_t pc, size_t N) {
  const DecodedInst &I0 = Prog[pc];
  auto make = [&](uint16_t Kind, unsigned Len) {
    unsigned Cost = 0;
    for (unsigned K = 0; K != Len; ++K)
      Cost += compCost(Prog[pc + K]);
    assert(Cost < FusedCostLimit && "group cost exceeds the event margin");
    return FusedInst{Kind, uint8_t(Len), uint8_t(Cost)};
  };

  // Components never span functions: groups stay within the region a
  // WAR diagnostic would attribute them to, and the tail of one
  // function can't speculatively pair with the next one's entry.
  // Logged stores never join a group.
  size_t R = 1;
  while (!isLoggedStore(I0) && R < 3 && pc + R < N &&
         Prog[pc + R].F == I0.F && !isLoggedStore(Prog[pc + R]))
    ++R;

  MOp Op0 = I0.Op;
  int A0 = aluIdx(Op0);
  if (R >= 2) {
    const DecodedInst &I1 = Prog[pc + 1];
    MOp Op1 = I1.Op;
    int A1 = aluIdx(Op1);
    if (R >= 3) {
      const DecodedInst &I2 = Prog[pc + 2];
      MOp Op2 = I2.Op;
      int A2 = aluIdx(Op2);
      if (Op0 == MOp::LdrSlot && A1 >= 0 && Op2 == MOp::StrSlot)
        return make(uint16_t(FK_LdrSlot_Alu_StrSlot_Add + A1), 3);
      if (Op0 == MOp::MovImm && Op1 == MOp::LdrSlot && A2 >= 0)
        return make(uint16_t(FK_MovImm_LdrSlot_Alu_Add + A2), 3);
      if (Op0 == MOp::MovImm && Op1 == MOp::SetCond && Op2 == MOp::CBr)
        return make(FK_MovImm_SetCond_CBr, 3);
      if (Op0 == MOp::Lsl && Op1 == MOp::Lsr && Op2 == MOp::StrSlot)
        return make(FK_Lsl_Lsr_StrSlot, 3);
      if (Op0 == MOp::Add && Op1 == MOp::Mov && Op2 == MOp::Ldr)
        return make(FK_Add_Mov_Ldr, 3);
    }
    // ALU-parameterized pairs.
    if (Op0 == MOp::MovImm && A1 >= 0)
      return make(uint16_t(FK_MovImm_Alu_Add + A1), 2);
    if (A0 >= 0 && Op1 == MOp::Mov)
      return make(uint16_t(FK_Alu_Mov_Add + A0), 2);
    if (A0 >= 0 && Op1 == MOp::MovImm)
      return make(uint16_t(FK_Alu_MovImm_Add + A0), 2);
    if (Op0 == MOp::LdrSlot && A1 >= 0)
      return make(uint16_t(FK_LdrSlot_Alu_Add + A1), 2);
    if (A0 >= 0 && Op1 == MOp::StrSlot)
      return make(uint16_t(FK_Alu_StrSlot_Add + A0), 2);
    // Fixed ALU-ALU pairs.
    if (A0 >= 0 && A1 >= 0) {
      if (Op0 == MOp::Lsl && Op1 == MOp::Lsr) return make(FK_Lsl_Lsr, 2);
      if (Op0 == MOp::Lsr && Op1 == MOp::Lsl) return make(FK_Lsr_Lsl, 2);
      if (Op0 == MOp::Lsl && Op1 == MOp::Add) return make(FK_Lsl_Add, 2);
      if (Op0 == MOp::Mul && Op1 == MOp::Add) return make(FK_Mul_Add, 2);
      if (Op0 == MOp::Eor && Op1 == MOp::Lsl) return make(FK_Eor_Lsl, 2);
      if (Op0 == MOp::Add && Op1 == MOp::Add) return make(FK_Add_Add, 2);
    }
    // Fixed pairs.
    static const struct { MOp A, B; FusedKind K; } FixedPairs[] = {
        {MOp::MovImm, MOp::MovImm, FK_MovImm_MovImm},
        {MOp::MovImm, MOp::Mov, FK_MovImm_Mov},
        {MOp::Mov, MOp::MovImm, FK_Mov_MovImm},
        {MOp::Mov, MOp::Mov, FK_Mov_Mov},
        {MOp::MovImm, MOp::LdrSlot, FK_MovImm_LdrSlot},
        {MOp::LdrSlot, MOp::Mov, FK_LdrSlot_Mov},
        {MOp::Mov, MOp::LdrSlot, FK_Mov_LdrSlot},
        {MOp::LdrSlot, MOp::LdrSlot, FK_LdrSlot_LdrSlot},
        {MOp::StrSlot, MOp::MovImm, FK_StrSlot_MovImm},
        {MOp::StrSlot, MOp::Mov, FK_StrSlot_Mov},
        {MOp::Mov, MOp::StrSlot, FK_Mov_StrSlot},
        {MOp::StrSlot, MOp::LdrSlot, FK_StrSlot_LdrSlot},
        {MOp::LdrSlot, MOp::Str, FK_LdrSlot_Str},
        {MOp::Str, MOp::LdrSlot, FK_Str_LdrSlot},
        {MOp::Mov, MOp::Ldr, FK_Mov_Ldr},
        {MOp::Mov, MOp::Str, FK_Mov_Str},
        {MOp::SetCond, MOp::CBr, FK_SetCond_CBr},
    };
    for (const auto &FX : FixedPairs)
      if (Op0 == FX.A && Op1 == FX.B)
        return make(FX.K, 2);
  }
  // Identity group: the kind is the MOp itself; singles compute their
  // own cycle cost in the engine, so Cost is unused here.
  return {uint16_t(Op0), 1, 0};
}

} // namespace

std::vector<FastInst>
emu_detail::buildFastProgram(const std::vector<DecodedInst> &Prog) {
  std::vector<FastInst> Fast;
  Fast.reserve(Prog.size());
  for (size_t pc = 0; pc != Prog.size(); ++pc) {
    const DecodedInst &D = Prog[pc];
    const FusedInst G = matchAt(Prog.data(), pc, Prog.size());
    FastInst F{};
    F.Kind = G.Kind;
    F.Len = G.Len;
    F.Cost = G.Cost;
    F.Dst = D.Dst;
    F.Src0 = D.Src[0];
    F.Src1 = D.Src[1];
    switch (D.Op) {
    case MOp::MovImm:
      F.A = D.Imm;
      F.Aux = uint16_t(D.MovCost);
      break;
    case MOp::AddImm:
    case MOp::SpAdjust:
      F.A = D.Imm;
      break;
    case MOp::Ldr:
    case MOp::Str:
      F.A = D.Imm;
      F.Aux = uint16_t(D.Size | (D.Signed ? 0x100 : 0) |
                       (D.Logged ? AuxLogged : 0));
      break;
    case MOp::LdrSlot:
    case MOp::StrSlot:
    case MOp::FrameAddr:
      F.A = uint32_t(D.SlotOff);
      break;
    case MOp::SetCond:
      F.Aux = uint16_t(D.Pred);
      break;
    case MOp::SelectR:
      F.Aux = uint16_t(D.Src[2]);
      break;
    case MOp::Push:
    case MOp::Pop:
    case MOp::PopLoads:
      F.Aux = D.RegList;
      break;
    case MOp::Checkpoint:
      F.Aux = uint16_t(D.Cause);
      break;
    case MOp::Bl:
      // The call stores its return link pre-encoded so the hot path
      // never divides a byte offset back down to a stream index.
      F.T0 = D.Target[0];
      F.A = uint32_t(pc + 1);
      break;
    case MOp::B:
      F.T0 = D.Target[0];
      break;
    case MOp::CBr:
      F.T0 = D.Target[0];
      F.A = D.Target[1];
      break;
    default:
      break;
    }
    Fast.push_back(F);
  }
  return Fast;
}
