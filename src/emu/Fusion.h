//===----------------------------------------------------------------------===//
///
/// \file
/// Superinstruction fusion over the decoded program (DESIGN.md §7.7).
///
/// The threaded engine dispatches *groups* of instructions: a fusion
/// pass runs once per module and gives every program index a group
/// header — either the identity group (one instruction; Kind is the
/// MOp value itself) or a superinstruction covering 2–3 consecutive
/// instructions matched against a fixed catalog of generic Thumb-2
/// idioms (load–op–store, compare+branch, immediate-feed ALU chains).
/// There is one fusion level: groups are never concatenated into longer
/// ones (DESIGN.md §7.7 measures why).
/// Groups overlap freely: every pc keeps its own entry, so a branch
/// into the middle of someone else's group simply dispatches the group
/// that *starts* there. Fusion never changes semantics — each component
/// executes exactly the interpreter's transition — it only collapses
/// dispatches.
///
/// WARIO_EMU_FUSED_KINDS below is the one declaration of the catalog:
/// one line per pattern, named by its component MOps. The FusedKind
/// enum, the matcher's pattern table (Fusion.cpp), the threaded
/// engine's dispatch table and every fused handler (ThreadedEngine.cpp)
/// are expanded from it, so adding or dropping a pattern is a one-line
/// edit. Handlers are composed from per-component bodies, and every
/// cycle figure of a group — the cost the matcher pre-sums, a storing
/// component's stamp base, the prefix a mid-group bail retires — comes
/// from componentCost.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_EMU_FUSION_H
#define WARIO_EMU_FUSION_H

#include "emu/Decode.h"
#include "emu/Emulator.h"

#include <vector>

namespace wario::emu_detail {

/// The nine single-cycle binary ALU ops the catalog's ALU families range
/// over (UDiv/SDiv can trap and are never fused): F(Op, Args...) once
/// per op.
#define WARIO_EMU_ALU9(F, ...)                                                 \
  F(Add, __VA_ARGS__) F(Sub, __VA_ARGS__) F(Mul, __VA_ARGS__)                  \
  F(And, __VA_ARGS__) F(Orr, __VA_ARGS__) F(Eor, __VA_ARGS__)                  \
  F(Lsl, __VA_ARGS__) F(Lsr, __VA_ARGS__) F(Asr, __VA_ARGS__)

// Place an ALU family's op among its fixed components (x: a fixed
// component, A: the ALU op), so WARIO_EMU_ALU9 can expand the family.
#define WARIO_EMU_xA(OP, P, X) P(X, OP)
#define WARIO_EMU_Ax(OP, P, X) P(OP, X)
#define WARIO_EMU_xAx(OP, T, X, Y) T(X, OP, Y)
#define WARIO_EMU_xxA(OP, T, X, Y) T(X, Y, OP)

/// The superinstruction catalog: P(A, B) is a pair pattern, T(A, B, C)
/// a triple, each named by its component MOps in execution order. Order
/// here *is* the kind numbering. No two patterns of one length may share
/// their ops (checked at compile time), so the longest match at a pc is
/// unique.
#define WARIO_EMU_FUSED_KINDS(P, T)                                            \
  /* ALU families, one kind per ALU op (value flows left to right). */         \
  WARIO_EMU_ALU9(WARIO_EMU_xA, P, MovImm)  /* d0 = imm ; d1 = a op b */        \
  WARIO_EMU_ALU9(WARIO_EMU_Ax, P, Mov)     /* d0 = a op b ; d1 = s */          \
  WARIO_EMU_ALU9(WARIO_EMU_Ax, P, MovImm)  /* d0 = a op b ; d1 = imm */        \
  WARIO_EMU_ALU9(WARIO_EMU_xA, P, LdrSlot) /* d0 = slot ; d1 = a op b */       \
  WARIO_EMU_ALU9(WARIO_EMU_Ax, P, StrSlot) /* d0 = a op b ; slot = s */        \
  /* ALU-family triples (the CRC/SHA/AES inner-loop shapes). */                \
  WARIO_EMU_ALU9(WARIO_EMU_xAx, T, LdrSlot, StrSlot)                           \
  WARIO_EMU_ALU9(WARIO_EMU_xxA, T, MovImm, LdrSlot)                            \
  /* Register/immediate traffic. */                                           \
  P(MovImm, MovImm) P(MovImm, Mov) P(Mov, MovImm) P(Mov, Mov)                  \
  P(MovImm, LdrSlot) P(LdrSlot, Mov) P(Mov, LdrSlot) P(LdrSlot, LdrSlot)       \
  P(StrSlot, MovImm) P(StrSlot, Mov) P(Mov, StrSlot) P(StrSlot, LdrSlot)       \
  P(LdrSlot, Str) P(Str, LdrSlot) P(Mov, Ldr) P(Mov, Str)                      \
  /* ALU-ALU pairs the histograms rank (shift/accumulate mills). */           \
  P(Lsl, Lsr) P(Lsr, Lsl) P(Lsl, Add) P(Mul, Add) P(Eor, Lsl) P(Add, Add)      \
  /* Compare+branch, and the immediate-compare-branch triple. */               \
  P(SetCond, CBr) T(MovImm, SetCond, CBr)                                      \
  /* Remaining measured triples. */                                           \
  T(Lsl, Lsr, StrSlot) T(Add, Mov, Ldr)

/// Group kinds. Kinds [0, FK_FirstFused) are identity groups — the kind
/// is the instruction's own MOp value, so the threaded engine's dispatch
/// table doubles as its per-op handler table. The fused kinds follow in
/// catalog order.
enum FusedKind : uint16_t {
  FK_LastIdentity = uint16_t(MOp::Nop), ///< Nop's; the fused kinds follow.
#define WARIO_FK_P(A, B) FK_##A##_##B,
#define WARIO_FK_T(A, B, C) FK_##A##_##B##_##C,
  WARIO_EMU_FUSED_KINDS(WARIO_FK_P, WARIO_FK_T)
#undef WARIO_FK_P
#undef WARIO_FK_T
  FK_KindLimit,
  FK_FirstFused = FK_LastIdentity + 1,
};

/// Cycle cost of one group component, as Machine::step spends it
/// (\p MovCost is a MovImm's decoded 1 or 2). The matcher pre-sums it
/// into a group's cost, a handler passes the sum over the components
/// before a store as that store's stamp base, and a mid-group bail
/// retires the sum over the completed prefix.
constexpr unsigned componentCost(MOp Op, unsigned MovCost) {
  switch (Op) {
  case MOp::MovImm:
    return MovCost;
  case MOp::SetCond:
  case MOp::Ldr:
  case MOp::Str:
  case MOp::LdrSlot:
  case MOp::StrSlot:
    return 2;
  case MOp::CBr:
    return 1 + unsigned(cycles::PipelineRefill);
  default:
    return 1; // Mov and the single-cycle ALU ops.
  }
}

/// Interior instruction boundaries of a dispatched group never carry an
/// interpreter-visible event, provided the engine stops dispatching
/// this margin short of the next event cycle (see Machine::fastLimit).
/// Every group's cost must stay below it.
constexpr uint64_t FusedCostLimit = 24;

/// The threaded engine's execution record: group header and operands
/// merged into one 20-byte entry per program index, so the hot loop
/// walks a single cursor through a single dense stream (the 48-byte
/// DecodedInst array stays the interpreter's form). Operand fields
/// describe the instruction *at* this index; Kind/Len/Cost describe
/// the group *starting* here (interior indices keep their own group
/// heads, so branches into the middle of a group dispatch normally).
struct FastInst {
  uint16_t Kind; ///< FusedKind, or the MOp value for identity groups.
  uint8_t Len;   ///< Component count of the group starting here.
  uint8_t Cost;  ///< Pre-summed cycle cost of that group.
  int16_t Dst;
  int16_t Src0;
  int16_t Src1;
  /// Op-specific: MovImm cost, SetCond/CBr predicate, SelectR's third
  /// register, Ldr/Str size | (signed << 8) | AuxLogged, push/pop
  /// register list, checkpoint cause.
  uint16_t Aux;
  /// Op-specific: immediate (MovImm/AddImm/Ldr/Str offset/SpAdjust),
  /// frame-slot offset, CBr's false target, Bl's return link index.
  uint32_t A;
  uint32_t T0; ///< Branch target (B/Bl true/CBr taken).
};
static_assert(sizeof(FastInst) == 20, "keep the engine record compact");

/// FastInst::Aux flag of a speculative undo-logged Str. Logged stores
/// copy the old word out and pay cycles::SpecLogStore only when the
/// address is monitored, so they never fuse (no fixed group cost) and
/// the engine hands each one to the interpreter's storeMem.
constexpr uint16_t AuxLogged = 0x200;

/// Builds the engine stream from the decoded program: each index gets
/// its operands and the longest catalog group starting there.
std::vector<FastInst> buildFastProgram(const std::vector<DecodedInst> &Prog);

} // namespace wario::emu_detail

#endif // WARIO_EMU_FUSION_H
