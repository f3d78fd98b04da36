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
/// The catalog is expanded from the X-macros below in two places (the
/// FusedKind enum and the threaded engine's dispatch table), so the two
/// can never disagree on numbering.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_EMU_FUSION_H
#define WARIO_EMU_FUSION_H

#include "emu/Decode.h"

#include <vector>

namespace wario::emu_detail {

/// The nine single-cycle binary ALU ops that participate in fused
/// families (UDiv/SDiv can trap and are never fused).
#define WARIO_EMU_ALU9(A, FAM)                                                 \
  A(FAM, Add) A(FAM, Sub) A(FAM, Mul) A(FAM, And) A(FAM, Orr)                  \
  A(FAM, Eor) A(FAM, Lsl) A(FAM, Lsr) A(FAM, Asr)

/// The full superinstruction catalog. X(Name) introduces a fixed kind;
/// A(Family, AluOp) introduces one kind per ALU op of a parameterized
/// family. Order here *is* the kind numbering — all three expansions
/// (enum, matcher, dispatch table) consume this list.
#define WARIO_EMU_FUSED_KINDS(X, A)                                            \
  /* ALU-parameterized pairs (value flows left to right). */                   \
  WARIO_EMU_ALU9(A, MovImm_Alu)         /* d0=imm ; d1 = a op b        */      \
  WARIO_EMU_ALU9(A, Alu_Mov)            /* d0 = a op b ; d1 = s        */      \
  WARIO_EMU_ALU9(A, Alu_MovImm)         /* d0 = a op b ; d1 = imm      */      \
  WARIO_EMU_ALU9(A, LdrSlot_Alu)        /* d0 = slot ; d1 = a op b     */      \
  WARIO_EMU_ALU9(A, Alu_StrSlot)        /* d0 = a op b ; slot = s      */      \
  /* ALU-parameterized triples (the CRC/SHA/AES inner-loop shapes). */         \
  WARIO_EMU_ALU9(A, LdrSlot_Alu_StrSlot)                                       \
  WARIO_EMU_ALU9(A, MovImm_LdrSlot_Alu)                                        \
  /* Fixed pairs: register/immediate traffic. */                               \
  X(MovImm_MovImm) X(MovImm_Mov) X(Mov_MovImm) X(Mov_Mov)                      \
  X(MovImm_LdrSlot) X(LdrSlot_Mov) X(Mov_LdrSlot) X(LdrSlot_LdrSlot)           \
  X(StrSlot_MovImm) X(StrSlot_Mov) X(Mov_StrSlot) X(StrSlot_LdrSlot)           \
  X(LdrSlot_Str) X(Str_LdrSlot) X(Mov_Ldr) X(Mov_Str)                          \
  /* Fixed ALU-ALU pairs the histograms rank (shift/accumulate mills). */      \
  X(Lsl_Lsr) X(Lsr_Lsl) X(Lsl_Add) X(Mul_Add) X(Eor_Lsl) X(Add_Add)           \
  /* Compare+branch, and the immediate-compare-branch triple. */               \
  X(SetCond_CBr) X(MovImm_SetCond_CBr)                                         \
  /* Remaining measured triples. */                                           \
  X(Lsl_Lsr_StrSlot) X(Add_Mov_Ldr)

/// Group kinds. Values [0, 64) are identity groups — the kind is the
/// instruction's own MOp value, so the threaded engine's dispatch table
/// doubles as its per-op handler table. Fused kinds start at 64.
enum FusedKind : uint16_t {
  FK_FirstFused = 64,
  FK_Seed_ = FK_FirstFused - 1, // Placeholder so the list starts at 64.
#define WARIO_FK_X(NAME) FK_##NAME,
#define WARIO_FK_A(FAM, OP) FK_##FAM##_##OP,
  WARIO_EMU_FUSED_KINDS(WARIO_FK_X, WARIO_FK_A)
#undef WARIO_FK_X
#undef WARIO_FK_A
  FK_KindLimit,
};

static_assert(int(MOp::Nop) < int(FK_FirstFused),
              "identity kinds must not collide with fused kinds");

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
