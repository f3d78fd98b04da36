//===----------------------------------------------------------------------===//
///
/// \file
/// Superinstruction fusion over the decoded program (DESIGN.md §7.7).
///
/// The threaded engine dispatches *groups* of instructions: a fusion
/// pass runs once per module and assigns every program index a
/// FusedInst — either the identity group (one instruction; Kind is the
/// MOp value itself) or a superinstruction covering 2–3 consecutive
/// instructions matched against a fixed catalog of hot Thumb-2 idioms
/// (load–op–store, compare+branch, immediate-feed ALU chains — the
/// patterns a dynamic pair/triple histogram of the six workloads ranks
/// highest). Groups overlap freely: every pc keeps its own entry, so a
/// branch into the middle of someone else's group simply dispatches the
/// group that *starts* there. Fusion never changes semantics — each
/// component executes exactly the interpreter's transition — it only
/// collapses dispatches.
///
/// The catalog is expanded from the X-macros below in three places (the
/// FusedKind enum, the fusion matcher, and the threaded engine's
/// dispatch table), so the three can never disagree on numbering.
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

/// The full 9x9 ALU pair family (first op x second op), appended after
/// the base catalog. Covers every back-to-back single-cycle ALU pair
/// the six fixed pairs above miss.
#define WARIO_EMU_ALU81_ROW(P, OP0)                                            \
  P(OP0, Add) P(OP0, Sub) P(OP0, Mul) P(OP0, And) P(OP0, Orr)                  \
  P(OP0, Eor) P(OP0, Lsl) P(OP0, Lsr) P(OP0, Asr)
#define WARIO_EMU_ALU81(P)                                                     \
  WARIO_EMU_ALU81_ROW(P, Add) WARIO_EMU_ALU81_ROW(P, Sub)                      \
  WARIO_EMU_ALU81_ROW(P, Mul) WARIO_EMU_ALU81_ROW(P, And)                      \
  WARIO_EMU_ALU81_ROW(P, Orr) WARIO_EMU_ALU81_ROW(P, Eor)                      \
  WARIO_EMU_ALU81_ROW(P, Lsl) WARIO_EMU_ALU81_ROW(P, Lsr)                      \
  WARIO_EMU_ALU81_ROW(P, Asr)

/// Second-level catalog: concatenations of two first-level groups,
/// curated from dynamic group-pair histograms of the workload suite.
/// P(Name, K1, K2) fuses adjacent groups of kinds K1 and K2 into one
/// superinstruction named Name (components listed left to right in the
/// name). The first group must not end in a branch or a checkpoint —
/// execution must fall through to the second group unconditionally.
#define WARIO_EMU_PAIR_KINDS(P)                                                \
  /* CRC: table-lookup loop body and its epilogue compare/branch. */           \
  P(Str_LdrSlot_Str_LdrSlot, FK_Str_LdrSlot, FK_Str_LdrSlot)                   \
  P(Mov_CBr, uint16_t(MOp::Mov), uint16_t(MOp::CBr))                           \
  P(SetCond_Mov_CBr, uint16_t(MOp::SetCond), FK_Mov_CBr)                       \
  P(LdrSlot_SetCond_CBr, uint16_t(MOp::LdrSlot), FK_SetCond_CBr)               \
  P(Add_Mov_Ldr_Eor_MovImm, FK_Add_Mov_Ldr, FK_Alu_MovImm_Eor)                 \
  P(Add_Mov_Ldr_MovImm_Lsr, FK_Add_Mov_Ldr, FK_MovImm_Alu_Lsr)                 \
  P(Eor_MovImm_And_MovImm, FK_Alu_MovImm_Eor, FK_Alu_MovImm_And)               \
  P(And_MovImm_MovImm_Lsl, FK_Alu_MovImm_And, FK_MovImm_Alu_Lsl)               \
  P(MovImm_Lsl_Add_Mov_Ldr, FK_MovImm_Alu_Lsl, FK_Add_Mov_Ldr)                 \
  P(MovImm_Add_Mov_MovImm, FK_MovImm_Alu_Add, FK_Mov_MovImm)                   \
  P(Str_MovImm_Add, uint16_t(MOp::Str), FK_MovImm_Alu_Add)                     \
  P(MovImm_Add_LdrSlot, FK_MovImm_Alu_Add, uint16_t(MOp::LdrSlot))             \
  P(Str_Str, uint16_t(MOp::Str), uint16_t(MOp::Str))                           \
  P(MovImm_LdrSlot_Lsr_LdrSlot_Eor_StrSlot, FK_MovImm_LdrSlot_Alu_Lsr,         \
    FK_LdrSlot_Alu_StrSlot_Eor)                                                \
  P(MovImm_LdrSlot_Lsl_LdrSlot_Eor_StrSlot, FK_MovImm_LdrSlot_Alu_Lsl,         \
    FK_LdrSlot_Alu_StrSlot_Eor)                                                \
  P(LdrSlot_Eor_StrSlot_MovImm_LdrSlot_Lsl, FK_LdrSlot_Alu_StrSlot_Eor,        \
    FK_MovImm_LdrSlot_Alu_Lsl)                                                 \
  /* SHA: rotate/accumulate mills and the schedule copy loops. */              \
  P(LdrSlot_Mov_LdrSlot_Mov, FK_LdrSlot_Mov, FK_LdrSlot_Mov)                   \
  P(StrSlot_Mov_StrSlot_Mov, FK_StrSlot_Mov, FK_StrSlot_Mov)                   \
  P(Lsl_MovImm_Lsr, FK_Alu_MovImm_Lsl, uint16_t(MOp::Lsr))                     \
  P(Lsl_Add_Mov_Ldr, FK_Lsl_Add, FK_Mov_Ldr)                                   \
  P(Mov_Ldr_Eor_MovImm, FK_Mov_Ldr, FK_Alu_MovImm_Eor)                         \
  P(Sub_MovImm_Lsl_Add, FK_Alu_MovImm_Sub, FK_Lsl_Add)                         \
  P(Eor_MovImm_Sub_MovImm, FK_Alu_MovImm_Eor, FK_Alu_MovImm_Sub)               \
  P(Mov_Mov_Mov_Mov, FK_Mov_Mov, FK_Mov_Mov)                                   \
  P(Add_MovImm_MovImm_Lsl, FK_Alu_MovImm_Add, FK_MovImm_Alu_Lsl)               \
  P(MovImm_Sub_MovImm_Lsl, FK_MovImm_Alu_Sub, FK_MovImm_Alu_Lsl)               \
  /* AES: state loads/stores and the xtime/mix-column shift chains. */         \
  P(LdrSlot_LdrSlot_Str_LdrSlot, FK_LdrSlot_LdrSlot, FK_Str_LdrSlot)           \
  P(Str_LdrSlot_LdrSlot_Str, FK_Str_LdrSlot, FK_LdrSlot_Str)                   \
  P(Eor_Lsl_Lsr_Lsl, FK_Eor_Lsl, FK_Lsr_Lsl)                                   \
  P(LdrSlot_Str_LdrSlot_LdrSlot, FK_LdrSlot_Str, FK_LdrSlot_LdrSlot)           \
  P(Add_MovImm_SetCond_CBr, FK_Alu_MovImm_Add, FK_SetCond_CBr)                 \
  P(Lsr_Lsl_Lsr_StrSlot, FK_Lsr_Lsl, FK_Alu_StrSlot_Lsr)                       \
  P(LdrSlot_Str_LdrSlot_Str, FK_LdrSlot_Str, FK_LdrSlot_Str)                   \
  P(MovImm_LdrSlot_Lsr_MovImm_Mul, FK_MovImm_LdrSlot_Alu_Lsr,                  \
    FK_MovImm_Alu_Mul)                                                         \
  P(Lsr_StrSlot_MovImm_LdrSlot_Lsl, FK_Alu_StrSlot_Lsr,                        \
    FK_MovImm_LdrSlot_Alu_Lsl)                                                 \
  P(MovImm_LdrSlot_Lsl_MovImm_LdrSlot_Lsr, FK_MovImm_LdrSlot_Alu_Lsl,          \
    FK_MovImm_LdrSlot_Alu_Lsr)                                                 \
  P(MovImm_Mul_Eor_Lsl, FK_MovImm_Alu_Mul, FK_Eor_Lsl)                         \
  P(MovImm_LdrSlot_And_MovImm_SetCond_CBr, FK_MovImm_LdrSlot_Alu_And,          \
    FK_MovImm_SetCond_CBr)                                                     \
  P(Lsl_Lsr_StrSlot_Add_MovImm, FK_Lsl_Lsr_StrSlot, FK_Alu_MovImm_Add)         \
  P(Lsr_StrSlot_LdrSlot_Lsr, FK_Alu_StrSlot_Lsr, FK_LdrSlot_Alu_Lsr)           \
  P(LdrSlot_Lsr_Lsl_Lsr_StrSlot, FK_LdrSlot_Alu_Lsr, FK_Lsl_Lsr_StrSlot)       \
  P(LdrSlot_Ldr, uint16_t(MOp::LdrSlot), uint16_t(MOp::Ldr))                    \
  /* Round 2, CRC: the table-walk body absorbed head-first (each entry  */      \
  /* extends the previous chain kind, so the fixpoint builds the full   */      \
  /* body left to right), plus the residual shift/store idioms.         */      \
  P(CrcA1, FK_Add_Mov_Ldr_Eor_MovImm, FK_And_MovImm_MovImm_Lsl)                 \
  P(CrcA2, FK_CrcA1, FK_Add_Mov_Ldr_MovImm_Lsr)                                 \
  P(CrcA3, FK_CrcA2, FK_Alu_MovImm_Eor)                                         \
  P(CrcA4, FK_CrcA3, uint16_t(MOp::Add))                                        \
  P(Add_SetCond_Mov_CBr, uint16_t(MOp::Add), FK_SetCond_Mov_CBr)                \
  P(StrLdr2, FK_Str_LdrSlot_Str_LdrSlot, FK_Str_LdrSlot_Str_LdrSlot)            \
  P(CrcB1, FK_MovImm_Add_Mov_MovImm, FK_LdrSlot_Alu_Lsl)                        \
  P(CrcB2, FK_CrcB1, FK_LdrSlot_Alu_StrSlot_Eor)                                \
  P(CrcB3, FK_CrcB2, FK_MovImm_LdrSlot_Lsr_LdrSlot_Eor_StrSlot)                 \
  P(CrcC1, FK_MovImm_LdrSlot_Lsl_LdrSlot_Eor_StrSlot, FK_LdrSlot_Alu_Lsr)       \
  P(CrcC2, FK_CrcC1, FK_MovImm_Alu_Lsl)                                         \
  P(CrcC3, FK_CrcC2, FK_Lsr_Lsl)                                                \
  P(CrcC4, FK_CrcC3, uint16_t(MOp::Lsr))                                        \
  P(CrcC5, FK_CrcC4, FK_Str_MovImm_Add)                                         \
  P(Str_MovImm_Add_LdrSlot_SetCond_CBr, FK_Str_MovImm_Add,                      \
    FK_LdrSlot_SetCond_CBr)                                                     \
  P(Lsl_Lsr_Lsl_Lsr, FK_Lsl_Lsr, FK_Lsl_Lsr)                                    \
  P(Lsl_Lsr_Str_MovImm_Add, FK_Lsl_Lsr, FK_Str_MovImm_Add)                      \
  P(Lsr_MovImm_Lsl_Lsr, FK_Alu_MovImm_Lsr, FK_Lsl_Lsr)                          \
  /* Round 2, SHA: schedule copies and the rotate/accumulate spine. */          \
  P(ShaA1, FK_Sub_MovImm_Lsl_Add, FK_Mov_Ldr_Eor_MovImm)                        \
  P(Mov_Mov_Mov_Mov_B, FK_Mov_Mov_Mov_Mov, uint16_t(MOp::B))                    \
  P(Mov_MovImm_SetCond_CBr, FK_Mov_MovImm, FK_SetCond_CBr)                      \
  P(StrSlot_B, uint16_t(MOp::StrSlot), uint16_t(MOp::B))                        \
  P(LdrMov4x2, FK_LdrSlot_Mov_LdrSlot_Mov, FK_LdrSlot_Mov_LdrSlot_Mov)          \
  P(LdrSlot_Mov_StrSlot_LdrSlot, FK_LdrSlot_Mov, FK_StrSlot_LdrSlot)            \
  P(MovImm_Mov_B, FK_MovImm_Mov, uint16_t(MOp::B))                              \
  P(ShaB1, FK_Add_MovImm_MovImm_Lsl, FK_Add_Mov_Ldr)                            \
  P(ShaB2, FK_ShaB1, FK_Alu_MovImm_Add)                                         \
  P(Lsl_MovImm_Lsr_Orr_MovImm, FK_Lsl_MovImm_Lsr, FK_Alu_MovImm_Orr)            \
  P(StrMov4x2, FK_StrSlot_Mov_StrSlot_Mov, FK_StrSlot_Mov_StrSlot_Mov)          \
  P(StrMov4_StrMov, FK_StrSlot_Mov_StrSlot_Mov, FK_StrSlot_Mov)                 \
  P(StrSlot_Mov_StrSlot, FK_StrSlot_Mov, uint16_t(MOp::StrSlot))                \
  P(Orr_Add_LdrSlot_Add, FK_Alu2_Orr_Add, FK_LdrSlot_Alu_Add)                   \
  P(Mov_Mov_MovImm_Lsl, FK_Mov_Mov, FK_MovImm_Alu_Lsl)                          \
  /* Round 2, AES: the xtime mill and the state copy loops. */                  \
  P(AesA1, FK_MovImm_LdrSlot_Alu_Lsl, FK_Lsr_StrSlot_MovImm_LdrSlot_Lsl)        \
  P(AesA2, FK_AesA1, FK_MovImm_LdrSlot_Lsr_MovImm_Mul)                          \
  P(AesB1, FK_Eor_Lsl_Lsr_Lsl, FK_Lsr_StrSlot_LdrSlot_Lsr)                      \
  P(AesC1, FK_Lsl_Lsr_StrSlot_Add_MovImm, FK_SetCond_CBr)                       \
  P(AesD1, FK_LdrSlot_LdrSlot_Str_LdrSlot, FK_LdrSlot_Str_LdrSlot_LdrSlot)      \
  P(AesE1, FK_LdrSlot_Str_LdrSlot_Str, FK_LdrSlot_Str_LdrSlot_Str)              \
  P(MovImm_Add_Mov_Ldr, FK_MovImm_Alu_Add, FK_Mov_Ldr)                          \
  P(LdrSlot_Mov_MovImm_SetCond_CBr, FK_LdrSlot_Mov, FK_MovImm_SetCond_CBr)      \
  P(Mov_StrSlot_B, FK_Mov_StrSlot, uint16_t(MOp::B))                            \
  P(Lsr_MovImm_Mul, FK_Alu_MovImm_Lsr, uint16_t(MOp::Mul))                      \
  P(Eor_Lsl_Lsr_Lsl_Lsr, FK_Eor_Lsl_Lsr_Lsl, uint16_t(MOp::Lsr))                \
  P(Lsr_MovImm_Lsl_MovImm, FK_Alu_MovImm_Lsr, FK_Alu_MovImm_Lsl)                \
  P(Lsl_MovImm_Lsr_MovImm, FK_Alu_MovImm_Lsl, FK_Alu_MovImm_Lsr)                \
  /* Round 3: loop-iteration chains. Each entry extends the previous */        \
  /* link, up to the longest chain FusedCostLimit still admits.        */      \
  /* CRC byte loop: table-walk body and its unroll compare/branch.     */      \
  P(TrCrc0, FK_Mov_Mov, FK_SetCond_Mov_CBr)                                     \
  P(TrCrc2, FK_CrcA3, FK_Alu_Mov_Add)                                           \
  P(TrCrc3, FK_TrCrc2, uint16_t(MOp::Mov))                                      \
  /* SHA round spine: rotate/accumulate mill.                           */     \
  P(TrSha1, FK_Mov_Mov_MovImm_Lsl, FK_MovImm_Alu_Lsr)                           \
  P(TrSha2, FK_TrSha1, FK_Orr_Add_LdrSlot_Add)                                  \
  P(TrSha3, FK_TrSha2, FK_ShaB2)                                                \
  /* SHA schedule copy.                                                 */     \
  P(TrSha9, FK_LdrMov4x2, FK_LdrSlot_Mov_StrSlot_LdrSlot)                       \
  /* SHA majority/choice combine + round exit.                          */     \
  P(TrSha11, FK_Alu2_And_And, FK_Alu2_Orr_And)                                  \
  P(TrSha12, FK_TrSha11, FK_Alu_Mov_Orr)                                        \
  P(TrSha13, FK_TrSha12, FK_MovImm_Mov_B)

/// Group kinds. Values [0, 64) are identity groups — the kind is the
/// instruction's own MOp value, so the threaded engine's dispatch table
/// doubles as its per-op handler table. Fused kinds start at 64.
enum FusedKind : uint16_t {
  FK_FirstFused = 64,
  FK_Seed_ = FK_FirstFused - 1, // Placeholder so the list starts at 64.
#define WARIO_FK_X(NAME) FK_##NAME,
#define WARIO_FK_A(FAM, OP) FK_##FAM##_##OP,
#define WARIO_FK_A2(OP0, OP1) FK_Alu2_##OP0##_##OP1,
#define WARIO_FK_P(NAME, K1, K2) FK_##NAME,
  WARIO_EMU_FUSED_KINDS(WARIO_FK_X, WARIO_FK_A)
  WARIO_EMU_ALU81(WARIO_FK_A2)
  WARIO_EMU_PAIR_KINDS(WARIO_FK_P)
#undef WARIO_FK_X
#undef WARIO_FK_A
#undef WARIO_FK_A2
#undef WARIO_FK_P
  FK_KindLimit,
};

static_assert(int(MOp::Nop) < int(FK_FirstFused),
              "identity kinds must not collide with fused kinds");

/// One group in the fused stream (one entry per program index).
struct FusedInst {
  uint16_t Kind; ///< FusedKind, or the MOp value for identity groups.
  uint8_t Len;   ///< Component count (1 for identity).
  uint8_t Cost;  ///< Pre-summed cycle cost of the whole group.
};

/// Interior instruction boundaries of a dispatched group never carry an
/// interpreter-visible event, provided the engine stops dispatching
/// this margin short of the next event cycle (see Machine::fastLimit).
/// Every group's cost must stay below it.
constexpr uint64_t FusedCostLimit = 24;

struct FusedProgram {
  std::vector<FusedInst> Stream; ///< Parallel to the decoded program.
  uint64_t FusedEntries = 0;     ///< Stream entries with Len > 1.
  uint64_t CoveredInsts = 0;     ///< Sum of Len over fused entries.
};

/// Runs the fusion passes over \p Prog: greedy longest-match against
/// the base catalog, then repeated pairing of adjacent groups against
/// the second-level catalog until nothing else fuses.
FusedProgram fuseProgram(const std::vector<DecodedInst> &Prog);

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

/// Builds the engine stream from the decoded program and its groups.
std::vector<FastInst> buildFastProgram(const std::vector<DecodedInst> &Prog,
                                       const FusedProgram &FP);

} // namespace wario::emu_detail

#endif // WARIO_EMU_FUSION_H
