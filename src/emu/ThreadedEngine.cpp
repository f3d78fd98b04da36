//===----------------------------------------------------------------------===//
///
/// \file
/// The direct-threaded execution engine (DESIGN.md §7.7).
///
/// Machine::runThreaded executes the merged FastInst stream with one
/// computed-goto dispatch per group (a GNU extension, like the function
/// attributes below; GCC and Clang both provide it). The hot machine
/// state — the stream cursor, the active cycle counter, the instruction
/// counter, the WAR stamp pattern — is kept in locals and synced with
/// the Machine members only at the rare points that need them
/// (bail-outs, push/pop, checkpoint commits, loop exit).
///
/// Correctness contract with the interpreter (the byte-identity bar):
///  - The caller (Machine::run) enters only while the next
///    interpreter-visible event — power failure, interrupt delivery,
///    stop point, trace window, cycle-budget exhaustion — is at least
///    FusedCostLimit cycles away, and every group costs less than that,
///    so no event cycle can land at a group-interior boundary. The
///    loop exits at the margin and the interpreter walks the final
///    approach, checking events at every boundary exactly as before.
///  - Every handler replicates step()'s transition bit for bit
///    (ConstEval semantics, cycle costs, WAR stamping, StoreCycles
///    stamps at the storing component's pre-instruction cycle).
///  - Anything rare or irregular — out-of-bounds access, WAR
///    violation, OutPort store, division by zero, push/pop-time
///    failures, unlinked pseudos, the final Ret, a speculative
///    undo-logged store — *bails*: the handler backs out before
///    mutating the offending component (components already completed
///    stay completed, with pc and counters advanced past them), syncs
///    state, and lets step() execute that one instruction through the
///    interpreter's own code.
///  - The strategy runtimes (docs/STRATEGIES.md) match the member
///    paths: under differential the access paths skip the WAR stamps
///    (recordAccess returns before stamping) and a region's first store
///    to a page journals it (diffJournal); under speculative the stamps
///    work as for idempotent, and logged stores bail so step() runs
///    them through storeMem. A Checkpoint flushes the locals, commits
///    through commitCheckpoint itself (the one commit both engines
///    share) and reloads, leaving the loop only under ExitOnCommit.
///
/// Every fused handler is expanded from the catalog (Fusion.h), one per
/// pattern, and composed from per-component WB_<MOp>(k, PRE) bodies:
/// WB_X(k, PRE) executes component k of the group the cursor points at,
/// reading its operands from J[k] (the merged stream keeps every pc's
/// decoded fields even inside a group, so interior components are one
/// indexed load away). PRE, the storing component's StoreCycles stamp
/// base, is the componentCost sum over the components before it — a
/// constant per pattern unless a MovImm precedes the store. A component
/// that cannot complete invokes WARIO_PARTIAL(k): retire the k-component
/// prefix and bail.
///
//===----------------------------------------------------------------------===//

#include "emu/ThreadedEngine.h"

#include "emu/Machine.h"
#include "ir/ConstEval.h"

#include <bit>
#include <cstdlib>
#include <cstring>

using namespace wario;
using namespace wario::emu_detail;

EngineKind wario::resolveEngine(EngineKind Requested) {
  if (Requested != EngineKind::Auto)
    return Requested;
  // Read fresh on every call so tests can flip the kill switch with
  // setenv between runs.
  if (const char *E = std::getenv("WARIO_ENGINE")) {
    if (std::strcmp(E, "interp") == 0 || std::strcmp(E, "interpreter") == 0)
      return EngineKind::Interp;
  }
  return EngineKind::Threaded;
}

const char *wario::engineName(EngineKind K) {
  switch (K) {
  case EngineKind::Auto: return "auto";
  case EngineKind::Interp: return "interp";
  case EngineKind::Threaded: return "threaded";
  }
  return "?";
}

namespace {

/// AShr with the interpreter's clamp semantics (ConstEval.h).
inline uint32_t evalAsr(uint32_t A, uint32_t B) {
  int32_t SA = int32_t(A);
  if (B >= 32)
    return SA < 0 ? ~0u : 0u;
  return uint32_t(SA >> B);
}

/// SDiv with the INT_MIN / -1 clamp (divisor checked by the caller).
inline uint32_t evalSDiv(uint32_t A, uint32_t B) {
  int32_t SA = int32_t(A), SB = int32_t(B);
  if (SA == INT32_MIN && SB == -1)
    return uint32_t(SA);
  return uint32_t(SA / SB);
}

/// Cycle cost of the \p N-component retired prefix of a group, read
/// from the decoded program (the merged stream's interior Kind fields
/// describe the group *starting* there, not the component). Cold: only
/// partial-completion bails reach this.
__attribute__((noinline)) uint64_t retiredPrefix(const DecodedInst *I,
                                                 unsigned N) {
  uint64_t C = 0;
  for (unsigned K = 0; K != N; ++K)
    C += componentCost(I[K].Op, I[K].MovCost);
  return C;
}

/// Cold stamp maintenance for monitored word accesses, kept out of
/// line: the hot loop inlines the access fast paths at every component
/// site of every handler, so slow-path bytes multiply across the whole
/// engine and directly tax its I-cache footprint. Only the first touch
/// of a word per idempotent region (plus the rare mixed-stamp case)
/// lands here.
__attribute__((noinline)) void restampRead(uint16_t *A, uint32_t WantR) {
  for (unsigned K = 0; K != 4; ++K)
    if ((A[K] & ~1u) != WantR)
      A[K] = uint16_t(WantR);
}

/// The per-store page bookkeeping's slow path, out of line for the same
/// reason: under differential a region's first store to a page saves
/// its pristine copy (diffJournal, before the bytes change), and a
/// page's first write since the last snapshot is tracked (noteWrite).
__attribute__((noinline)) void noteStoreSlow(Machine &M, uint32_t Addr,
                                             unsigned Size) {
  if (M.Strat == CheckpointStrategy::Differential)
    M.diffJournal(Addr, Size);
  M.noteWrite(Addr, Size);
}

} // namespace

#define WARIO_ALWAYS_INLINE __attribute__((always_inline))

#define OP_CASE(N) H_Op_##N:
// Fused-group entry resets the in-group forwarding mirror (see fwdSrc):
// inside a group the producer is one component back (a hit), across
// groups it rarely is — a live cross-group FwdD just makes the hit
// branch unpredictable (measured ~15% worse on AES).
#define FK_CASE(N) H_FK_##N: FwdD = -1;
#define DISPATCH()                                                             \
  do {                                                                         \
    if (Active >= Limit)                                                       \
      goto out;                                                                \
    ++St.Dispatches;                                                           \
    goto *Tbl[J->Kind];                                                        \
  } while (0)

// Group retirement: cycles from the precomputed group cost (read BEFORE
// the cursor moves), then the cursor to Next — past every component, or
// the target a tail CBr chose.
#define WARIO_RETIRE(n)                                                        \
  do {                                                                         \
    Active += J->Cost;                                                         \
    Insts += (n);                                                              \
    J = Next;                                                                  \
    ++St.FusedDispatches;                                                      \
    St.FusedInstructions += (n);                                               \
  } while (0)

// Component k of the current group could not complete: retire the
// k-component prefix (cycle costs come from the decoded program — the
// merged stream's interior entries describe the group starting there,
// not the component) and hand the offender to step().
#define WARIO_PARTIAL(k)                                                       \
  do {                                                                         \
    if ((k) != 0) {                                                            \
      Active += retiredPrefix(Prog + (J - Fast), (k));                         \
      Insts += (k);                                                            \
      J += (k);                                                                \
    }                                                                          \
    goto bail;                                                                 \
  } while (0)

// --- Per-component transition bodies (component k of the group at J) -----
//
// Dependent components are the latency floor of a fused group: each one
// reads the register its predecessor just stored, and on typical hosts
// that register-file round trip is a multi-cycle store-to-load forward.
// (FwdD, FwdV) mirror the last register written inside the current
// group; a source matching FwdD reads the mirror — already in a host
// register — instead of R[]. FwdD resets to -1 at every group entry
// (FK_CASE), since identity handlers write registers without
// maintaining the mirror.
WARIO_ALWAYS_INLINE static inline uint32_t
fwdSrc(int32_t S, int32_t FwdD, uint32_t FwdV, const uint32_t *R) {
  if (__builtin_expect(S == FwdD, 1))
    return FwdV;
  // The empty asm keeps this a real (well-predicted) branch: if-converting
  // to a conditional move would put the R[] load back on the critical path.
  asm("");
  return R[S];
}
#define WB_SRC0(k) fwdSrc(J[k].Src0, FwdD, FwdV, R)
#define WB_SRC1(k) fwdSrc(J[k].Src1, FwdD, FwdV, R)
#define WB_SET(k, V) (FwdV = (V), FwdD = J[k].Dst, R[FwdD] = FwdV)
// One body per component MOp; the ALU ones are kept in lockstep with
// constEvalBinary. PRE (see the file comment) matters to stores only.
#define WB_MovImm(k, PRE) WB_SET(k, J[k].A);
#define WB_Mov(k, PRE) WB_SET(k, WB_SRC0(k));
#define WB_Add(k, PRE) WB_SET(k, WB_SRC0(k) + WB_SRC1(k));
#define WB_Sub(k, PRE) WB_SET(k, WB_SRC0(k) - WB_SRC1(k));
#define WB_Mul(k, PRE) WB_SET(k, WB_SRC0(k) * WB_SRC1(k));
#define WB_And(k, PRE) WB_SET(k, WB_SRC0(k) & WB_SRC1(k));
#define WB_Orr(k, PRE) WB_SET(k, WB_SRC0(k) | WB_SRC1(k));
#define WB_Eor(k, PRE) WB_SET(k, WB_SRC0(k) ^ WB_SRC1(k));
#define WB_Lsl(k, PRE)                                                         \
  WB_SET(k, WB_SRC1(k) >= 32 ? 0u : WB_SRC0(k) << WB_SRC1(k));
#define WB_Lsr(k, PRE)                                                         \
  WB_SET(k, WB_SRC1(k) >= 32 ? 0u : WB_SRC0(k) >> WB_SRC1(k));
#define WB_Asr(k, PRE) WB_SET(k, evalAsr(WB_SRC0(k), WB_SRC1(k)));
#define WB_SetCond(k, PRE)                                                     \
  WB_SET(k, constEvalPred(CmpPred(J[k].Aux), WB_SRC0(k), WB_SRC1(k)) ? 1 : 0);
#define WB_LdrSlot(k, PRE)                                                     \
  {                                                                            \
    uint32_t V_;                                                               \
    if (!fastLoad(R[SP] + J[k].A, 4, false, V_))                               \
      WARIO_PARTIAL(k);                                                        \
    WB_SET(k, V_);                                                             \
  }
#define WB_Ldr(k, PRE)                                                         \
  {                                                                            \
    uint32_t V_;                                                               \
    if (!fastLoad(WB_SRC0(k) + J[k].A, J[k].Aux & 0xFF,                        \
                  (J[k].Aux & 0x100) != 0, V_))                                \
      WARIO_PARTIAL(k);                                                        \
    WB_SET(k, V_);                                                             \
  }
#define WB_StrSlot(k, PRE)                                                     \
  if (!fastStore(R[SP] + J[k].A, 4, WB_SRC0(k), Active + (PRE)))               \
    WARIO_PARTIAL(k);
#define WB_Str(k, PRE)                                                         \
  if (!fastStore(WB_SRC1(k) + J[k].A, J[k].Aux & 0xFF, WB_SRC0(k),             \
                 Active + (PRE)))                                              \
    WARIO_PARTIAL(k);
// A tail CBr picks the group's successor (its cost is in the group's).
#define WB_CBr(k, PRE) Next = Fast + (WB_SRC0(k) != 0 ? J[k].T0 : J[k].A);

void Machine::runThreaded(uint64_t Limit) {
  const FastInst *const Fast = P.Fast.data();
  const DecodedInst *const Prog = P.Prog.data(); // Cold paths only.
  uint32_t *const R = Regs;
  uint8_t *const Mem = Scr.Mem.data();
  uint16_t *const Acc = Scr.Access.data();
  const bool Trace = Opts.CollectEventTrace;
  // Differential runs without the WAR monitor (recordAccess returns
  // before stamping): zero stamp masks make the SWAR checks below pass
  // without touching a stamp, and the page journal rides on the store
  // bookkeeping (noteStore).
  const bool Journal = Strat == CheckpointStrategy::Differential;
  const uint64_t RMask = Journal ? 0 : 0xFFFEFFFEFFFEFFFEull;
  const uint64_t WMask = Journal ? 0 : ~uint64_t(0);
  // Per-page "already recorded" marks of the store bookkeeping's three
  // consumers; an inactive consumer reads an all-set array.
  static const std::vector<uint8_t> AllSet(snapshot::NumPages, 1);
  const bool TW = TrackWrites || Journal;
  const uint8_t *const TMark =
      TrackWrites ? Scr.TouchedMark.data() : AllSet.data();
  const uint8_t *const SMark = Chain ? SnapMark.data() : AllSet.data();
  const uint8_t *const DMark = Journal ? DiffMark.data() : AllSet.data();

  // Hot state mirrored into locals. TotalCycles and CyclesSinceIrq
  // advance in lockstep with ActiveSinceBoot inside the loop, so one
  // local cycle counter plus a sync baseline covers all three.
  uint64_t Active = ActiveSinceBoot;
  uint64_t LastSync = Active;
  uint64_t Insts = Res.InstructionsExecuted;
  const uint64_t Insts0 = Insts;
  uint32_t WantR = Scr.Epoch << 1; ///< Read-this-epoch stamp.
  uint32_t WantW = WantR | 1u;     ///< Write-this-epoch stamp.

  EngineStats St;
  uint64_t BailSteps = 0;
  // In-group register forwarding mirror (see fwdSrc above).
  int32_t FwdD = -1;
  uint32_t FwdV = 0;
  // The program counter is the single cursor J into the merged stream;
  // every handler advances it so dispatch itself is just a bounds check
  // and one indirect jump.
  const FastInst *J = Fast + (Pc & ~CodeAddrBit);

  // The SWAR stamp patterns, hoisted out of every access: they only
  // change with the epoch, which reload() picks up.
  constexpr uint64_t Lanes = 0x0001000100010001ull;
  uint64_t RPat = Lanes * WantR;
  uint64_t WPat = RPat | Lanes;

  auto flush = [&] {
    Pc = CodeAddrBit | uint32_t(J - Fast);
    uint64_t D = Active - LastSync;
    Res.TotalCycles += D;
    CyclesSinceIrq += D;
    ActiveSinceBoot = Active;
    Res.InstructionsExecuted = Insts;
    LastSync = Active;
  };
  auto reload = [&] {
    J = Fast + (Pc & ~CodeAddrBit);
    Active = ActiveSinceBoot;
    LastSync = Active;
    Insts = Res.InstructionsExecuted;
    WantR = Scr.Epoch << 1;
    WantW = WantR | 1u;
    RPat = Lanes * WantR;
    WPat = RPat | Lanes;
    FwdD = -1; // Member code may have rewritten any register.
  };

  /// Per-store page bookkeeping — write tracking and the differential
  /// page journal — with a page every active consumer already recorded
  /// as the fast case (one predictable load per mark array once warm).
  auto noteStore = [&](uint32_t Addr, unsigned Size) WARIO_ALWAYS_INLINE {
    if (!TW)
      return;
    uint32_t P0 = Addr >> snapshot::PageShift;
    uint32_t P1 = (Addr + Size - 1) >> snapshot::PageShift;
    if (P0 == P1 && (TMark[P0] & SMark[P0] & DMark[P0]))
      return;
    noteStoreSlow(*this, Addr, Size);
  };

  /// Monitored load, replicating loadMem minus the failure paths.
  /// False = bail (out of bounds, or a checkpoint-range access that
  /// recordAccess would exempt — step() reproduces either exactly).
  auto fastLoad = [&](uint32_t Addr, unsigned Size, bool SignExtend,
                      uint32_t &V) WARIO_ALWAYS_INLINE -> bool {
    if (Addr > memmap::MemSize - Size || Addr - CkptBase < CkptEnd - CkptBase)
      return false;
    if (Size == 4) {
      // SWAR read-stamp: 4 bytes = 4 half-word stamps = one u64 compare.
      // Epoch bits (stamp & ~1) matching WantR on every byte means the
      // whole word was already touched this epoch — nothing to stamp.
      uint64_t S;
      std::memcpy(&S, Acc + Addr, 8);
      if (((S ^ RPat) & RMask) != 0)
        restampRead(Acc + Addr, WantR);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
      std::memcpy(&V, Mem + Addr, 4);
#else
      V = uint32_t(Mem[Addr]) | uint32_t(Mem[Addr + 1]) << 8 |
          uint32_t(Mem[Addr + 2]) << 16 | uint32_t(Mem[Addr + 3]) << 24;
#endif
      return true;
    }
    for (unsigned K = 0; K != Size && !Journal; ++K) {
      if ((Acc[Addr + K] & ~1u) != WantR)
        Acc[Addr + K] = uint16_t(WantR);
    }
    V = 0;
    for (unsigned K = 0; K != Size; ++K)
      V |= uint32_t(Mem[Addr + K]) << (8 * K);
    if (SignExtend && Size < 4) {
      uint32_t SignBit = 1u << (Size * 8 - 1);
      if (V & SignBit)
        V |= ~((SignBit << 1) - 1);
    }
    return true;
  };

  /// Monitored store, replicating storeMem minus the irregular paths.
  /// \p ActivePre is the storing *component's* pre-execution cycle (the
  /// StoreCycles stamp base). False = bail, with nothing mutated:
  /// OutPort / out of bounds / checkpoint range, or a WAR violation
  /// (step() redoes the counting, reporting, and fatal handling; the
  /// stamp state is untouched so recordAccess sees what it would have).
  auto fastStore = [&](uint32_t Addr, unsigned Size, uint32_t V,
                       uint64_t ActivePre) WARIO_ALWAYS_INLINE -> bool {
    if (Addr > memmap::MemSize - Size || Addr - CkptBase < CkptEnd - CkptBase)
      return false;
    if (Size == 4) {
      uint64_t S;
      std::memcpy(&S, Acc + Addr, 8);
      // All four bytes already written this epoch (the steady state of a
      // loop rewriting its slots): no violation possible, stamps already
      // final — nothing to check or store.
      if (((S ^ WPat) & WMask) != 0) {
        // Any lane exactly == WantR (read-first this epoch) is a WAR
        // violation: zero-lane detect on the XORed stamps. Borrow
        // propagation can only misfire toward a false positive, and a
        // bail just hands the store to step() for the exact verdict.
        const uint64_t X = S ^ RPat;
        if (((X - Lanes) & ~X & 0x8000800080008000ull) != 0)
          return false;
        std::memcpy(Acc + Addr, &WPat, 8);
      }
    } else if (!Journal) {
      for (unsigned K = 0; K != Size; ++K)
        if (Acc[Addr + K] == WantR)
          return false;
      for (unsigned K = 0; K != Size; ++K)
        Acc[Addr + K] = uint16_t(WantW);
    }
    if (Trace && (Res.StoreCycles.empty() ||
                  Res.StoreCycles.back() != ActivePre + 1))
      Res.StoreCycles.push_back(ActivePre + 1);
    noteStore(Addr, Size);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (Size == 4)
      std::memcpy(Mem + Addr, &V, 4);
    else
#endif
      for (unsigned K = 0; K != Size; ++K)
        Mem[Addr + K] = uint8_t(V >> (8 * K));
    return true;
  };

  // The next step() (or fused handler) makes the region stale exactly
  // like the interpreter's step() would; setting it up front keeps the
  // outer loop's region-fresh consumers (snapshot cadence, splice
  // matching) in lockstep even when this loop exits at the margin.
  RegionFresh = false;

  // Dispatch table, indexed by FastInst::Kind: identity groups in MOp
  // declaration order, then the fused kinds in catalog order.
  static const void *const Tbl[] = {
      &&H_Op_MovImm, &&H_Op_MovGlobal, &&H_Op_Mov,
      &&H_Op_Add, &&H_Op_Sub, &&H_Op_Mul, &&H_Op_UDiv, &&H_Op_SDiv,
      &&H_Op_And, &&H_Op_Orr, &&H_Op_Eor, &&H_Op_Lsl, &&H_Op_Lsr,
      &&H_Op_Asr, &&H_Op_AddImm, &&H_Op_SetCond, &&H_Op_SelectR,
      &&H_Op_Ldr, &&H_Op_Str, &&H_Op_LdrSlot, &&H_Op_StrSlot,
      &&H_Op_FrameAddr, &&H_Op_CallPseudo, &&H_Op_ArgGet, &&H_Op_Bl,
      &&H_Op_B, &&H_Op_CBr, &&H_Op_Ret, &&H_Op_Push, &&H_Op_Pop,
      &&H_Op_PopLoads, &&H_Op_SpAdjust, &&H_Op_Checkpoint, &&H_Op_Out,
      &&H_Op_IntMask, &&H_Op_IntUnmask, &&H_Op_Nop,
#define WARIO_TBL_P(A, B) &&H_FK_##A##_##B,
#define WARIO_TBL_T(A, B, C) &&H_FK_##A##_##B##_##C,
      WARIO_EMU_FUSED_KINDS(WARIO_TBL_P, WARIO_TBL_T)
#undef WARIO_TBL_P
#undef WARIO_TBL_T
  };
  static_assert(sizeof(Tbl) / sizeof(Tbl[0]) == FK_KindLimit,
                "dispatch table out of sync with the kind numbering");
  static_assert(FK_FirstFused == 37, "identity block out of sync with MOp");

  DISPATCH();

  // --- Identity groups (one instruction; step()'s transition inlined) ------

  OP_CASE(MovImm) {
    WB_MovImm(0, 0)
    Active += J->Aux; // Pre-decoded MovImm cycle cost (1 or 2).
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(Mov) {
    WB_Mov(0, 0)
    Active += 1;
    ++Insts;
    ++J;
  }
  DISPATCH();

#define WARIO_H_ALUOP(OP, ...)                                                 \
  OP_CASE(OP) {                                                                \
    WB_##OP(0, 0)                                                              \
    Active += 1;                                                               \
    ++Insts;                                                                   \
    ++J;                                                                       \
  }                                                                            \
  DISPATCH();
  WARIO_EMU_ALU9(WARIO_H_ALUOP, _)
#undef WARIO_H_ALUOP

  OP_CASE(UDiv)
  OP_CASE(SDiv) {
    uint32_t B = R[J->Src1];
    if (B == 0)
      goto bail; // Division by zero: step() raises the trap.
    uint32_t A = R[J->Src0];
    WB_SET(0, J->Kind == uint16_t(MOp::UDiv) ? A / B : evalSDiv(A, B));
    Active += 6;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(AddImm) {
    WB_SET(0, WB_SRC0(0) + J->A);
    Active += 1;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(SetCond) {
    WB_SetCond(0, 0)
    Active += 2;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(SelectR) {
    WB_SET(0, R[J->Src0] != 0 ? R[J->Src1] : R[J->Aux]);
    Active += 2;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(Ldr) {
    WB_Ldr(0, 0)
    Active += 2;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(Str) {
    if (J->Aux & AuxLogged)
      goto bail; // Speculative undo-logged store: storeMem journals it.
    WB_Str(0, 0)
    Active += 2;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(LdrSlot) {
    WB_LdrSlot(0, 0)
    Active += 2;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(StrSlot) {
    WB_StrSlot(0, 0)
    Active += 2;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(FrameAddr) {
    WB_SET(0, R[SP] + J->A);
    Active += 1;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(Bl) {
    uint32_t T = J->T0;
    if (T == BadTarget)
      goto bail; // Unlinked call: step() reports it.
    R[LR] = CodeAddrBit | J->A; // Pre-encoded return link (own pc + 1).
    FwdD = -1;                  // lr write bypasses the mirror.
    Active += 1 + cycles::PipelineRefill;
    ++Insts;
    J = Fast + T;
  }
  DISPATCH();

  OP_CASE(B) {
    Active += 1 + cycles::PipelineRefill;
    ++Insts;
    J = Fast + J->T0;
  }
  DISPATCH();

  OP_CASE(CBr) {
    Active += 1 + cycles::PipelineRefill;
    ++Insts;
    J = Fast + (R[J->Src0] != 0 ? J->T0 : J->A);
  }
  DISPATCH();

  OP_CASE(Ret) {
    uint32_t L = R[LR];
    if (L == LrSentinel || !(L & CodeAddrBit))
      goto bail; // Program end (or corrupt lr): step() finishes it.
    Active += 1 + cycles::PipelineRefill;
    ++Insts;
    J = Fast + (L & ~CodeAddrBit);
  }
  DISPATCH();

  // Push/pop stay on the access fast paths (the member round trip is
  // ~1/8 of call-heavy workloads). Any irregularity — WAR violation,
  // out of bounds — bails so step() redoes the *whole* instruction
  // through the member paths: partial fast-path effects are idempotent
  // (same bytes, blanket stamps, deduped StoreCycles), so the redo is
  // bit-exact including the failure handling.
  OP_CASE(Push) {
    unsigned N = unsigned(std::popcount(unsigned(J->Aux)));
    uint32_t Base = R[SP] - 4 * N;
    unsigned Idx = 0;
    for (int Rn = 0; Rn != NumPRegs; ++Rn)
      if (J->Aux & (1u << Rn))
        if (!fastStore(Base + 4 * Idx++, 4, R[Rn], Active))
          goto bail;
    R[SP] = Base;
    FwdD = -1; // Direct sp write bypasses the mirror.
    Active += 1 + N;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(Pop)
  OP_CASE(PopLoads) {
    unsigned N = unsigned(std::popcount(unsigned(J->Aux)));
    unsigned Idx = 0;
    for (int Rn = 0; Rn != NumPRegs; ++Rn)
      if (J->Aux & (1u << Rn)) {
        uint32_t V;
        if (!fastLoad(R[SP] + 4 * Idx++, 4, false, V))
          goto bail;
        R[Rn] = V;
      }
    if (J->Kind == uint16_t(MOp::Pop))
      R[SP] += 4 * N;
    FwdD = -1; // Popped registers bypass the mirror.
    Active += 1 + N;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(SpAdjust) {
    R[SP] += J->A;
    FwdD = -1; // Direct sp write bypasses the mirror.
    Active += 1;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(Checkpoint) {
    CheckpointCause C = CheckpointCause(J->Aux);
    ++Insts;
    ++J; // The committed resume point is *after* this instruction.
    flush();
    commitCheckpoint(C);
    reload(); // Commit cycles + the fresh region epoch.
    if (ExitOnCommit)
      goto out; // Snapshot cadence / splice matching run out there.
    // Unobserved between here and the next instruction (no recorder,
    // no splicer), and the next dispatch makes it stale anyway.
    RegionFresh = false;
  }
  DISPATCH();

  OP_CASE(Out) {
    Res.Output.push_back(int32_t(R[J->Src0]));
    Active += 2;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(IntMask) {
    // Masking can only *delay* the interrupt bound Limit already
    // accounts for; keeping the tighter limit is safe.
    Primask = true;
    Active += 1;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(IntUnmask) {
    Primask = false;
    Active += 1;
    ++Insts;
    ++J;
    // Unmasking can make an interrupt deliverable at the very next
    // boundary — beyond what Limit accounted for. Hand back.
    if (Opts.InterruptPeriod)
      goto out;
  }
  DISPATCH();

  OP_CASE(Nop) {
    Active += 1;
    ++Insts;
    ++J;
  }
  DISPATCH();

  OP_CASE(MovGlobal)
  OP_CASE(CallPseudo)
  OP_CASE(ArgGet)
  goto bail; // Unlinked/unexpanded: step() raises the proper error.

  // --- Fused groups (components retire strictly in order) ------------------

// One handler per catalog pattern. PRE sums componentCost over the
// components before k; J[i].Aux is a MovImm's decoded cost and is read
// only when component i is a MovImm.
#define WARIO_COST(OP, i) componentCost(MOp::OP, J[i].Aux)
#define WARIO_H_P(A, B)                                                        \
  FK_CASE(A##_##B) {                                                           \
    const FastInst *Next = J + 2;                                              \
    WB_##A(0, 0)                                                               \
    WB_##B(1, WARIO_COST(A, 0))                                                \
    WARIO_RETIRE(2);                                                           \
  }                                                                            \
  DISPATCH();
#define WARIO_H_T(A, B, C)                                                     \
  FK_CASE(A##_##B##_##C) {                                                     \
    const FastInst *Next = J + 3;                                              \
    WB_##A(0, 0)                                                               \
    WB_##B(1, WARIO_COST(A, 0))                                                \
    WB_##C(2, WARIO_COST(A, 0) + WARIO_COST(B, 1))                             \
    WARIO_RETIRE(3);                                                           \
  }                                                                            \
  DISPATCH();
  WARIO_EMU_FUSED_KINDS(WARIO_H_P, WARIO_H_T)
#undef WARIO_H_P
#undef WARIO_H_T
#undef WARIO_COST

bail:
  // Something irregular at the current pc (counters already advanced
  // past any retired components): sync, let the interpreter execute
  // exactly one instruction through its own code, and resume. No
  // outer-loop event can fire before that boundary — the caller's
  // margin guarantees it — so going straight back to dispatch is
  // exactly the interpreter's own sequencing.
  flush();
  ++BailSteps;
  step();
  reload();
  if (Done || Failed)
    goto out;
  DISPATCH();

out:
  flush();
  St.ThreadedInstructions = (Insts - Insts0) - BailSteps;
  if (Stats)
    *Stats += St;
}
