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

#include <array>

using namespace wario;
using namespace wario::emu_detail;

namespace {

/// One catalog pattern: its component ops in execution order.
struct Pattern {
  MOp Ops[3];
  uint8_t Len;
};

/// The catalog, indexed by kind - FK_FirstFused.
constexpr Pattern Catalog[] = {
#define WARIO_PATTERN_P(A, B) {{MOp::A, MOp::B, MOp::Nop}, 2},
#define WARIO_PATTERN_T(A, B, C) {{MOp::A, MOp::B, MOp::C}, 3},
    WARIO_EMU_FUSED_KINDS(WARIO_PATTERN_P, WARIO_PATTERN_T)
#undef WARIO_PATTERN_P
#undef WARIO_PATTERN_T
};
constexpr size_t NumPatterns = sizeof(Catalog) / sizeof(Catalog[0]);
static_assert(FK_FirstFused + NumPatterns == FK_KindLimit);

/// The longest match at a pc is unique only if no two patterns of one
/// length share their ops.
constexpr bool catalogIsUnambiguous() {
  for (size_t A = 0; A != NumPatterns; ++A)
    for (size_t B = A + 1; B != NumPatterns; ++B)
      if (Catalog[A].Len == Catalog[B].Len &&
          Catalog[A].Ops[0] == Catalog[B].Ops[0] &&
          Catalog[A].Ops[1] == Catalog[B].Ops[1] &&
          Catalog[A].Ops[2] == Catalog[B].Ops[2])
        return false;
  return true;
}
static_assert(catalogIsUnambiguous(), "two catalog patterns share their ops");

/// Every group, at its dearest MovImm cost, must cost less than the
/// engine's event margin.
constexpr bool catalogFitsTheMargin() {
  for (const Pattern &Pt : Catalog) {
    unsigned Cost = 0;
    for (unsigned K = 0; K != Pt.Len; ++K)
      Cost += componentCost(Pt.Ops[K], 2);
    if (Cost >= FusedCostLimit)
      return false;
  }
  return true;
}
static_assert(catalogFitsTheMargin(), "a group's cost reaches FusedCostLimit");

/// At [A][B]: the kind of the pair pattern (A, B), or 0, with
/// TriplePrefix set when some triple starts with A, B (1369 bytes).
constexpr uint8_t TriplePrefix = 0x80;
static_assert(FK_KindLimit <= TriplePrefix, "a pair kind must fit 7 bits");
constexpr auto PairTable = [] {
  std::array<std::array<uint8_t, FK_FirstFused>, FK_FirstFused> T{};
  for (size_t K = 0; K != NumPatterns; ++K) {
    const Pattern &Pt = Catalog[K];
    T[size_t(Pt.Ops[0])][size_t(Pt.Ops[1])] |=
        Pt.Len == 3 ? TriplePrefix : uint8_t(FK_FirstFused + K);
  }
  return T;
}();

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
  auto make = [&](size_t Kind, unsigned Len) {
    unsigned Cost = 0;
    for (unsigned K = 0; K != Len; ++K)
      Cost += componentCost(Prog[pc + K].Op, Prog[pc + K].MovCost);
    return FusedInst{uint16_t(Kind), uint8_t(Len), uint8_t(Cost)};
  };

  // Components never span functions: groups stay within the region a
  // WAR diagnostic would attribute them to, and the tail of one
  // function can't speculatively pair with the next one's entry.
  // Logged stores never join a group.
  size_t R = 1;
  while (!isLoggedStore(I0) && R < 3 && pc + R < N &&
         Prog[pc + R].F == I0.F && !isLoggedStore(Prog[pc + R]))
    ++R;

  if (R >= 2) {
    const uint8_t E = PairTable[size_t(I0.Op)][size_t(Prog[pc + 1].Op)];
    if (R >= 3 && (E & TriplePrefix))
      for (size_t K = 0; K != NumPatterns; ++K)
        if (Catalog[K].Len == 3 && Catalog[K].Ops[0] == I0.Op &&
            Catalog[K].Ops[1] == Prog[pc + 1].Op &&
            Catalog[K].Ops[2] == Prog[pc + 2].Op)
          return make(FK_FirstFused + K, 3);
    if (E & ~TriplePrefix)
      return make(E & ~TriplePrefix, 2);
  }
  // Identity group: the kind is the MOp itself; singles compute their
  // own cycle cost in the engine, so Cost is unused here.
  return {uint16_t(I0.Op), 1, 0};
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
