//===----------------------------------------------------------------------===//
///
/// \file
/// Machine IR for the modeled Thumb-2 / Cortex-M target.
///
/// The back end lowers WARio IR to this register-machine form: virtual
/// registers before allocation, physical registers r0-r12/sp/lr/pc after.
/// The emulator executes MIR directly; every instruction carries enough
/// payload (access sizes, frame slots, checkpoint causes) for the cycle
/// model, the code-size model, and the WAR monitor.
///
/// Deviations from real Thumb-2, chosen to keep the model tractable and
/// documented in DESIGN.md: compares materialize a 0/1 register instead of
/// NZCV flags; conditional execution uses an explicit select; rem is
/// expanded to div+mul+sub like on real Cortex-M (no hardware remainder).
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_BACKEND_MIR_H
#define WARIO_BACKEND_MIR_H

#include "ir/Module.h"

namespace wario {

/// Physical registers of the modeled core.
enum PReg : uint8_t {
  R0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12,
  SP, LR, PC,
  NumPRegs,
};

/// r0..r9 are allocatable; r10-r12 are reserved as spill scratch (a
/// select needs up to three reloaded sources).
inline constexpr unsigned NumAllocatable = 10;
inline constexpr PReg ScratchRegs[3] = {R10, R11, R12};
/// r0-r3 and r12 are clobbered by calls (AAPCS caller-saved).
inline constexpr uint16_t CallerSavedMask =
    (1u << R0) | (1u << R1) | (1u << R2) | (1u << R3) | (1u << R12);

const char *pregName(PReg R);

/// Machine opcodes.
enum class MOp : uint8_t {
  MovImm,    ///< dst = imm.
  MovGlobal, ///< dst = address of Global.
  Mov,       ///< dst = src0.
  // Three-address ALU: dst = src0 op src1.
  Add, Sub, Mul, UDiv, SDiv, And, Orr, Eor, Lsl, Lsr, Asr,
  AddImm,    ///< dst = src0 + imm.
  SetCond,   ///< dst = (src0 PRED src1) ? 1 : 0.
  SelectR,   ///< dst = src0 ? src1 : src2 (IT-block conditional move).
  Ldr,       ///< dst = mem[src0 + imm], Size/Signed.
  Str,       ///< mem[src1 + imm] = src0, Size.
  LdrSlot,   ///< dst = mem[sp + offsetof(Slot)] (spill reload).
  StrSlot,   ///< mem[sp + offsetof(Slot)] = src0 (spill store).
  FrameAddr, ///< dst = sp + offsetof(Slot) (alloca address).
  CallPseudo,///< Pre-expansion call: CallArgs vregs, dst = result vreg.
  ArgGet,    ///< Pre-expansion: dst = incoming argument #Imm (in r0-r3).
  Bl,        ///< Branch-and-link to Callee (args already in r0-r3).
  B,         ///< Unconditional branch to Target[0].
  CBr,       ///< if (src0 != 0) goto Target[0] else Target[1].
  Ret,       ///< Return via lr; result (if any) in r0.
  Push,      ///< Push RegList (descending), sp -= 4*n.
  Pop,       ///< Pop RegList into registers, sp += 4*n.
  PopLoads,  ///< The loads of a converted pop; sp unchanged.
  SpAdjust,  ///< sp += imm (negative allocates).
  Checkpoint,///< Save registers to NVM (double-buffered); Cause payload.
  Out,       ///< Write src0 to the output port.
  IntMask,   ///< PRIMASK=1: hold pending interrupts.
  IntUnmask, ///< PRIMASK=0: deliver pending interrupts.
  Nop,
};

const char *mopName(MOp Op);

/// One machine instruction. Register fields hold virtual register indices
/// before allocation and PReg values afterwards (MFunction::PostRA says
/// which). -1 means "none".
struct MInst {
  MOp Op = MOp::Nop;
  int Dst = -1;
  int Src[3] = {-1, -1, -1};
  int64_t Imm = 0;
  const GlobalVariable *Global = nullptr;
  uint8_t Size = 4;
  bool Signed = false;
  CmpPred Pred = CmpPred::EQ;
  const Function *Callee = nullptr; ///< Valid until the link step.
  int CalleeIdx = -1;               ///< Resolved by the link step.
  int Target[2] = {-1, -1};
  CheckpointCause Cause = CheckpointCause::MiddleEndWar;
  uint16_t RegList = 0;
  int Slot = -1;
  /// Str only: speculative-strategy undo-logged WAR write (lowered from
  /// Instruction::isSpecLogged; the emulator journals the old value).
  bool Logged = false;
  std::vector<int> CallArgs;

  bool isTerminator() const {
    return Op == MOp::B || Op == MOp::CBr || Op == MOp::Ret;
  }
  /// Modeled encoding size in bytes (Thumb-2-style 2/4-byte mix).
  unsigned sizeInBytes() const;
};

/// A machine basic block; branch targets are indices into the parent
/// MFunction's block vector.
struct MBasicBlock {
  std::string Name;
  std::vector<MInst> Insts;
};

/// A frame slot: either an alloca carried over from the IR or a register
/// spill created by the allocator.
struct FrameSlot {
  enum class Kind { Alloca, Spill };
  Kind SlotKind;
  uint32_t SizeBytes;
  /// Byte offset from the post-prologue SP; set by frame lowering.
  int32_t Offset = -1;
};

/// A machine function.
struct MFunction {
  std::string Name;
  std::vector<MBasicBlock> Blocks;
  unsigned NumVRegs = 0;
  bool PostRA = false;
  bool FrameLowered = false;
  std::vector<FrameSlot> Slots;
  uint32_t FrameSize = 0;       ///< Bytes of slot storage (after layout).
  uint16_t SavedRegMask = 0;    ///< Callee-saved registers pushed.

  /// Successor block indices of block \p B.
  std::vector<int> successors(int B) const {
    std::vector<int> S;
    if (Blocks[B].Insts.empty())
      return S;
    const MInst &T = Blocks[B].Insts.back();
    for (int I = 0; I != 2; ++I)
      if (T.Target[I] >= 0 &&
          (T.Op == MOp::B || T.Op == MOp::CBr))
        S.push_back(T.Target[I]);
    return S;
  }

  unsigned countOpcode(MOp Op) const {
    unsigned N = 0;
    for (const MBasicBlock &BB : Blocks)
      for (const MInst &I : BB.Insts)
        if (I.Op == Op)
          ++N;
    return N;
  }

  /// Modeled .text contribution in bytes.
  unsigned sizeInBytes() const {
    unsigned N = 0;
    for (const MBasicBlock &BB : Blocks)
      for (const MInst &I : BB.Insts)
        N += I.sizeInBytes();
    return N;
  }
};

/// A lowered, linked program. After runBackend's link step the module is
/// fully self-contained: global addresses are resolved into immediates,
/// call targets into function indices, and the initialized data segment
/// is captured as a byte image — the IR module may be destroyed.
struct MModule {
  std::string Name;
  std::vector<MFunction> Functions;
  /// One past the last initialized data byte (the data segment image).
  uint32_t DataEnd = 0;
  std::vector<uint8_t> InitImage;
  /// Checkpoint strategy this module was compiled for; the emulator
  /// selects the matching runtime (journal / undo log / none).
  CheckpointStrategy Strat = CheckpointStrategy::Idempotent;
  /// Differential negative control (see PipelineOptions::DiffFullRollback).
  bool DiffFullRollback = true;

  MFunction *getFunction(const std::string &FnName) {
    for (MFunction &F : Functions)
      if (F.Name == FnName)
        return &F;
    return nullptr;
  }
  const MFunction *getFunction(const std::string &FnName) const {
    for (const MFunction &F : Functions)
      if (F.Name == FnName)
        return &F;
    return nullptr;
  }

  unsigned textSizeBytes() const {
    unsigned N = 0;
    for (const MFunction &F : Functions)
      N += F.sizeInBytes();
    return N;
  }
};

/// Renders a machine function as text (for tests and debugging). A call
/// the link step resolved prints as `bl @#<index>` here and by name in
/// printMModule.
std::string printMFunction(const MFunction &F);
std::string printMModule(const MModule &M);

} // namespace wario

#endif // WARIO_BACKEND_MIR_H
