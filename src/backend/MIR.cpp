#include "backend/MIR.h"

#include <bit>
#include <sstream>

using namespace wario;

const char *wario::pregName(PReg R) {
  static const char *Names[] = {"r0", "r1", "r2",  "r3",  "r4", "r5",
                                "r6", "r7", "r8",  "r9",  "r10", "r11",
                                "r12", "sp", "lr", "pc"};
  return R < NumPRegs ? Names[R] : "r?";
}

const char *wario::mopName(MOp Op) {
  switch (Op) {
  case MOp::MovImm: return "movimm";
  case MOp::MovGlobal: return "movglobal";
  case MOp::Mov: return "mov";
  case MOp::Add: return "add";
  case MOp::Sub: return "sub";
  case MOp::Mul: return "mul";
  case MOp::UDiv: return "udiv";
  case MOp::SDiv: return "sdiv";
  case MOp::And: return "and";
  case MOp::Orr: return "orr";
  case MOp::Eor: return "eor";
  case MOp::Lsl: return "lsl";
  case MOp::Lsr: return "lsr";
  case MOp::Asr: return "asr";
  case MOp::AddImm: return "addimm";
  case MOp::SetCond: return "setcond";
  case MOp::SelectR: return "select";
  case MOp::Ldr: return "ldr";
  case MOp::Str: return "str";
  case MOp::LdrSlot: return "ldrslot";
  case MOp::StrSlot: return "strslot";
  case MOp::FrameAddr: return "frameaddr";
  case MOp::CallPseudo: return "callpseudo";
  case MOp::ArgGet: return "argget";
  case MOp::Bl: return "bl";
  case MOp::B: return "b";
  case MOp::CBr: return "cbr";
  case MOp::Ret: return "ret";
  case MOp::Push: return "push";
  case MOp::Pop: return "pop";
  case MOp::PopLoads: return "poploads";
  case MOp::SpAdjust: return "spadjust";
  case MOp::Checkpoint: return "checkpoint";
  case MOp::Out: return "out";
  case MOp::IntMask: return "intmask";
  case MOp::IntUnmask: return "intunmask";
  case MOp::Nop: return "nop";
  }
  return "<bad mop>";
}

unsigned MInst::sizeInBytes() const {
  switch (Op) {
  case MOp::MovImm:
    // movw, plus movt when the constant needs the high half.
    return (uint64_t(Imm) & 0xFFFF0000u) ? 8 : 4;
  case MOp::MovGlobal:
    return 8; // movw+movt of a link-time address.
  case MOp::Mov:
  case MOp::Nop:
  case MOp::IntMask:
  case MOp::IntUnmask:
    return 2;
  case MOp::Add:
  case MOp::Sub:
  case MOp::And:
  case MOp::Orr:
  case MOp::Eor:
  case MOp::Lsl:
  case MOp::Lsr:
  case MOp::Asr:
    return 2; // Narrow encodings dominate for low registers.
  case MOp::Mul:
  case MOp::UDiv:
  case MOp::SDiv:
  case MOp::SetCond:   // cmp + ite + movs.
  case MOp::SelectR:
    return 4;
  case MOp::AddImm:
  case MOp::Ldr:
  case MOp::Str:
  case MOp::LdrSlot:
  case MOp::StrSlot:
  case MOp::FrameAddr:
    return 4;
  case MOp::CallPseudo:
  case MOp::ArgGet:
  case MOp::Bl:
  case MOp::Checkpoint: // A BL to the checkpoint routine.
    return 4;
  case MOp::B:
    return 2;
  case MOp::CBr:
    return 4; // cbz/cmp+bcc.
  case MOp::Ret:
    return 2; // bx lr.
  case MOp::Push:
  case MOp::Pop:
  case MOp::PopLoads:
    return std::popcount(RegList) > 8 ? 4 : 2;
  case MOp::SpAdjust:
    return 2;
  case MOp::Out:
    return 4; // str to MMIO.
  }
  return 4;
}

namespace {

void printReg(std::ostringstream &OS, int R, bool PostRA) {
  if (R < 0) {
    OS << "<none>";
    return;
  }
  if (PostRA)
    OS << pregName(PReg(R));
  else
    OS << "%v" << R;
}

/// \p M, when given, names linked call targets (the link step replaces
/// MInst::Callee with an index into M->Functions).
void printInst(std::ostringstream &OS, const MInst &I, const MFunction &F,
               const MModule *M) {
  OS << mopName(I.Op);
  auto Reg = [&](int R) { printReg(OS, R, F.PostRA); };
  switch (I.Op) {
  case MOp::MovImm:
    OS << ' ';
    Reg(I.Dst);
    OS << ", #" << I.Imm;
    break;
  case MOp::MovGlobal:
    OS << ' ';
    Reg(I.Dst);
    OS << ", @" << I.Global->getName();
    break;
  case MOp::Mov:
    OS << ' ';
    Reg(I.Dst);
    OS << ", ";
    Reg(I.Src[0]);
    break;
  case MOp::AddImm:
    OS << ' ';
    Reg(I.Dst);
    OS << ", ";
    Reg(I.Src[0]);
    OS << ", #" << I.Imm;
    break;
  case MOp::SetCond:
    OS << '.' << predName(I.Pred) << ' ';
    Reg(I.Dst);
    OS << ", ";
    Reg(I.Src[0]);
    OS << ", ";
    Reg(I.Src[1]);
    break;
  case MOp::SelectR:
    OS << ' ';
    Reg(I.Dst);
    OS << ", ";
    Reg(I.Src[0]);
    OS << " ? ";
    Reg(I.Src[1]);
    OS << " : ";
    Reg(I.Src[2]);
    break;
  case MOp::Ldr:
    OS << (I.Size == 4 ? "" : I.Size == 2 ? "h" : "b") << ' ';
    Reg(I.Dst);
    OS << ", [";
    Reg(I.Src[0]);
    OS << ", #" << I.Imm << ']';
    break;
  case MOp::Str:
    OS << (I.Size == 4 ? "" : I.Size == 2 ? "h" : "b") << ' ';
    Reg(I.Src[0]);
    OS << ", [";
    Reg(I.Src[1]);
    OS << ", #" << I.Imm << ']';
    if (I.Logged)
      OS << " !log"; // Speculative-strategy undo-logged WAR write.
    break;
  case MOp::LdrSlot:
    OS << ' ';
    Reg(I.Dst);
    OS << ", slot" << I.Slot;
    break;
  case MOp::StrSlot:
    OS << ' ';
    Reg(I.Src[0]);
    OS << ", slot" << I.Slot;
    break;
  case MOp::FrameAddr:
    OS << ' ';
    Reg(I.Dst);
    OS << ", slot" << I.Slot;
    break;
  case MOp::CallPseudo: {
    OS << ' ';
    if (I.Dst >= 0) {
      Reg(I.Dst);
      OS << " = ";
    }
    OS << '@' << I.Callee->getName() << '(';
    for (unsigned J = 0; J != I.CallArgs.size(); ++J) {
      if (J)
        OS << ", ";
      Reg(I.CallArgs[J]);
    }
    OS << ')';
    break;
  }
  case MOp::Bl:
    if (I.Callee)
      OS << " @" << I.Callee->getName();
    else if (M && I.CalleeIdx >= 0 &&
             unsigned(I.CalleeIdx) < M->Functions.size())
      OS << " @" << M->Functions[I.CalleeIdx].Name;
    else
      OS << " @#" << I.CalleeIdx;
    break;
  case MOp::B:
    OS << ' ' << F.Blocks[I.Target[0]].Name;
    break;
  case MOp::CBr:
    OS << ' ';
    Reg(I.Src[0]);
    OS << ", " << F.Blocks[I.Target[0]].Name << ", "
       << F.Blocks[I.Target[1]].Name;
    break;
  case MOp::Push:
  case MOp::Pop:
  case MOp::PopLoads: {
    OS << " {";
    bool First = true;
    for (unsigned R = 0; R != NumPRegs; ++R)
      if (I.RegList & (1u << R)) {
        if (!First)
          OS << ", ";
        OS << pregName(PReg(R));
        First = false;
      }
    OS << '}';
    break;
  }
  case MOp::SpAdjust:
    OS << " #" << I.Imm;
    break;
  case MOp::Checkpoint:
    OS << " (" << checkpointCauseName(I.Cause) << ')';
    break;
  case MOp::Out:
    OS << ' ';
    Reg(I.Src[0]);
    break;
  default:
    if (I.Dst >= 0 || I.Src[0] >= 0) {
      OS << ' ';
      Reg(I.Dst);
      OS << ", ";
      Reg(I.Src[0]);
      OS << ", ";
      Reg(I.Src[1]);
    }
    break;
  }
}

void printFunction(std::ostringstream &OS, const MFunction &F,
                   const MModule *M) {
  OS << "mfunc @" << F.Name << " (vregs=" << F.NumVRegs
     << ", slots=" << F.Slots.size() << ")\n";
  for (const MBasicBlock &BB : F.Blocks) {
    OS << BB.Name << ":\n";
    for (const MInst &I : BB.Insts) {
      OS << "  ";
      printInst(OS, I, F, M);
      OS << '\n';
    }
  }
}

} // namespace

std::string wario::printMFunction(const MFunction &F) {
  std::ostringstream OS;
  printFunction(OS, F, nullptr);
  return OS.str();
}

std::string wario::printMModule(const MModule &M) {
  std::ostringstream OS;
  for (const MFunction &F : M.Functions) {
    printFunction(OS, F, &M);
    OS << '\n';
  }
  return OS.str();
}
