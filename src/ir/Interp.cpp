#include "ir/Interp.h"

#include "ir/ConstEval.h"

#include <memory>

using namespace wario;

namespace {

/// Interpreter engine; one instance per interpretModule call.
class Interpreter {
public:
  Interpreter(const Module &M, uint64_t Fuel)
      : M(M), Layout(M), Fuel(Fuel), Mem(memmap::MemSize, 0) {
    Layout.materialize(M, Mem);
  }

  InterpResult run(const std::string &Entry) {
    InterpResult R;
    Function *F = M.getFunction(Entry);
    if (!F || F->isDeclaration()) {
      R.Error = "entry function '" + Entry + "' not found";
      return R;
    }
    SP = memmap::StackTop;
    std::optional<int32_t> Ret = callFunction(F, {});
    R.StepsExecuted = Steps;
    R.Output = std::move(Out);
    if (!Trap.empty()) {
      R.Error = Trap;
      return R;
    }
    R.Ok = true;
    R.ReturnValue = Ret.value_or(0);
    return R;
  }

private:
  /// One activation's SSA values, indexed densely: arguments by
  /// Argument::getIndex(), instructions by Instruction::getId() (ids are
  /// dense per function and preserved by cloning). Frames are pooled per
  /// call depth, so a call allocates only when it first reaches a depth
  /// or a larger function.
  struct Frame {
    std::vector<uint32_t> Args;
    std::vector<uint32_t> Vals;
    std::vector<uint32_t> CallArgs; ///< Outgoing arguments of a call.
#ifndef NDEBUG
    std::vector<bool> Defined; ///< Backs the use-of-undefined-value assert.
#endif

    void set(const Instruction *I, uint32_t V) {
      Vals[I->getId()] = V;
#ifndef NDEBUG
      Defined[I->getId()] = true;
#endif
    }
  };

  uint32_t eval(const Frame &Fr, const Value *V) {
    switch (V->getKind()) {
    case Value::ValueKind::Constant:
      return cast<Constant>(V)->getZExtValue();
    case Value::ValueKind::GlobalVariable:
      return Layout.addressOf(cast<GlobalVariable>(V));
    case Value::ValueKind::Argument:
      return Fr.Args[cast<Argument>(V)->getIndex()];
    case Value::ValueKind::Instruction:
      break;
    }
    unsigned Id = cast<Instruction>(V)->getId();
    assert(Id < Fr.Vals.size() && Fr.Defined[Id] && "use of undefined value");
    return Fr.Vals[Id];
  }

  bool loadMem(uint32_t Addr, uint8_t Size, bool Signed, uint32_t &Result) {
    if (Addr > memmap::MemSize - Size) {
      Trap = "load out of bounds at 0x" + toHex(Addr);
      return false;
    }
    uint32_t V = 0;
    for (unsigned I = 0; I != Size; ++I)
      V |= uint32_t(Mem[Addr + I]) << (8 * I);
    if (Signed && Size < 4) {
      uint32_t SignBit = 1u << (Size * 8 - 1);
      if (V & SignBit)
        V |= ~((SignBit << 1) - 1);
    }
    Result = V;
    return true;
  }

  bool storeMem(uint32_t Addr, uint8_t Size, uint32_t V) {
    if (Addr == memmap::OutPort) {
      Out.push_back(static_cast<int32_t>(V));
      return true;
    }
    if (Addr > memmap::MemSize - Size) {
      Trap = "store out of bounds at 0x" + toHex(Addr);
      return false;
    }
    for (unsigned I = 0; I != Size; ++I)
      Mem[Addr + I] = uint8_t(V >> (8 * I));
    return true;
  }

  static std::string toHex(uint32_t V) {
    static const char *Digits = "0123456789abcdef";
    std::string S;
    for (int I = 28; I >= 0; I -= 4)
      S += Digits[(V >> I) & 0xF];
    return S;
  }

  uint32_t evalBinary(Opcode Op, uint32_t A, uint32_t B) {
    std::optional<uint32_t> R = constEvalBinary(Op, A, B);
    if (!R) {
      Trap = "division or remainder by zero";
      return 0;
    }
    return *R;
  }

  static bool evalPred(CmpPred P, uint32_t A, uint32_t B) {
    return constEvalPred(P, A, B);
  }

  /// Executes \p F; returns its return value (nullopt for void or trap).
  std::optional<int32_t> callFunction(Function *F,
                                      const std::vector<uint32_t> &Args) {
    assert(!F->isDeclaration() && "calling a declaration");
    if (CallDepth > 500) {
      Trap = "call depth limit exceeded (runaway recursion?)";
      return std::nullopt;
    }
    if (Frames.size() == CallDepth)
      Frames.push_back(std::make_unique<Frame>());
    Frame &Fr = *Frames[CallDepth];
    ++CallDepth;
    uint32_t SavedSP = SP;

    Fr.Args.assign(F->getNumParams(), 0);
    for (unsigned I = 0; I != F->getNumParams() && I != Args.size(); ++I)
      Fr.Args[I] = Args[I];
    Fr.Vals.resize(F->nextInstId());
#ifndef NDEBUG
    Fr.Defined.assign(F->nextInstId(), false);
#endif

    BasicBlock *BB = F->getEntryBlock();
    BasicBlock *PrevBB = nullptr;
    std::optional<int32_t> RetVal;

    while (Trap.empty()) {
      // Phi nodes are evaluated in parallel on block entry (into one
      // reused buffer: no call runs between filling and draining it).
      PhiBuf.clear();
      for (const Instruction *I : *BB) {
        if (I->getOpcode() != Opcode::Phi)
          break;
        bool Found = false;
        for (unsigned J = 0, E = I->getNumBlockOperands(); J != E; ++J) {
          if (I->getBlockOperand(J) == PrevBB) {
            PhiBuf.emplace_back(I, eval(Fr, I->getOperand(J)));
            Found = true;
            break;
          }
        }
        if (!Found) {
          Trap = "phi in block '" + BB->getName() +
                 "' has no incoming value for predecessor";
          break;
        }
      }
      for (auto &[Phi, V] : PhiBuf)
        Fr.set(Phi, V);
      if (!Trap.empty())
        break;

      BasicBlock *NextBB = nullptr;
      bool Returned = false;

      for (auto It = BB->firstNonPhi(); It != BB->end(); ++It) {
        const Instruction *I = *It;
        if (Steps++ >= Fuel) {
          Trap = "instruction fuel exhausted";
          break;
        }
        switch (I->getOpcode()) {
        case Opcode::Alloca: {
          uint32_t Size = (I->getAllocaSize() + 3u) & ~3u;
          SP -= Size;
          if (SP < Layout.getDataEnd()) {
            Trap = "stack overflow";
            break;
          }
          Fr.set(I, SP);
          break;
        }
        case Opcode::Load: {
          uint32_t V;
          if (loadMem(eval(Fr, I->getOperand(0)), I->getAccessSize(),
                      I->isSignedLoad(), V))
            Fr.set(I, V);
          break;
        }
        case Opcode::Store:
          storeMem(eval(Fr, I->getOperand(1)), I->getAccessSize(),
                   eval(Fr, I->getOperand(0)));
          break;
        case Opcode::Gep: {
          uint32_t Base = eval(Fr, I->getGepBase());
          uint32_t Index = I->getGepIndex() ? eval(Fr, I->getGepIndex()) : 0;
          Fr.set(I, Base + Index * uint32_t(I->getGepScale()) +
                        uint32_t(I->getGepOffset()));
          break;
        }
        case Opcode::ICmp:
          Fr.set(I, evalPred(I->getPredicate(), eval(Fr, I->getOperand(0)),
                             eval(Fr, I->getOperand(1)))
                        ? 1
                        : 0);
          break;
        case Opcode::Select:
          Fr.set(I, eval(Fr, I->getOperand(0)) != 0
                        ? eval(Fr, I->getOperand(1))
                        : eval(Fr, I->getOperand(2)));
          break;
        case Opcode::Call: {
          Fr.CallArgs.clear();
          for (unsigned J = 0, E = I->getNumOperands(); J != E; ++J)
            Fr.CallArgs.push_back(eval(Fr, I->getOperand(J)));
          std::optional<int32_t> R = callFunction(I->getCallee(), Fr.CallArgs);
          if (I->producesValue() && Trap.empty())
            Fr.set(I, uint32_t(R.value_or(0)));
          break;
        }
        case Opcode::Out:
          Out.push_back(static_cast<int32_t>(eval(Fr, I->getOperand(0))));
          break;
        case Opcode::Checkpoint:
          break; // Semantically a no-op under continuous power.
        case Opcode::Br:
          NextBB = eval(Fr, I->getOperand(0)) != 0 ? I->getBlockOperand(0)
                                                   : I->getBlockOperand(1);
          break;
        case Opcode::Jmp:
          NextBB = I->getBlockOperand(0);
          break;
        case Opcode::Ret:
          if (I->getNumOperands() > 0)
            RetVal = static_cast<int32_t>(eval(Fr, I->getOperand(0)));
          Returned = true;
          break;
        case Opcode::Phi:
          Trap = "phi after non-phi instruction";
          break;
        default: // Binary ops.
          Fr.set(I, evalBinary(I->getOpcode(), eval(Fr, I->getOperand(0)),
                               eval(Fr, I->getOperand(1))));
          break;
        }
        if (!Trap.empty() || NextBB || Returned)
          break;
      }

      if (!Trap.empty() || Returned)
        break;
      if (!NextBB) {
        Trap = "block '" + BB->getName() + "' fell off the end";
        break;
      }
      PrevBB = BB;
      BB = NextBB;
    }

    SP = SavedSP;
    --CallDepth;
    return RetVal;
  }

  const Module &M;
  MemoryLayout Layout;
  uint64_t Fuel;
  uint64_t Steps = 0;
  std::vector<uint8_t> Mem;
  std::vector<int32_t> Out;
  std::string Trap;
  uint32_t SP = memmap::StackTop;
  unsigned CallDepth = 0;
  /// Frames[D] serves every activation at call depth D. unique_ptr keeps
  /// a caller's frame in place while deeper calls grow the pool.
  std::vector<std::unique_ptr<Frame>> Frames;
  std::vector<std::pair<const Instruction *, uint32_t>> PhiBuf;
};

} // namespace

InterpResult wario::interpretModule(const Module &M, const std::string &Entry,
                                    uint64_t Fuel) {
  Interpreter I(M, Fuel);
  return I.run(Entry);
}
