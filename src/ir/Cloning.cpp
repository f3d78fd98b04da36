//===----------------------------------------------------------------------===//
///
/// \file
/// IR cloning. cloneInstruction is a conventional per-node copy used by
/// the unroller and inliner. cloneModule is a bulk arena copy: every node
/// of a module lives in its IRContext's arena, so the clone memcpys the
/// slabs wholesale and then rewrites each interior pointer through a
/// sorted slab-remap table. Ids, list orders, user-list orders, and the
/// per-function id counters are copied *bytewise*, so the clone is
/// behaviorally indistinguishable by construction — no per-field
/// reconstruction, no user-order restoration pass.
///
//===----------------------------------------------------------------------===//

#include "ir/Cloning.h"

#include <algorithm>

using namespace wario;

namespace {

/// Copies the opcode-specific payload of \p I onto \p NI. The Call callee
/// is copied verbatim; callers remap it if needed.
void copyPayload(Instruction *NI, const Instruction *I) {
  switch (I->getOpcode()) {
  case Opcode::Alloca:
    NI->setAllocaSize(I->getAllocaSize());
    break;
  case Opcode::Load:
    NI->setAccessSize(I->getAccessSize());
    NI->setSignedLoad(I->isSignedLoad());
    break;
  case Opcode::Store:
    NI->setAccessSize(I->getAccessSize());
    NI->setSpecLogged(I->isSpecLogged());
    break;
  case Opcode::Gep:
    NI->setGepScale(I->getGepScale());
    NI->setGepOffset(I->getGepOffset());
    break;
  case Opcode::ICmp:
    NI->setPredicate(I->getPredicate());
    break;
  case Opcode::Call:
    NI->setCallee(I->getCallee());
    break;
  case Opcode::Checkpoint:
    NI->setCheckpointCause(I->getCheckpointCause());
    break;
  default:
    break;
  }
}

} // namespace

Instruction *wario::cloneInstruction(const Instruction *I, Function &F,
                                     const ValueMapper &VM) {
  std::vector<Value *> Ops;
  Ops.reserve(I->getNumOperands());
  for (unsigned J = 0, E = I->getNumOperands(); J != E; ++J)
    Ops.push_back(VM.lookup(I->getOperand(J)));

  Instruction *NI = F.createInstruction(I->getOpcode(), Ops);
  NI->setName(I->getName());
  copyPayload(NI, I);
  for (unsigned J = 0, E = I->getNumBlockOperands(); J != E; ++J)
    NI->addBlockOperand(I->getBlockOperand(J));
  return NI;
}

namespace wario {

/// The bulk-copy engine. Friend of every IR class so it can rewrite
/// private pointer fields in place.
struct ModuleCloner {
  /// One contiguous source→destination byte range. Ranges cover every
  /// arena slab of the source module plus the three inline singleton
  /// types of its context.
  struct Range {
    const char *SrcBase;
    char *DstBase;
    size_t Size;
  };

  const Module &Src;
  Module &Dst;
  std::vector<Range> Ranges;
  /// Last range a remap resolved to. The fixup walks nodes in
  /// allocation order, so consecutive lookups almost always land in the
  /// same slab; this turns the binary search into one range check.
  mutable const Range *LastHit = nullptr;

  ModuleCloner(const Module &Src, Module &Dst) : Src(Src), Dst(Dst) {}

  void addRange(const void *SrcBase, void *DstBase, size_t Size) {
    if (Size)
      Ranges.push_back(
          {static_cast<const char *>(SrcBase), static_cast<char *>(DstBase),
           Size});
  }

  /// Copies the arena of Src's context into Dst's (empty) context and
  /// records the address ranges.
  void copyArena() {
    IRContext &SC = Src.getContext();
    IRContext &DC = Dst.getContext();

    DC.ModArena.adoptCopyOf(SC.ModArena);
    const auto &FS = SC.ModArena.slabs();
    const auto &TS = DC.ModArena.slabs();
    assert(FS.size() == TS.size());
    for (size_t I = 0; I != FS.size(); ++I)
      addRange(FS[I].Base, TS[I].Base, FS[I].Used);

    // The singleton types live inline in the context object, not in an
    // arena; map them as three one-object ranges.
    addRange(&SC.VoidTy, &DC.VoidTy, sizeof(Type));
    addRange(&SC.I32Ty, &DC.I32Ty, sizeof(Type));
    addRange(&SC.PtrTy, &DC.PtrTy, sizeof(Type));

    std::sort(Ranges.begin(), Ranges.end(),
              [](const Range &A, const Range &B) {
                return A.SrcBase < B.SrcBase;
              });
  }

  /// Maps a pointer into the source module onto its clone. The Module
  /// object itself is the only heap object nodes point at; everything
  /// else must fall inside a copied range. Pointers that are not part of
  /// the module (interned name strings) must not be passed here.
  template <typename T> T *remap(const T *P) const {
    if (!P)
      return nullptr;
    if (static_cast<const void *>(P) == static_cast<const void *>(&Src))
      return reinterpret_cast<T *>(const_cast<Module *>(&Dst));
    const char *CP = reinterpret_cast<const char *>(P);
    if (LastHit && CP >= LastHit->SrcBase &&
        CP < LastHit->SrcBase + LastHit->Size)
      return reinterpret_cast<T *>(LastHit->DstBase +
                                   (CP - LastHit->SrcBase));
    auto It = std::upper_bound(Ranges.begin(), Ranges.end(), CP,
                               [](const char *V, const Range &R) {
                                 return V < R.SrcBase;
                               });
    assert(It != Ranges.begin() &&
           "clone fixup: pointer does not map into the source module");
    const Range &R = *std::prev(It);
    assert(CP < R.SrcBase + R.Size &&
           "clone fixup: pointer does not map into the source module");
    LastHit = &R;
    return reinterpret_cast<T *>(R.DstBase + (CP - R.SrcBase));
  }

  /// Rewrites an ArenaVec whose storage was bulk-copied: \p DstVec is
  /// the clone's vec (already located by the caller via its remapped
  /// parent node); its Data pointer and each pointer element are
  /// remapped in place. Sizes/capacities came along bytewise.
  template <typename T>
  void fixVec(ArenaVec<T *> &DstVec, const ArenaVec<T *> &SrcVec) const {
    DstVec.Data = remap(SrcVec.Data);
    for (size_t I = 0, E = SrcVec.Sz; I != E; ++I)
      DstVec.Data[I] = remap(SrcVec.Data[I]);
  }

  /// Same for a plain byte vec (global initializers): only the Data
  /// pointer needs remapping.
  void fixBytes(ArenaVec<uint8_t> &DstVec,
                const ArenaVec<uint8_t> &SrcVec) const {
    DstVec.Data = remap(SrcVec.Data);
  }

  void fixValueCommon(Value *NV, const Value &V) const {
    NV->Ty = remap(V.Ty);
    // Name is an interned-string pointer — process-global, shared as-is.
    fixVec(NV->Users, V.Users);
  }

  void fixInstruction(Instruction *NI, const Instruction &I) const {
    fixValueCommon(NI, I);
    fixVec(NI->Operands, I.Operands);
    fixVec(NI->BlockOps, I.BlockOps);
    NI->Parent = remap(I.Parent);
    NI->PrevI = remap(I.PrevI);
    NI->NextI = remap(I.NextI);
    NI->Func = remap(I.Func);
    NI->Callee = remap(I.Callee);
  }

  void fixBlock(BasicBlock *NB, const BasicBlock &BB) const {
    NB->Parent = remap(BB.Parent);
    NB->IFirst = remap(BB.IFirst);
    NB->ILast = remap(BB.ILast);
    NB->PrevB = remap(BB.PrevB);
    NB->NextB = remap(BB.NextB);
    fixVec(NB->Preds, BB.Preds);
  }

  void fixFunction(Function *NF, const Function &F) const {
    NF->Parent = &Dst;
    NF->A = &Dst.getContext().moduleArena();
    fixVec(NF->Args, F.Args);
    NF->BFirst = remap(F.BFirst);
    NF->BLast = remap(F.BLast);
    fixVec(NF->AllBlocks, F.AllBlocks);
    fixVec(NF->AllInsts, F.AllInsts);
    for (size_t I = 0, E = F.Args.Sz; I != E; ++I) {
      Argument *NArg = NF->Args.Data[I];
      fixValueCommon(NArg, *F.Args.Data[I]);
      NArg->Parent = NF;
    }
    // Walk the full enumeration lists, not just attached nodes: detached
    // instructions and erased blocks were copied too and may still hold
    // pointers a later pass resurrects. The dst lists were remapped just
    // above, so they pair index-wise with the source lists.
    for (size_t I = 0, E = F.AllBlocks.Sz; I != E; ++I)
      fixBlock(NF->AllBlocks.Data[I], *F.AllBlocks.Data[I]);
    for (size_t I = 0, E = F.AllInsts.Sz; I != E; ++I)
      fixInstruction(NF->AllInsts.Data[I], *F.AllInsts.Data[I]);
  }

  void run() {
    copyArena();

    IRContext &SC = Src.getContext();
    IRContext &DC = Dst.getContext();

    // Rebuild the module- and context-level tables by remapping the
    // source's entries (both are std::maps on the heap, not arena bytes).
    for (const auto &[Bytes, T] : SC.ArrayTypes)
      DC.ArrayTypes.emplace(Bytes, remap(T));
    for (const auto &[Val, C] : SC.Constants) {
      Constant *NC = remap(C);
      DC.Constants.emplace(Val, NC);
      fixValueCommon(NC, *C);
    }
    for (GlobalVariable *G : Src.Globals) {
      GlobalVariable *NG = remap(G);
      fixValueCommon(NG, *G);
      NG->ValueTy = remap(G->ValueTy);
      fixBytes(NG->Init, G->Init);
      Dst.Globals.push_back(NG);
    }
    for (Function *F : Src.Functions) {
      Function *NF = remap(F);
      fixFunction(NF, *F);
      Dst.Functions.push_back(NF);
    }
  }
};

} // namespace wario

std::unique_ptr<Module> wario::cloneModule(const Module &M) {
  auto NewM = std::make_unique<Module>(M.getName());
  ModuleCloner(M, *NewM).run();
  return NewM;
}
