#include "backend/Backend.h"

#include "backend/Frame.h"
#include "backend/ISel.h"
#include "ir/MemoryLayout.h"

using namespace wario;

MModule wario::runBackend(const Module &M, const BackendOptions &Opts,
                          BackendStats *Stats) {
  MModule MM = selectModule(M);
  MM.Strat = Opts.Strat;
  MM.DiffFullRollback = Opts.DiffFullRollback;

  RegAllocOptions RAOpts;
  RAOpts.StackSlotSharing = Opts.StackSlotSharing;
  FrameOptions FOpts;
  FOpts.EpilogOptimizer = Opts.EpilogOptimizer;
  FOpts.InsertCheckpoints = Opts.InsertCheckpoints;
  SpillCheckpointOptions SCOpts;
  SCOpts.HittingSet = Opts.HittingSetSpill;

  for (MFunction &F : MM.Functions) {
    MachineCFG CFG(F);
    RegAllocStats RA = allocateRegisters(F, CFG, RAOpts);
    lowerFrame(F, FOpts);
    SpillCheckpointStats SC;
    // Differential needs no spill-WAR checkpoints: spill slots live in
    // NVM and the dirty-page journal rolls them back like any other
    // uncommitted write. (Speculative keeps them — the undo log covers
    // only the middle-end-marked WAR stores.)
    if (Opts.InsertCheckpoints &&
        Opts.Strat != CheckpointStrategy::Differential)
      SC = insertSpillCheckpoints(F, CFG, SCOpts);
    if (Stats) {
      Stats->VRegs += RA.VRegs;
      Stats->Spilled += RA.Spilled;
      Stats->SpillSlots += RA.SpillSlots;
      Stats->SpillWars += SC.WarsFound;
      Stats->SpillCheckpoints += SC.Inserted;
    }
  }

  // Link step: resolve IR references so the machine module outlives the
  // IR module. Global addresses become immediates, call targets become
  // function indices, and the initialized data segment is snapshotted.
  MemoryLayout Layout(M);
  MM.DataEnd = Layout.getDataEnd();
  MM.InitImage.assign(MM.DataEnd, 0);
  Layout.materialize(M, MM.InitImage);
  for (MFunction &F : MM.Functions) {
    for (MBasicBlock &BB : F.Blocks) {
      for (MInst &I : BB.Insts) {
        if (I.Op == MOp::MovGlobal) {
          I.Op = MOp::MovImm;
          I.Imm = Layout.addressOf(I.Global);
          I.Global = nullptr;
        }
        if (I.Op == MOp::Bl) {
          for (unsigned FI = 0; FI != MM.Functions.size(); ++FI)
            if (MM.Functions[FI].Name == I.Callee->getName())
              I.CalleeIdx = int(FI);
          assert(I.CalleeIdx >= 0 && "call to a function with no body");
          I.Callee = nullptr;
        }
      }
    }
  }
  return MM;
}
