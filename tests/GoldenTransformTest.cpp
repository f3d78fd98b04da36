//===----------------------------------------------------------------------===//
///
/// \file
/// Golden-style transform tests written against the textual IR: small
/// hand-written snippets are parsed, transformed, and checked for the
/// exact structural outcome (store adjacency, checkpoint positions,
/// postponement shape) rather than just end-to-end semantics.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Interp.h"
#include "transforms/CheckpointInserter.h"
#include "transforms/LoopWriteClusterer.h"
#include "transforms/Utils.h"
#include "transforms/WriteClusterer.h"

#include <gtest/gtest.h>

using namespace wario;

namespace {

std::unique_ptr<Module> parse(const char *Text) {
  DiagnosticEngine Diags;
  auto M = parseModule(Text, Diags);
  EXPECT_TRUE(M) << Diags.formatAll();
  return M;
}

/// Opcode sequence of one block, as mnemonics.
std::vector<std::string> opcodes(const BasicBlock *BB) {
  std::vector<std::string> Ops;
  for (const Instruction *I : *BB)
    Ops.push_back(opcodeName(I->getOpcode()));
  return Ops;
}

} // namespace

TEST(GoldenTest, WriteClustererMakesFigure1StoresAdjacent) {
  auto M = parse(R"(global @a : 4 bytes
global @b : 4 bytes

func @main() -> i32 {
entry:
  %la.0 = loadi32 @a
  %xa.1 = add %la.0, 1
  storei32 %xa.1, @a
  %lb.2 = loadi32 @b
  %xb.3 = add %lb.2, 1
  storei32 %xb.3, @b
  %r.4 = add %xa.1, %xb.3
  ret %r.4
}
)");
  ASSERT_TRUE(M);
  AliasAnalysis AA(AliasPrecision::Precise);
  EXPECT_EQ(runWriteClusterer(*M->getFunction("main"), AA), 1u);
  EXPECT_EQ(opcodes(M->getFunction("main")->getEntryBlock()),
            (std::vector<std::string>{"load", "add", "load", "add",
                                      "store", "store", "add", "ret"}));
}

TEST(GoldenTest, HittingSetPutsOneCheckpointBeforeTheCluster) {
  auto M = parse(R"(global @a : 4 bytes
global @b : 4 bytes

func @main() -> i32 {
entry:
  %la.0 = loadi32 @a
  %lb.1 = loadi32 @b
  storei32 %lb.1, @a
  storei32 %la.0, @b
  ret %la.0
}
)");
  ASSERT_TRUE(M);
  CheckpointInserterStats S = insertCheckpoints(*M->getFunction("main"), {});
  EXPECT_EQ(S.WarsFound, 2u);
  EXPECT_EQ(S.Inserted, 1u);
  EXPECT_EQ(opcodes(M->getFunction("main")->getEntryBlock()),
            (std::vector<std::string>{"load", "load", "checkpoint",
                                      "store", "store", "ret"}));
}

TEST(GoldenTest, DirectAndCarriedWarsOfOnePairCountSeparately) {
  // In a loop block, a read followed by an aliasing write has a
  // same-iteration WAR (resolved only between the two) and a loop-carried
  // one (resolved anywhere around the back edge). The hitting set must
  // weigh their resolving points separately; merging the two would move
  // the third checkpoint below %l.8.
  auto M = parse(R"(global @g0 : 4 bytes
global @g2 : 4 bytes

func @main() -> i32 {
entry:
  %p.1 = loadi32 @g2
  jmp loop
loop:
  %i.2 = phi [0, entry], [%n.9, loop]
  storei32 %p.1, @g0
  %l.3 = loadi32 @g0
  storei32 %l.3, @g0
  %l.4 = loadi32 @g2
  storei32 %i.2, @g0
  %l.5 = loadi32 @g0
  storei32 %p.1, @g2
  %l.6 = loadi32 @g0
  %n.9 = add %i.2, 1
  %c.7 = icmp slt %n.9, 7
  br %c.7, loop, exit
exit:
  %r.8 = loadi32 @g0
  ret %r.8
}
)");
  ASSERT_TRUE(M);
  Function *F = M->getFunction("main");
  CheckpointInserterStats S = insertCheckpoints(*F, {});
  EXPECT_EQ(S.WarsFound, 14u);
  EXPECT_EQ(S.Inserted, 3u);
  EXPECT_EQ(opcodes(*std::next(F->begin())),
            (std::vector<std::string>{
                "phi", "checkpoint", "store", "load", "checkpoint", "store",
                "load", "checkpoint", "store", "load", "store", "load", "add",
                "icmp", "br"}));
}

TEST(GoldenTest, LoopClustererParksStoresAtTheLatch) {
  // A counting loop with a genuine accumulator WAR.
  auto M = parse(R"(global @sum : 4 bytes

func @main() -> i32 {
entry:
  jmp loop
loop:
  %i.0 = phi [0, entry], [%next.3, loop]
  %s.1 = loadi32 @sum
  %s2.2 = add %s.1, %i.0
  storei32 %s2.2, @sum
  %next.3 = add %i.0, 1
  %c.4 = icmp slt %next.3, 12
  br %c.4, loop, exit
exit:
  %r.5 = loadi32 @sum
  ret %r.5
}
)");
  ASSERT_TRUE(M);
  InterpResult Before = interpretModule(*M);
  ASSERT_TRUE(Before.Ok);

  LoopWriteClustererOptions Opts;
  Opts.UnrollFactor = 4;
  LoopWriteClustererStats S =
      runLoopWriteClusterer(*M->getFunction("main"), Opts);
  EXPECT_EQ(S.LoopsTransformed, 1u);
  EXPECT_EQ(S.StoresPostponed, 4u);

  std::string Err;
  ASSERT_TRUE(verifyModule(*M, &Err)) << Err;
  InterpResult After = interpretModule(*M);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(After.ReturnValue, Before.ReturnValue);

  // The last loop block (the latch) carries checkpoint + the cluster.
  Function *F = M->getFunction("main");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  BasicBlock *Latch = LI.loops()[0]->getLatch();
  ASSERT_NE(Latch, nullptr);
  unsigned Stores = 0, Ckpts = 0;
  bool CkptBeforeStores = false;
  for (const Instruction *I : *Latch) {
    if (I->getOpcode() == Opcode::Checkpoint) {
      ++Ckpts;
      CkptBeforeStores = Stores == 0;
    }
    if (I->getOpcode() == Opcode::Store)
      ++Stores;
  }
  EXPECT_EQ(Stores, 4u);
  EXPECT_EQ(Ckpts, 1u);
  EXPECT_TRUE(CkptBeforeStores);
}

TEST(GoldenTest, CallCutsMakeCheckpointsUnnecessary) {
  auto M = parse(R"(global @g : 4 bytes

func @tick() {
entry:
  ret
}

func @main() -> i32 {
entry:
  %l.0 = loadi32 @g
  call @tick()
  storei32 7, @g
  ret %l.0
}
)");
  ASSERT_TRUE(M);
  CheckpointInserterStats S = insertCheckpoints(*M->getFunction("main"), {});
  EXPECT_EQ(S.WarsFound, 1u);
  EXPECT_EQ(S.WarsAlreadyCut, 1u);
  EXPECT_EQ(S.Inserted, 0u);
}

TEST(GoldenTest, LoopCarriedWarCoveredByOnePoint) {
  // Store early, load late: the WAR is carried around the back edge and
  // can be resolved anywhere in the block.
  auto M = parse(R"(global @x : 4 bytes

func @main() -> i32 {
entry:
  jmp loop
loop:
  %i.0 = phi [0, entry], [%n.4, loop]
  storei32 %i.0, @x
  %l.2 = loadi32 @x
  %n.4 = add %i.0, 1
  %c.5 = icmp slt %n.4, 9
  br %c.5, loop, exit
exit:
  %r.6 = loadi32 @x
  ret %r.6
}
)");
  ASSERT_TRUE(M);
  InterpResult Before = interpretModule(*M);
  CheckpointInserterStats S = insertCheckpoints(*M->getFunction("main"), {});
  EXPECT_GE(S.WarsFound, 1u);
  EXPECT_EQ(S.Inserted, 1u);
  InterpResult After = interpretModule(*M);
  EXPECT_EQ(After.ReturnValue, Before.ReturnValue);
}

TEST(GoldenTest, CleanupFoldsThroughParsedIR) {
  auto M = parse(R"(func @main() -> i32 {
entry:
  %a.0 = add 2, 3
  %b.1 = mul %a.0, 4
  %dead.2 = sub %b.1, %b.1
  br 1, keep, gone
keep:
  ret %b.1
gone:
  ret 0
}
)");
  ASSERT_TRUE(M);
  cleanup(*M->getFunction("main"));
  Function *F = M->getFunction("main");
  EXPECT_EQ(F->size(), 1u);
  EXPECT_EQ(F->getEntryBlock()->size(), 1u);
  InterpResult R = interpretModule(*M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue, 20);
}
