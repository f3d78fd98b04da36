//===----------------------------------------------------------------------===//
///
/// \file
/// Front-end tests: each case compiles a C-subset program, verifies the
/// IR, and checks the interpreted result — plus full compile-to-machine
/// differential runs through every environment.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "driver/Pipeline.h"
#include "emu/Emulator.h"
#include "frontend/Frontend.h"
#include "ir/IRPrinter.h"
#include "ir/Interp.h"

#include <gtest/gtest.h>

using namespace wario;

namespace {

/// Compiles, verifies, interprets; returns the program result.
int32_t runC(const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = compileC(Source, "test", Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.formatAll();
  if (!M)
    return INT32_MIN;
  std::string Err;
  EXPECT_TRUE(verifyModule(*M, &Err)) << Err << printModule(*M);
  InterpResult R = interpretModule(*M);
  EXPECT_TRUE(R.Ok) << R.Error << printModule(*M);
  return R.ReturnValue;
}

/// Expects the source to produce a front-end diagnostic.
void expectError(const std::string &Source, const std::string &Needle) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = compileC(Source, "test", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.formatAll().find(Needle), std::string::npos)
      << Diags.formatAll();
  (void)M;
}

} // namespace

//===----------------------------------------------------------------------===//
// Basics
//===----------------------------------------------------------------------===//

TEST(FrontendTest, ReturnConstant) {
  EXPECT_EQ(runC("int main(void) { return 42; }"), 42);
}

TEST(FrontendTest, ArithmeticAndPrecedence) {
  EXPECT_EQ(runC("int main() { return 2 + 3 * 4; }"), 14);
  EXPECT_EQ(runC("int main() { return (2 + 3) * 4; }"), 20);
  EXPECT_EQ(runC("int main() { return 17 / 5; }"), 3);
  EXPECT_EQ(runC("int main() { return 17 % 5; }"), 2);
  EXPECT_EQ(runC("int main() { return -17 / 5; }"), -3);
  EXPECT_EQ(runC("int main() { return -17 % 5; }"), -2);
  EXPECT_EQ(runC("int main() { return 1 << 10; }"), 1024);
  EXPECT_EQ(runC("int main() { return -8 >> 1; }"), -4);
  EXPECT_EQ(runC("int main() { unsigned x = 0x80000000; "
                 "return (int)(x >> 28); }"),
            8);
  EXPECT_EQ(runC("int main() { return (0xF0 | 0x0F) ^ 0xFF; }"), 0);
  EXPECT_EQ(runC("int main() { return ~0; }"), -1);
}

TEST(FrontendTest, HexAndCharLiterals) {
  EXPECT_EQ(runC("int main() { return 0xABC; }"), 0xABC);
  EXPECT_EQ(runC("int main() { return 'A'; }"), 65);
  EXPECT_EQ(runC("int main() { return '\\n'; }"), 10);
}

TEST(FrontendTest, LocalsAndAssignment) {
  EXPECT_EQ(runC("int main() { int a = 5; int b; b = a + 1; "
                 "a += b; a *= 2; a -= 3; a /= 2; return a; }"),
            9);
  EXPECT_EQ(runC("int main() { int a = 1, b = 2, c = 3; "
                 "return a + b * c; }"),
            7);
}

TEST(FrontendTest, IncrementDecrement) {
  EXPECT_EQ(runC("int main() { int i = 5; int a = i++; "
                 "int b = ++i; return a * 100 + b * 10 + i; }"),
            5 * 100 + 7 * 10 + 7);
  EXPECT_EQ(runC("int main() { int i = 5; return i-- - --i; }"), 5 - 3);
}

TEST(FrontendTest, ComparisonAndLogical) {
  EXPECT_EQ(runC("int main() { return (3 < 5) + (5 <= 5) + (7 > 2) + "
                 "(2 >= 3) + (4 == 4) + (4 != 4); }"),
            4);
  // Signed vs unsigned comparison.
  EXPECT_EQ(runC("int main() { int a = -1; return a < 0; }"), 1);
  EXPECT_EQ(runC("int main() { unsigned a = 0xFFFFFFFF; "
                 "return a > 10u; }"),
            1);
}

TEST(FrontendTest, ShortCircuitEvaluation) {
  // The right side would trap (div by zero) if evaluated.
  EXPECT_EQ(runC("int g = 0;\n"
                 "int boom(void) { g = 1; return 1 / g; }\n"
                 "int main() { int x = 0 && boom(); "
                 "int y = 1 || boom(); return x * 10 + y + g; }"),
            1);
  EXPECT_EQ(runC("int main() { int a = 2; "
                 "return (a > 1 && a < 5) || a == 0; }"),
            1);
}

TEST(FrontendTest, TernaryAndComma) {
  EXPECT_EQ(runC("int main() { int a = 7; return a > 5 ? 10 : 20; }"), 10);
  EXPECT_EQ(runC("int main() { int a, b; a = (b = 3, b + 1); "
                 "return a * 10 + b; }"),
            43);
}

//===----------------------------------------------------------------------===//
// Control flow
//===----------------------------------------------------------------------===//

TEST(FrontendTest, IfElseChains) {
  const char *Src = R"(
    int classify(int x) {
      if (x < 0) return -1;
      else if (x == 0) return 0;
      else if (x < 10) return 1;
      else return 2;
    }
    int main() {
      return classify(-5) * 1000 + classify(0) * 100 +
             classify(5) * 10 + classify(50);
    }
  )";
  EXPECT_EQ(runC(Src), -1000 + 0 + 10 + 2);
}

TEST(FrontendTest, Loops) {
  EXPECT_EQ(runC("int main() { int s = 0; int i; "
                 "for (i = 1; i <= 10; i++) s += i; return s; }"),
            55);
  EXPECT_EQ(runC("int main() { int s = 0; for (int i = 0; i < 5; ++i) "
                 "s = s * 10 + i; return s; }"),
            1234);
  EXPECT_EQ(runC("int main() { int i = 0, s = 0; "
                 "while (i < 5) { s += i; i++; } return s; }"),
            10);
  EXPECT_EQ(runC("int main() { int i = 10, n = 0; "
                 "do { n++; i -= 3; } while (i > 0); return n; }"),
            4);
}

TEST(FrontendTest, BreakContinue) {
  EXPECT_EQ(runC("int main() { int s = 0; for (int i = 0; i < 100; i++) "
                 "{ if (i == 5) break; s += i; } return s; }"),
            10);
  EXPECT_EQ(runC("int main() { int s = 0; for (int i = 0; i < 10; i++) "
                 "{ if (i % 2) continue; s += i; } return s; }"),
            20);
  EXPECT_EQ(runC("int main() { int n = 0; "
                 "for (int i = 0; i < 3; i++) for (int j = 0; j < 10; j++)"
                 "{ if (j > i) break; n++; } return n; }"),
            1 + 2 + 3);
}

//===----------------------------------------------------------------------===//
// Types, arrays, pointers
//===----------------------------------------------------------------------===//

TEST(FrontendTest, SubWordTypes) {
  // Plain char is unsigned (ARM convention).
  EXPECT_EQ(runC("int main() { char c = 200; return c + 1; }"), 201);
  EXPECT_EQ(runC("int main() { signed char c = 200; return c; }"), -56);
  EXPECT_EQ(runC("int main() { short s = 40000; return s; }"), -25536);
  EXPECT_EQ(runC("int main() { unsigned short s = 40000; return s; }"),
            40000);
  EXPECT_EQ(runC("int main() { char c = 255; c++; return c; }"), 0);
  EXPECT_EQ(runC("int main() { return (char)0x1FF; }"), 0xFF);
  EXPECT_EQ(runC("int main() { return (signed char)0xFF; }"), -1);
  EXPECT_EQ(runC("int main() { return (short)0x18000; }"), -32768);
}

TEST(FrontendTest, SizeofTypes) {
  EXPECT_EQ(runC("int main() { return sizeof(char) + sizeof(short) * 10 +"
                 " sizeof(int) * 100 + sizeof(int*) * 1000; }"),
            1 + 20 + 400 + 4000);
}

TEST(FrontendTest, GlobalScalarsAndArrays) {
  const char *Src = R"(
    int counter = 7;
    unsigned short table[4] = {10, 20, 30, 40};
    int zeros[8];
    int main() {
      counter += table[2];
      return counter + zeros[5];
    }
  )";
  EXPECT_EQ(runC(Src), 37);
}

TEST(FrontendTest, TwoDimensionalArrays) {
  const char *Src = R"(
    int m[3][4] = {
      {1, 2, 3, 4},
      {5, 6, 7, 8},
      {9, 10, 11, 12},
    };
    int main() {
      int s = 0;
      for (int i = 0; i < 3; i++)
        for (int j = 0; j < 4; j++)
          s += m[i][j] * (i + 1);
      return s;
    }
  )";
  EXPECT_EQ(runC(Src), 10 + 26 * 2 + 42 * 3);
}

TEST(FrontendTest, LocalArrays) {
  EXPECT_EQ(runC("int main() { int a[5] = {3, 1, 4, 1, 5}; int s = 0; "
                 "for (int i = 0; i < 5; i++) s = s * 10 + a[i]; "
                 "return s; }"),
            31415);
  // Partial init zero-fills.
  EXPECT_EQ(runC("int main() { int a[4] = {9}; "
                 "return a[0] + a[1] + a[2] + a[3]; }"),
            9);
}

TEST(FrontendTest, PointersAndAddressOf) {
  EXPECT_EQ(runC("int main() { int x = 5; int *p = &x; *p = 9; "
                 "return x; }"),
            9);
  EXPECT_EQ(runC("int g[3] = {1, 2, 3};\n"
                 "int main() { int *p = g; p++; return *p + p[1]; }"),
            5);
  EXPECT_EQ(runC("int main() { int a[4] = {1,2,3,4}; int *p = &a[3]; "
                 "int *q = &a[0]; return p - q; }"),
            3);
  EXPECT_EQ(runC("int swap_test(int *a, int *b) {\n"
                 "  int t = *a; *a = *b; *b = t; return *a * 10 + *b; }\n"
                 "int main() { int x = 3, y = 8; "
                 "return swap_test(&x, &y); }"),
            83);
}

TEST(FrontendTest, PointerToSubWord) {
  EXPECT_EQ(runC("unsigned char buf[4] = {0x78, 0x56, 0x34, 0x12};\n"
                 "int main() { unsigned char *p = buf; int v = 0;\n"
                 "  for (int i = 3; i >= 0; i--) v = (v << 8) | p[i];\n"
                 "  return v == 0x12345678; }"),
            1);
}

//===----------------------------------------------------------------------===//
// Functions
//===----------------------------------------------------------------------===//

TEST(FrontendTest, RecursionWorks) {
  EXPECT_EQ(runC("int fib(int n) { if (n < 2) return n; "
                 "return fib(n-1) + fib(n-2); }\n"
                 "int main() { return fib(12); }"),
            144);
}

TEST(FrontendTest, ForwardDeclarations) {
  const char *Src = R"(
    int odd(int n);
    int even(int n) { if (n == 0) return 1; return odd(n - 1); }
    int odd(int n) { if (n == 0) return 0; return even(n - 1); }
    int main() { return even(10) * 10 + odd(7); }
  )";
  EXPECT_EQ(runC(Src), 11);
}

TEST(FrontendTest, VoidFunctions) {
  const char *Src = R"(
    int acc = 0;
    void add(int x) { acc += x; }
    int main() { add(3); add(4); return acc; }
  )";
  EXPECT_EQ(runC(Src), 7);
}

TEST(FrontendTest, OutBuiltin) {
  DiagnosticEngine Diags;
  auto M = compileC("int main() { __out(5); __out(6); return 0; }",
                    "test", Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.formatAll();
  InterpResult R = interpretModule(*M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Output, (std::vector<int32_t>{5, 6}));
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(FrontendTest, DiagnosticUndeclared) {
  expectError("int main() { return x; }", "undeclared identifier");
  expectError("int main() { return f(); }", "undeclared function");
}

TEST(FrontendTest, DiagnosticArity) {
  expectError("int f(int a) { return a; } int main() { return f(); }",
              "wrong number of arguments");
}

TEST(FrontendTest, DiagnosticRedefinition) {
  expectError("int main() { int a = 1; int a = 2; return a; }",
              "redefinition");
}

TEST(FrontendTest, DiagnosticBreakOutsideLoop) {
  expectError("int main() { break; return 0; }", "outside of a loop");
}

TEST(FrontendTest, DiagnosticTooManyParams) {
  expectError("int f(int a, int b, int c, int d, int e) { return a; }\n"
              "int main() { return 0; }",
              "more than 4 parameters");
}

TEST(FrontendTest, DiagnosticSyntax) {
  expectError("int main() { return 1 +; }", "expected an expression");
  expectError("int main() { return 0 }", "expected ';'");
}

//===----------------------------------------------------------------------===//
// End-to-end: C source through every environment on the emulator
//===----------------------------------------------------------------------===//

namespace {

/// The hand-written end-to-end inputs.
struct EndToEndProgram {
  const char *Name;
  const char *Src;
};

const EndToEndProgram EndToEndPrograms[] = {
    {"xorshift", R"(
    unsigned int state = 0x12345678;
    unsigned int history[16];

    unsigned int next(void) {
      state ^= state << 13;
      state ^= state >> 17;
      state ^= state << 5;
      return state;
    }

    int main(void) {
      unsigned int sum = 0;
      for (int round = 0; round < 40; round++) {
        unsigned int v = next();
        history[v & 15] += v >> 16;
        sum += history[round & 15];
      }
      return (int)(sum & 0x7FFFFFFF);
    }
  )"},
    // Forward-strided, loop-carried WARs: iteration t reads w[t + 3] and
    // b[t + 1], which iterations t + 3 and t + 1 overwrite. An alias
    // verdict that calls the read and the later write disjoint across
    // iterations leaves these WARs uncut, and WarIsFatal reports them.
    {"strided", R"(
    int w[40];
    char b[40];

    int main(void) {
      for (int i = 0; i < 40; i++) {
        w[i] = i * 5 + 1;
        b[i] = i * 3;
      }
      for (int t = 0; t < 37; t++)
        w[t] = w[t + 3] + t;
      for (int t = 0; t < 39; t++)
        b[t] = b[t + 1] + 1;
      int sum = 0;
      for (int i = 0; i < 40; i++)
        sum = sum + w[i] * (i + 1) + b[i];
      return sum;
    }
  )"},
};

} // namespace

/// Every input gives the interpreter's result in every environment at
/// unroll factors 1/2/4/8; every instrumented build also survives
/// fixed(3000) on-periods, with WAR violations fatal throughout.
TEST(FrontendTest, EndToEndAllEnvironments) {
  for (const EndToEndProgram &P : EndToEndPrograms) {
    DiagnosticEngine Diags;
    int32_t Expected;
    {
      auto M = compileC(P.Src, "e2e", Diags);
      ASSERT_TRUE(M) << P.Name << ": " << Diags.formatAll();
      InterpResult R = interpretModule(*M);
      ASSERT_TRUE(R.Ok) << P.Name << ": " << R.Error;
      Expected = R.ReturnValue;
    }
    for (Environment Env : allEnvironments()) {
      for (unsigned Unroll : {1u, 2u, 4u, 8u}) {
        auto M = compileC(P.Src, "e2e", Diags);
        ASSERT_TRUE(M) << P.Name << ": " << Diags.formatAll();
        PipelineOptions PO;
        PO.Env = Env;
        PO.UnrollFactor = Unroll;
        MModule MM = compile(*M, PO);
        for (PowerSchedule Power :
             {PowerSchedule::continuous(), PowerSchedule::fixed(3000)}) {
          // Plain C has no checkpoints: it cannot finish under
          // intermittent power, and its WARs are expected.
          if (Env == Environment::PlainC && !Power.isContinuous())
            continue;
          EmulatorOptions EO;
          EO.Power = Power;
          EO.WarIsFatal = Env != Environment::PlainC;
          EmulatorResult R = emulate(MM, EO);
          std::string Where = std::string(P.Name) + " @ " +
                              environmentName(Env) + ", N=" +
                              std::to_string(Unroll) +
                              (Power.isContinuous() ? "" : ", fixed(3000)");
          ASSERT_TRUE(R.Ok) << Where << ": " << R.Error;
          EXPECT_EQ(R.ReturnValue, Expected) << Where;
          if (!Power.isContinuous()) {
            EXPECT_GT(R.PowerFailures, 0u) << Where;
          }
          if (Env != Environment::PlainC) {
            EXPECT_EQ(R.WarViolations, 0u) << Where;
          }
        }
      }
    }
  }
}

TEST(FrontendTest, EndToEndIntermittent) {
  const char *Src = R"(
    int fib_table[32];
    int main(void) {
      fib_table[0] = 0;
      fib_table[1] = 1;
      for (int i = 2; i < 32; i++)
        fib_table[i] = fib_table[i-1] + fib_table[i-2];
      return fib_table[20];
    }
  )";
  DiagnosticEngine Diags;
  for (Environment Env :
       {Environment::RPDG, Environment::WarioComplete}) {
    auto M = compileC(Src, "fib", Diags);
    ASSERT_TRUE(M) << Diags.formatAll();
    PipelineOptions PO;
    PO.Env = Env;
    MModule MM = compile(*M, PO);
    EmulatorOptions EO;
    EO.Power = PowerSchedule::fixed(4000);
    EmulatorResult R = emulate(MM, EO);
    ASSERT_TRUE(R.Ok) << environmentName(Env) << ": " << R.Error;
    EXPECT_EQ(R.ReturnValue, 6765) << environmentName(Env);
    EXPECT_EQ(R.WarViolations, 0u);
  }
}
