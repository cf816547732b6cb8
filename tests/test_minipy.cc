#include <gtest/gtest.h>

#include "minipy/compiler.h"
#include "minipy/interp.h"
#include "minipy/parser.h"
#include "vm/context.h"

namespace xlvm {
namespace minipy {
namespace {

/** Run a program and return its print() output. */
std::string
runSource(const std::string &src, bool jit, uint32_t threshold = 20,
          uint64_t max_instr = 0)
{
    vm::VmConfig cfg;
    cfg.jit.enableJit = jit;
    cfg.jit.loopThreshold = threshold;
    cfg.jit.bridgeThreshold = 10;
    cfg.maxInstructions = max_instr;
    vm::VmContext ctx(cfg);
    auto prog = compileSource(src, ctx.space);
    Interp interp(ctx, *prog);
    EXPECT_TRUE(interp.run());
    return interp.output();
}

/** Property: JIT on/off must agree. */
void
checkAgreement(const std::string &src, uint32_t threshold = 20)
{
    std::string off = runSource(src, false);
    std::string on = runSource(src, true, threshold);
    EXPECT_EQ(off, on) << src;
    EXPECT_FALSE(off.empty());
}

// ------------------------------------------------------------ lexer/parser

TEST(Lexer, BasicTokens)
{
    auto toks = tokenize("x = 1 + 2.5\n");
    ASSERT_GE(toks.size(), 6u);
    EXPECT_EQ(toks[0].kind, Tok::Name);
    EXPECT_EQ(toks[1].kind, Tok::Assign);
    EXPECT_EQ(toks[2].kind, Tok::Int);
    EXPECT_EQ(toks[2].intValue, 1);
    EXPECT_EQ(toks[3].kind, Tok::Plus);
    EXPECT_EQ(toks[4].kind, Tok::Float);
    EXPECT_DOUBLE_EQ(toks[4].floatValue, 2.5);
}

TEST(Lexer, IndentDedent)
{
    auto toks = tokenize("if x:\n    y = 1\nz = 2\n");
    int indents = 0, dedents = 0;
    for (const auto &t : toks) {
        indents += t.kind == Tok::Indent;
        dedents += t.kind == Tok::Dedent;
    }
    EXPECT_EQ(indents, 1);
    EXPECT_EQ(dedents, 1);
}

TEST(Lexer, StringEscapes)
{
    auto toks = tokenize("s = \"a\\nb\"\n");
    EXPECT_EQ(toks[2].kind, Tok::Str);
    EXPECT_EQ(toks[2].text, "a\nb");
}

TEST(Lexer, NotInAndIsNot)
{
    auto toks = tokenize("a not in b\nc is not d\n");
    bool notin = false, isnot = false;
    for (const auto &t : toks) {
        notin |= t.kind == Tok::KwNotIn;
        isnot |= t.kind == Tok::KwIsNot;
    }
    EXPECT_TRUE(notin);
    EXPECT_TRUE(isnot);
}

TEST(Parser, FunctionAndLoop)
{
    Module m = parse("def f(a, b=2):\n"
                     "    return a + b\n"
                     "x = f(1)\n"
                     "while x < 10:\n"
                     "    x = x + 1\n");
    ASSERT_EQ(m.body.size(), 3u);
    EXPECT_EQ(m.body[0]->kind, StmtKind::Def);
    EXPECT_EQ(m.body[0]->params.size(), 2u);
    EXPECT_EQ(m.body[0]->defaults.size(), 1u);
    EXPECT_EQ(m.body[2]->kind, StmtKind::While);
}

TEST(Parser, ClassWithMethods)
{
    Module m = parse("class A(B):\n"
                     "    def __init__(self):\n"
                     "        self.x = 1\n"
                     "    def get(self):\n"
                     "        return self.x\n");
    ASSERT_EQ(m.body.size(), 1u);
    EXPECT_EQ(m.body[0]->kind, StmtKind::ClassDef);
    EXPECT_EQ(m.body[0]->methods.size(), 2u);
    EXPECT_EQ(m.body[0]->globalNames[0], "B");
}

// ------------------------------------------------------------ interp basics

TEST(Interp, ArithmeticAndPrint)
{
    EXPECT_EQ(runSource("print(1 + 2 * 3)\n", false), "7\n");
    EXPECT_EQ(runSource("print(7 // 2, 7 % 2)\n", false), "3 1\n");
    EXPECT_EQ(runSource("print(-7 // 2, -7 % 2)\n", false), "-4 1\n");
    EXPECT_EQ(runSource("print(1.5 * 2)\n", false), "3\n");
    EXPECT_EQ(runSource("print(2 ** 10)\n", false), "1024\n");
    EXPECT_EQ(runSource("print(7 / 2)\n", false), "3.5\n");
}

TEST(Interp, BigIntPromotion)
{
    EXPECT_EQ(runSource("print(2 ** 100)\n", false),
              "1267650600228229401496703205376\n");
    EXPECT_EQ(
        runSource("x = 10 ** 30\nprint(x // 10 ** 10)\n", false),
        "100000000000000000000\n");
}

TEST(Interp, StringsAndMethods)
{
    EXPECT_EQ(runSource("print(\"ab\" + \"cd\")\n", false), "abcd\n");
    EXPECT_EQ(runSource("print(\",\".join([\"a\", \"b\"]))\n", false),
              "a,b\n");
    EXPECT_EQ(runSource("print(\"a-b-c\".split(\"-\"))\n", false),
              "['a', 'b', 'c']\n");
    EXPECT_EQ(runSource("print(\"hello\".upper())\n", false), "HELLO\n");
    EXPECT_EQ(runSource("print(\"hello\"[1])\n", false), "e\n");
    EXPECT_EQ(runSource("print(\"hello\"[1:3])\n", false), "el\n");
    EXPECT_EQ(runSource("print(len(\"hello\"))\n", false), "5\n");
    EXPECT_EQ(runSource("print(\"ell\" in \"hello\")\n", false),
              "True\n");
}

TEST(Interp, ListsAndDictsAndSets)
{
    EXPECT_EQ(runSource("x = [1, 2]\nx.append(3)\nprint(x)\n", false),
              "[1, 2, 3]\n");
    EXPECT_EQ(runSource("d = {\"a\": 1}\nd[\"b\"] = 2\n"
                        "print(d[\"a\"] + d[\"b\"])\n",
                        false),
              "3\n");
    EXPECT_EQ(runSource("s = {1, 2, 3}\nprint(2 in s, 9 in s)\n", false),
              "True False\n");
    EXPECT_EQ(runSource("x = [3, 1, 2]\nx.sort()\nprint(x)\n", false),
              "[1, 2, 3]\n");
    EXPECT_EQ(runSource("t = (1, 2, 3)\na, b, c = t\nprint(a + b + c)\n",
                        false),
              "6\n");
}

TEST(Interp, ControlFlow)
{
    const char *src = "total = 0\n"
                      "for i in range(10):\n"
                      "    if i % 2 == 0:\n"
                      "        total += i\n"
                      "    elif i == 7:\n"
                      "        total += 100\n"
                      "print(total)\n";
    EXPECT_EQ(runSource(src, false), "120\n");
}

TEST(Interp, WhileBreakContinue)
{
    const char *src = "i = 0\ns = 0\n"
                      "while True:\n"
                      "    i += 1\n"
                      "    if i > 10:\n"
                      "        break\n"
                      "    if i % 2 == 0:\n"
                      "        continue\n"
                      "    s += i\n"
                      "print(s)\n";
    EXPECT_EQ(runSource(src, false), "25\n");
}

TEST(Interp, FunctionsAndRecursion)
{
    const char *src = "def fib(n):\n"
                      "    if n < 2:\n"
                      "        return n\n"
                      "    return fib(n - 1) + fib(n - 2)\n"
                      "print(fib(15))\n";
    EXPECT_EQ(runSource(src, false), "610\n");
}

TEST(Interp, DefaultsAndGlobals)
{
    const char *src = "counter = 0\n"
                      "def bump(by=2):\n"
                      "    global counter\n"
                      "    counter += by\n"
                      "bump()\nbump(5)\nprint(counter)\n";
    EXPECT_EQ(runSource(src, false), "7\n");
}

TEST(Interp, ClassesAndAttributes)
{
    const char *src = "class Point:\n"
                      "    def __init__(self, x, y):\n"
                      "        self.x = x\n"
                      "        self.y = y\n"
                      "    def dist2(self):\n"
                      "        return self.x * self.x + self.y * self.y\n"
                      "p = Point(3, 4)\n"
                      "print(p.dist2())\n"
                      "p.x = 6\n"
                      "print(p.dist2())\n";
    EXPECT_EQ(runSource(src, false), "25\n52\n");
}

TEST(Interp, Inheritance)
{
    const char *src = "class A:\n"
                      "    def who(self):\n"
                      "        return 1\n"
                      "    def common(self):\n"
                      "        return 10\n"
                      "class B(A):\n"
                      "    def who(self):\n"
                      "        return 2\n"
                      "b = B()\n"
                      "print(b.who() + b.common())\n";
    EXPECT_EQ(runSource(src, false), "12\n");
}

TEST(Interp, BoolOpsShortCircuit)
{
    EXPECT_EQ(runSource("print(1 < 2 and 3 < 4)\n", false), "True\n");
    EXPECT_EQ(runSource("print(0 or 5)\n", false), "5\n");
    EXPECT_EQ(runSource("print(not (1 == 1))\n", false), "False\n");
}

TEST(Interp, SliceOperations)
{
    EXPECT_EQ(runSource("x = [1,2,3,4,5]\nprint(x[1:3])\n", false),
              "[2, 3]\n");
    EXPECT_EQ(runSource("x = [1,2,3,4,5]\nprint(x[:2], x[3:])\n", false),
              "[1, 2] [4, 5]\n");
    EXPECT_EQ(runSource("x = [1,2,3]\nx[1:2] = [7,8]\nprint(x)\n", false),
              "[1, 7, 8, 3]\n");
}

TEST(Interp, AugAssignSubscript)
{
    EXPECT_EQ(runSource("x = [1, 2]\nx[0] += 10\nprint(x)\n", false),
              "[11, 2]\n");
    const char *attr = "class C:\n"
                       "    def __init__(self):\n"
                       "        self.n = 1\n"
                       "c = C()\nc.n += 41\nprint(c.n)\n";
    EXPECT_EQ(runSource(attr, false), "42\n");
}

// ------------------------------------------------------------ JIT harmony

TEST(Jit, IntLoopAgreement)
{
    checkAgreement("i = 0\ntotal = 0\n"
                   "while i < 500:\n"
                   "    total = total + i\n"
                   "    i = i + 1\n"
                   "print(total)\n");
}

TEST(Jit, FloatLoopAgreement)
{
    checkAgreement("x = 0.0\ni = 0\n"
                   "while i < 400:\n"
                   "    x = x + 1.5\n"
                   "    i = i + 1\n"
                   "print(x)\n");
}

TEST(Jit, ForRangeAgreement)
{
    checkAgreement("t = 0\n"
                   "for i in range(300):\n"
                   "    t += i * 2\n"
                   "print(t)\n");
}

TEST(Jit, ListLoopAgreement)
{
    checkAgreement("xs = []\n"
                   "for i in range(200):\n"
                   "    xs.append(i)\n"
                   "t = 0\n"
                   "for x in xs:\n"
                   "    t += x\n"
                   "print(t, len(xs))\n");
}

TEST(Jit, DictLoopAgreement)
{
    checkAgreement("d = {}\n"
                   "for i in range(150):\n"
                   "    d[i % 17] = i\n"
                   "t = 0\n"
                   "for k in d:\n"
                   "    t += d[k]\n"
                   "print(t)\n");
}

TEST(Jit, AttributeLoopAgreement)
{
    checkAgreement("class Acc:\n"
                   "    def __init__(self):\n"
                   "        self.v = 0\n"
                   "    def add(self, x):\n"
                   "        self.v = self.v + x\n"
                   "a = Acc()\n"
                   "for i in range(300):\n"
                   "    a.add(i)\n"
                   "print(a.v)\n");
}

TEST(Jit, FunctionInliningAgreement)
{
    checkAgreement("def sq(x):\n"
                   "    return x * x\n"
                   "t = 0\n"
                   "for i in range(250):\n"
                   "    t += sq(i)\n"
                   "print(t)\n");
}

TEST(Jit, BranchyLoopBridges)
{
    // Alternating branch directions force guard failures and bridges.
    checkAgreement("t = 0\n"
                   "for i in range(600):\n"
                   "    if i % 3 == 0:\n"
                   "        t += 1\n"
                   "    else:\n"
                   "        t += 2\n"
                   "print(t)\n",
                   15);
}

TEST(Jit, NestedLoopsCallAssembler)
{
    checkAgreement("t = 0\n"
                   "i = 0\n"
                   "while i < 40:\n"
                   "    j = 0\n"
                   "    while j < 40:\n"
                   "        t += j\n"
                   "        j += 1\n"
                   "    i += 1\n"
                   "print(t)\n",
                   10);
}

TEST(Jit, StringBuildingAgreement)
{
    checkAgreement("parts = []\n"
                   "for i in range(120):\n"
                   "    parts.append(str(i))\n"
                   "s = \",\".join(parts)\n"
                   "print(len(s))\n");
}

TEST(Jit, OverflowToBigIntAgreement)
{
    checkAgreement("x = 1\n"
                   "for i in range(80):\n"
                   "    x = x * 3\n"
                   "print(x)\n");
}

TEST(Jit, CompilesAndExecutesTraces)
{
    vm::VmConfig cfg;
    cfg.jit.loopThreshold = 20;
    vm::VmContext ctx(cfg);
    auto prog = compileSource("t = 0\n"
                              "for i in range(500):\n"
                              "    t += i\n"
                              "print(t)\n",
                              ctx.space);
    Interp interp(ctx, *prog);
    ASSERT_TRUE(interp.run());
    EXPECT_EQ(interp.output(), "124750\n");
    EXPECT_GE(interp.tracesCompleted, 1u);
    EXPECT_GE(ctx.registry.size(), 1u);
    EXPECT_GT(ctx.executor.iterationCount(), 100u);
    // Phase accounting: some cycles in the JIT phase.
    EXPECT_GT(ctx.bus.phases.phaseCounters(xlayer::Phase::Jit).cycles(), 0.0);
    EXPECT_GT(ctx.bus.phases.phaseCounters(xlayer::Phase::Tracing).cycles(),
              0.0);
}

TEST(Jit, JitIsFasterOnHotLoops)
{
    const char *src = "t = 0\n"
                      "for i in range(3000):\n"
                      "    t += i * 2 + 1\n"
                      "print(t)\n";
    vm::VmConfig off;
    off.jit.enableJit = false;
    vm::VmContext c1(off);
    auto p1 = compileSource(src, c1.space);
    Interp i1(c1, *p1);
    ASSERT_TRUE(i1.run());

    vm::VmConfig on;
    on.jit.loopThreshold = 20;
    vm::VmContext c2(on);
    auto p2 = compileSource(src, c2.space);
    Interp i2(c2, *p2);
    ASSERT_TRUE(i2.run());

    EXPECT_EQ(i1.output(), i2.output());
    EXPECT_LT(c2.totalCyclesForTest(), c1.totalCyclesForTest());
}

TEST(Jit, WorkRateCountsDispatches)
{
    vm::VmConfig cfg;
    cfg.jit.loopThreshold = 20;
    vm::VmContext ctx(cfg);
    auto prog = compileSource("t = 0\n"
                              "for i in range(400):\n"
                              "    t += 1\n",
                              ctx.space);
    Interp interp(ctx, *prog);
    ASSERT_TRUE(interp.run());
    ctx.bus.work.finalize();
    // Work (bytecodes) executed on either side of the JIT boundary is
    // counted uniformly through the dispatch annotation.
    EXPECT_GT(ctx.bus.work.totalWork(), 1000u);
}

TEST(Jit, BudgetStopsExecution)
{
    vm::VmConfig cfg;
    cfg.maxInstructions = 20000;
    vm::VmContext ctx(cfg);
    auto prog = compileSource("i = 0\n"
                              "while i < 100000000:\n"
                              "    i += 1\n",
                              ctx.space);
    Interp interp(ctx, *prog);
    EXPECT_FALSE(interp.run());
    EXPECT_GE(ctx.core.totalInstructions(), 20000u);
}

TEST(Jit, GcRunsDuringJitLoops)
{
    vm::VmConfig cfg;
    cfg.jit.loopThreshold = 15;
    cfg.heap.nurseryBytes = 16 * 1024;
    vm::VmContext ctx(cfg);
    auto prog = compileSource("t = 0\n"
                              "for i in range(2000):\n"
                              "    xs = [i, i + 1, i + 2]\n"
                              "    t += xs[1]\n"
                              "print(t)\n",
                              ctx.space);
    Interp interp(ctx, *prog);
    ASSERT_TRUE(interp.run());
    EXPECT_EQ(interp.output(), "2001000\n");
    EXPECT_GT(ctx.heap.stats().minorCollections, 0u);
}

} // namespace
} // namespace minipy
} // namespace xlvm
