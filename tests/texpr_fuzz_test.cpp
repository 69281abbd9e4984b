// Differential fuzz harness for the texpr JIT: randomized fused regions
// must produce bitwise-identical results as native code and as the
// interpreted body (the tensor/ops.h reference), serial and threaded, and
// every decline reason must fall back to the interpreted body cleanly (same
// results, counter incremented).
//
// Case count defaults to 1000 and is overridable via TSSA_FUZZ_REPS (CI's
// sanitizer legs run a reduced sweep). Structures repeat every
// kStructureCycle cases so the number of distinct JIT compiles stays
// bounded while data values keep changing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/random.h"
#include "src/texpr/codegen.h"
#include "src/texpr/jit.h"
#include "src/texpr/texpr.h"
#include "tests/property_gen.h"

namespace tssa {
namespace {

using ir::Block;
using ir::Graph;
using ir::IRBuilder;
using ir::Node;
using ir::OpKind;
using ir::Type;
using ir::Value;
using runtime::Interpreter;
using runtime::RtValue;
using testing_support::FusedRegionGenerator;

int fuzzReps() {
  const char* reps = std::getenv("TSSA_FUZZ_REPS");
  if (reps == nullptr) return 1000;
  const int n = std::atoi(reps);
  return n > 0 ? n : 1000;
}

/// Distinct structure seeds per sweep: bounds the number of kernels the
/// sweep compiles (~one per structure × contiguity/dtype signature).
constexpr std::uint64_t kStructureCycle = 150;

void expectBitwiseEqual(const std::vector<RtValue>& a,
                        const std::vector<RtValue>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(allClose(a[i].tensor(), b[i].tensor(), 0.0))
        << what << " output " << i << ":\n"
        << a[i].tensor().toString() << "\nvs\n"
        << b[i].tensor().toString();
  }
}

/// An Interpreter that runs supported fused bodies as native code.
Interpreter jitInterpreter(int threads = 1) {
  return Interpreter(nullptr, /*useTexpr=*/true, threads, /*texprJit=*/true);
}

/// The reference: every fused body interpreted node by node.
std::vector<RtValue> interpretedBody(const Graph& g,
                                     std::span<const RtValue> inputs) {
  return Interpreter(nullptr, /*useTexpr=*/true, 1, /*texprJit=*/false)
      .run(g, inputs);
}

TEST(TexprFuzzTest, JitMatchesInterpreterBitwise) {
  const int reps = fuzzReps();
  const int hw = std::max(2, runtime::ThreadPool::hardwareThreads());
  auto& cache = texpr::jit::KernelCache::instance();
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t structSeed =
        101 + static_cast<std::uint64_t>(i) % kStructureCycle;
    const std::uint64_t dataSeed = 7000 + static_cast<std::uint64_t>(i);
    Graph g;
    Rng structRng(structSeed);
    Rng dataRng(dataSeed);
    FusedRegionGenerator gen(g, structRng, dataRng);
    auto built = gen.build();
    SCOPED_TRACE("case " + std::to_string(i) + " structSeed " +
                 std::to_string(structSeed) + " dataSeed " +
                 std::to_string(dataSeed));
    ir::verify(g);
    ASSERT_TRUE(texpr::Kernel::supports(*built.body));

    const auto before = cache.stats();
    const auto jitSerial = jitInterpreter().run(g, built.inputs);
    const auto after = cache.stats();
    // Every generated structure is JIT-supported: the run must have engaged
    // the native path (fresh compile or cache hit), never declined. With
    // TSSA_TEXPR_JIT=0 the sweep still runs, as a check of the interpreted
    // body against itself.
    if (texpr::jit::jitEnabled()) {
      EXPECT_EQ(after.declines, before.declines);
      EXPECT_GE(after.hits + after.misses, before.hits + before.misses + 1);
    }

    const auto reference = interpretedBody(g, built.inputs);
    expectBitwiseEqual(jitSerial, reference, "jit vs interpreted body");
    const auto jitThreaded = jitInterpreter(hw).run(g, built.inputs);
    expectBitwiseEqual(jitThreaded, reference,
                       "jit(threads=" + std::to_string(hw) +
                           ") vs interpreted body");
  }
}

/// Builds `relu(maskedFill(p0, p1 > p0, fill))` with `fill` a scalar param —
/// MaskedFill is structurally declined by the codegen (reason "op").
std::unique_ptr<Graph> maskedFillGraph() {
  auto g = std::make_unique<Graph>();
  Value* in0 = g->addInput(Type::tensor());
  Value* in1 = g->addInput(Type::tensor());
  Value* inFill = g->addInput(Type::floating());
  IRBuilder b(*g);
  Node* group = b.emitNode(OpKind::FusionGroup, {in0, in1, inFill}, 0);
  Block* body = group->addBlock();
  Value* p0 = body->addParam(in0->type());
  Value* p1 = body->addParam(in1->type());
  Value* fill = body->addParam(inFill->type());
  IRBuilder inner(*g);
  inner.setInsertionPointToEnd(body);
  Value* mask = inner.gt(p1, p0);
  Node* mf = inner.emitNode(OpKind::MaskedFill, {p0, mask, fill}, 1);
  body->addReturn(inner.relu(mf->output()));
  group->addOutput(Type::tensor());
  g->addOutput(group->output(0));
  return g;
}

/// Bool+Bool arithmetic promotes to Bool, which the codegen declines
/// (reason "dtype") while the interpreter happily evaluates it.
std::unique_ptr<Graph> boolArithGraph() {
  auto g = std::make_unique<Graph>();
  Value* in0 = g->addInput(Type::tensor());
  Value* in1 = g->addInput(Type::tensor());
  IRBuilder b(*g);
  Node* group = b.emitNode(OpKind::FusionGroup, {in0, in1}, 0);
  Block* body = group->addBlock();
  Value* p0 = body->addParam(in0->type());
  Value* p1 = body->addParam(in1->type());
  IRBuilder inner(*g);
  inner.setInsertionPointToEnd(body);
  body->addReturn(inner.add(inner.gt(p0, p1), inner.le(p0, p1)));
  group->addOutput(Type::tensor());
  g->addOutput(group->output(0));
  return g;
}

TEST(TexprFuzzTest, OpDeclineFallsBackBitwise) {
  if (!texpr::jit::jitEnabled()) GTEST_SKIP() << "texpr JIT disabled";
  auto g = maskedFillGraph();
  Rng rng(11);
  std::vector<RtValue> inputs{RtValue(rng.uniform({3, 4}, -1, 1)),
                              RtValue(rng.uniform({3, 4}, -1, 1)),
                              RtValue(Scalar(0.5))};
  auto& cache = texpr::jit::KernelCache::instance();
  const auto before = cache.stats();
  const auto a = jitInterpreter().run(*g, inputs);
  const auto after = cache.stats();
  EXPECT_EQ(after.declines, before.declines + 1);
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses);
  expectBitwiseEqual(a, interpretedBody(*g, inputs), "op decline");
}

TEST(TexprFuzzTest, DtypeDeclineFallsBackBitwise) {
  if (!texpr::jit::jitEnabled()) GTEST_SKIP() << "texpr JIT disabled";
  auto g = boolArithGraph();
  Rng rng(12);
  std::vector<RtValue> inputs{RtValue(rng.uniform({4, 5}, -1, 1)),
                              RtValue(rng.uniform({4, 5}, -1, 1))};
  auto& cache = texpr::jit::KernelCache::instance();
  const auto before = cache.stats();
  const auto a = jitInterpreter().run(*g, inputs);
  const auto after = cache.stats();
  EXPECT_EQ(after.declines, before.declines + 1);
  expectBitwiseEqual(a, interpretedBody(*g, inputs), "dtype decline");
}

TEST(TexprFuzzTest, ToolchainFailureFallsBackBitwise) {
  if (!texpr::jit::jitEnabled()) GTEST_SKIP() << "texpr JIT disabled";
  // Point the per-compile compiler override at /bin/false: the compile
  // fails, the launch declines (reason "toolchain"), and the interpreted
  // body's result is served unchanged. The cache is cleared first so the key
  // cannot be satisfied by an earlier successful compile.
  ::setenv("TSSA_JIT_CC", "/bin/false", 1);
  auto& cache = texpr::jit::KernelCache::instance();
  cache.clearForTesting();

  Graph g;
  Rng structRng(7);
  Rng dataRng(77);
  FusedRegionGenerator gen(g, structRng, dataRng);
  auto built = gen.build();
  Interpreter jit = jitInterpreter();

  const auto before = cache.stats();
  const auto a = jit.run(g, built.inputs);
  const auto after = cache.stats();
  ::unsetenv("TSSA_JIT_CC");
  cache.clearForTesting();

  EXPECT_EQ(after.compileFails, before.compileFails + 1);
  EXPECT_EQ(after.declines, before.declines + 1);
  const auto b = interpretedBody(g, built.inputs);
  expectBitwiseEqual(a, b, "toolchain decline");

  // The failure is memoized per kernel: a second run declines again without
  // attempting another compile.
  const auto mid = cache.stats();
  const auto c = jit.run(g, built.inputs);
  const auto last = cache.stats();
  EXPECT_EQ(last.compileFails, mid.compileFails);
  EXPECT_EQ(last.declines, mid.declines + 1);
  expectBitwiseEqual(c, b, "memoized toolchain decline");
}

TEST(TexprFuzzTest, JitOffInterpreterNeverTouchesKernelCache) {
  Graph g;
  Rng structRng(9);
  Rng dataRng(99);
  FusedRegionGenerator gen(g, structRng, dataRng);
  auto built = gen.build();
  auto& cache = texpr::jit::KernelCache::instance();
  const auto before = cache.stats();
  (void)interpretedBody(g, built.inputs);
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.declines, before.declines);
}

}  // namespace
}  // namespace tssa
