// KernelCache behaviour: cache-key correctness (what must share a kernel
// and what must not), single-flight compilation under concurrency, and
// eviction while a compiled kernel is still in use.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "src/ir/builder.h"
#include "src/runtime/interpreter.h"
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
using texpr::codegen::Generator;
using texpr::codegen::InputSig;
using texpr::jit::KernelCache;

/// Builds `relu(p0 + p1)` as a FusionGroup body inside `g`.
Block* addSquashBody(Graph& g) {
  Value* in0 = g.addInput(Type::tensor());
  Value* in1 = g.addInput(Type::tensor());
  IRBuilder b(g);
  Node* group = b.emitNode(OpKind::FusionGroup, {in0, in1}, 0);
  Block* body = group->addBlock();
  Value* p0 = body->addParam(in0->type());
  Value* p1 = body->addParam(in1->type());
  IRBuilder inner(g);
  inner.setInsertionPointToEnd(body);
  body->addReturn(inner.relu(inner.add(p0, p1)));
  group->addOutput(Type::tensor());
  g.addOutput(group->output(0));
  return body;
}

/// The reference: `g` with every fused body interpreted node by node.
std::vector<RtValue> interpretedBody(const Graph& g,
                                     std::span<const RtValue> inputs) {
  return Interpreter(nullptr, /*useTexpr=*/true, 1, /*texprJit=*/false)
      .run(g, inputs);
}

void expectBitwiseEqual(const std::vector<RtValue>& got,
                        const std::vector<RtValue>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(allClose(got[i].tensor(), want[i].tensor(), 0.0));
}

InputSig tensorSig(DType dtype, int rank, bool contiguous) {
  InputSig s;
  s.isTensor = true;
  s.dtype = dtype;
  s.rank = rank;
  s.contiguous = contiguous;
  return s;
}

TEST(JitCacheTest, KeyDistinguishesDtypeRankAndContiguity) {
  Graph g;
  Generator gen(*addSquashBody(g));
  const std::vector<InputSig> f32{tensorSig(DType::Float32, 2, true),
                                  tensorSig(DType::Float32, 2, true)};
  const std::vector<InputSig> i64{tensorSig(DType::Int64, 2, true),
                                  tensorSig(DType::Float32, 2, true)};
  const std::vector<InputSig> rank3{tensorSig(DType::Float32, 3, true),
                                    tensorSig(DType::Float32, 2, true)};
  const std::vector<InputSig> strided{tensorSig(DType::Float32, 2, false),
                                      tensorSig(DType::Float32, 2, true)};
  const std::string base = gen.cacheKey(f32);
  EXPECT_NE(base, gen.cacheKey(i64));
  EXPECT_NE(base, gen.cacheKey(rank3));
  EXPECT_NE(base, gen.cacheKey(strided));
  // Same signature twice: identical key (the key is a pure function).
  EXPECT_EQ(base, gen.cacheKey(f32));
}

TEST(JitCacheTest, StructurallyIdenticalBodiesShareAKey) {
  // The same body built in two unrelated graphs must map to one kernel:
  // the key fingerprints structure, not Value identities.
  Graph g1;
  Graph g2;
  Generator gen1(*addSquashBody(g1));
  Generator gen2(*addSquashBody(g2));
  const std::vector<InputSig> sig{tensorSig(DType::Float32, 2, true),
                                  tensorSig(DType::Float32, 2, true)};
  EXPECT_EQ(gen1.cacheKey(sig), gen2.cacheKey(sig));
}

TEST(JitCacheTest, SingleFlightCompileUnderConcurrency) {
  Graph g;
  Block* body = addSquashBody(g);
  Generator gen(*body);
  const std::vector<InputSig> sig{tensorSig(DType::Float32, 2, true),
                                  tensorSig(DType::Float32, 2, true)};
  ASSERT_EQ(gen.declineFor(sig), texpr::codegen::Decline::None);
  const std::string key = gen.cacheKey(sig);
  const std::string source = gen.emitSource(sig);

  auto& cache = KernelCache::instance();
  cache.clearForTesting();
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<texpr::jit::CompiledKernel>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] =
          cache.getOrCompile(key, [&] { return source; });
    });
  }
  for (auto& th : threads) th.join();

  const auto stats = cache.stats();
  // Exactly one compile; every other thread either rendezvoused on it or
  // hit the published entry. All callers got the same kernel object.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.compileFails, 0u);
  EXPECT_EQ(stats.size, 1u);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(results[static_cast<std::size_t>(t)], nullptr);
    EXPECT_EQ(results[static_cast<std::size_t>(t)], results[0]);
  }
  cache.clearForTesting();
}

TEST(JitCacheTest, HonorsTmpdirForScratchFiles) {
  if (!texpr::jit::jitEnabled()) GTEST_SKIP() << "texpr JIT disabled";
  auto& cache = KernelCache::instance();
  cache.clearForTesting();

  const char* old = std::getenv("TMPDIR");
  const std::string saved = old != nullptr ? old : "";

  // Scratch dir the compile must land in (sandboxes point TMPDIR at the one
  // writable location; a hardcoded /tmp would miss it).
  char scratch[] = "./tssa-jit-scratch-XXXXXX";
  ASSERT_NE(::mkdtemp(scratch), nullptr);
  ::setenv("TMPDIR", scratch, 1);

  Graph g;
  Block* body = addSquashBody(g);
  Rng rng(33);
  std::vector<RtValue> inputs{RtValue(rng.uniform({4, 4}, -1, 1)),
                              RtValue(rng.uniform({4, 4}, -1, 1))};
  texpr::Kernel jitted(*body);
  const auto got = jitted.run(inputs, 1);

  // The kernel engaged: one successful native compile, no fallback — with
  // every scratch file created under TMPDIR and cleaned up afterwards.
  EXPECT_TRUE(got.has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().compileFails, 0u);
  EXPECT_EQ(cache.stats().size, 1u);
  const auto want = interpretedBody(g, inputs);
  if (got) expectBitwiseEqual(*got, want);
  EXPECT_EQ(::rmdir(scratch), 0) << "scratch dir not empty or never used";

  // Counter-probe: an unusable TMPDIR must break the compile — proof the
  // path above really came from the environment, not a /tmp fallback. The
  // launch declines and the interpreter serves the interpreted body.
  cache.clearForTesting();
  ::setenv("TMPDIR", "./tssa-jit-does-not-exist", 1);
  const auto fallback =
      Interpreter(nullptr, /*useTexpr=*/true, 1, /*texprJit=*/true)
          .run(g, inputs);
  EXPECT_EQ(cache.stats().compileFails, 1u);
  expectBitwiseEqual(fallback, want);

  if (saved.empty())
    ::unsetenv("TMPDIR");
  else
    ::setenv("TMPDIR", saved.c_str(), 1);
  cache.clearForTesting();
}

TEST(JitCacheTest, EvictedKernelStaysUsableWhileReferenced) {
  if (!texpr::jit::jitEnabled()) GTEST_SKIP() << "texpr JIT disabled";
  auto& cache = KernelCache::instance();
  cache.clearForTesting();
  cache.setCapacityForTesting(1);

  // Two structurally different bodies: compiling the second must evict the
  // first from the cache, while the first Kernel's memoized shared_ptr
  // keeps the code mapped and runnable.
  Graph g1;
  Block* body1 = addSquashBody(g1);
  Graph g2;
  Value* in = g2.addInput(Type::tensor());
  IRBuilder b2(g2);
  Node* group2 = b2.emitNode(OpKind::FusionGroup, {in}, 0);
  Block* body2 = group2->addBlock();
  Value* p = body2->addParam(in->type());
  IRBuilder inner2(g2);
  inner2.setInsertionPointToEnd(body2);
  body2->addReturn(inner2.tanh(inner2.neg(p)));
  group2->addOutput(Type::tensor());
  g2.addOutput(group2->output(0));

  Rng rng(21);
  std::vector<RtValue> inputs1{RtValue(rng.uniform({4, 4}, -1, 1)),
                               RtValue(rng.uniform({4, 4}, -1, 1))};
  std::vector<RtValue> inputs2{RtValue(rng.uniform({4, 4}, -1, 1))};

  texpr::Kernel k1(*body1);
  texpr::Kernel k2(*body2);

  const auto first = k1.run(inputs1, 1);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(cache.stats().size, 1u);
  ASSERT_TRUE(k2.run(inputs2, 1).has_value());
  // Capacity 1: compiling body2's kernel evicted body1's cache entry.
  EXPECT_EQ(cache.stats().size, 1u);

  // k1 still runs natively through its memoized kernel (counted as a hit)
  // and still matches both its earlier result and the interpreted body.
  const auto before = cache.stats();
  const auto again = k1.run(inputs1, 1);
  const auto after = cache.stats();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  const auto reference = interpretedBody(g1, inputs1);
  expectBitwiseEqual(*again, reference);
  expectBitwiseEqual(*first, reference);

  cache.setCapacityForTesting(256);
  cache.clearForTesting();
}

}  // namespace
}  // namespace tssa
