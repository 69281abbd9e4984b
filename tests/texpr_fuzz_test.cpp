// Differential fuzz harness for fused regions: randomized fused regions run
// by the interpreter (tiled where they tile, else whole; serial and across
// the pool) must produce bitwise-identical results to the whole body (the
// graph with its FusionGroup inlined, run node by node through
// tensor/ops.h).
//
// Case count defaults to 1000 and is overridable via TSSA_FUZZ_REPS (CI's
// sanitizer legs run a reduced sweep). Default-extent structures repeat
// every kStructureCycle cases while data values keep changing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/analysis/op_rules.h"
#include "src/analysis/tile_plan.h"
#include "src/ir/verifier.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/random.h"
#include "tests/fusion_inline.h"
#include "tests/property_gen.h"

namespace tssa {
namespace {

using ir::Graph;
using runtime::Interpreter;
using runtime::RtValue;
using testing_support::FusedRegionGenerator;

int fuzzReps() {
  const char* reps = std::getenv("TSSA_FUZZ_REPS");
  if (reps == nullptr) return 1000;
  const int n = std::atoi(reps);
  return n > 0 ? n : 1000;
}

/// Distinct structure seeds of the default-extent sweep.
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

std::vector<RtValue> cloned(const std::vector<RtValue>& values) {
  std::vector<RtValue> out;
  for (const RtValue& v : values)
    out.push_back(v.isTensor() ? RtValue(v.tensor().clone()) : v);
  return out;
}

/// The reference: the graph with every FusionGroup inlined, so each body
/// node runs once on whole tensors.
std::vector<RtValue> interpretedBody(const Graph& g,
                                     std::span<const RtValue> inputs) {
  return Interpreter().run(*testing_support::inlineFusionGroups(g), inputs);
}

TEST(TexprFuzzTest, FusedMatchesWholeBodyBitwise) {
  // Default extents: most regions fit one tile and run whole.
  const int reps = fuzzReps();
  const int hw = std::max(2, runtime::ThreadPool::hardwareThreads());
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
    // Every generated structure is priced as one kernel.
    ASSERT_TRUE(analysis::pricesAsOneKernel(*built.body));

    const auto reference = interpretedBody(g, built.inputs);
    for (const int threads : {1, hw}) {
      expectBitwiseEqual(Interpreter(threads).run(g, built.inputs),
                         reference,
                         "fused(threads=" + std::to_string(threads) +
                             ") vs whole body");
    }
  }
}

TEST(TexprFuzzTest, TiledMatchesWholeBodyBitwise) {
  // Regions big enough to tile: tiled bodies, serial and across the pool,
  // against the whole body.
  const int reps = fuzzReps();
  const int hw = std::max(2, runtime::ThreadPool::hardwareThreads());
  int tiledCases = 0;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t structSeed = 9001 + static_cast<std::uint64_t>(i);
    const std::uint64_t dataSeed = 17000 + static_cast<std::uint64_t>(i);
    Graph g;
    Rng structRng(structSeed);
    Rng dataRng(dataSeed);
    FusedRegionGenerator gen(g, structRng, dataRng,
                             FusedRegionGenerator::Extents::kTileable);
    auto built = gen.build();
    SCOPED_TRACE("case " + std::to_string(i) + " structSeed " +
                 std::to_string(structSeed) + " dataSeed " +
                 std::to_string(dataSeed));
    ir::verify(g);
    std::vector<analysis::Operand> params;
    for (const RtValue& v : built.inputs)
      params.push_back(analysis::operandOf(v));
    const auto plan = analysis::planTiles(*built.body, params);
    if (plan && plan->tiles >= 3) ++tiledCases;

    // Each run gets fresh inputs: a region may write a param in place.
    const auto reference = interpretedBody(g, cloned(built.inputs));
    for (const int threads : {1, hw}) {
      expectBitwiseEqual(
          Interpreter(threads).run(g, cloned(built.inputs)),
          reference,
          "tiled(threads=" + std::to_string(threads) + ") vs whole body");
    }
  }
  // Most regions span at least three tiles; the rest hold a reshape that
  // merges every candidate dim, or a view that selects or slices it. Half
  // of them also read, and may write back, a param of one rank more
  // through a select or slice along its extra dim.
  EXPECT_GE(tiledCases, reps * 3 / 4);
}

}  // namespace
}  // namespace tssa
