// Differential testing of the compilation pipeline (ISSUE: differential &
// determinism suite). Every workload is executed at four optimization
// levels — unoptimized reference, functionalized, +fusion, +parallelization —
// with the IR verified after every individual pass, and every level's outputs
// are compared against the reference interpreter's within tolerance. The
// parallelized level additionally runs threaded to cover the concurrent
// ParallelMap / fused-kernel execution paths.
#include <gtest/gtest.h>

#include "src/core/dce.h"
#include "src/core/fusion.h"
#include "src/core/inplace_reuse.h"
#include "src/core/lower_inplace.h"
#include "src/core/parallelize.h"
#include "src/core/tensor_ssa.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/runtime/interpreter.h"
#include "src/workloads/workload.h"

namespace tssa {
namespace {

using runtime::Interpreter;
using runtime::RtValue;
using workloads::buildWorkload;
using workloads::Workload;
using workloads::WorkloadConfig;

enum class Level {
  Reference,        // the imperative program, executed eagerly
  Functionalized,   // holistic functionalization (§4.1)
  Fused,            // + readonly-view rewriting, vertical fusion (§4.2.1)
  Parallelized,     // + horizontal loop parallelization (§4.2.2)
};

const char* levelName(Level level) {
  switch (level) {
    case Level::Reference: return "reference";
    case Level::Functionalized: return "functionalized";
    case Level::Fused: return "fused";
    case Level::Parallelized: return "parallelized";
  }
  return "?";
}

/// Applies the passes of `level` to `graph`, verifying the IR after every
/// pass so a mis-transformation is pinned to the pass that introduced it.
void compileTo(Level level, ir::Graph& graph) {
  using core::FusionPolicy;
  auto verified = [&](const char* pass, auto&& fn) {
    fn();
    ASSERT_NO_THROW(ir::verify(graph)) << "IR broken after " << pass << ":\n"
                                       << toString(graph);
  };
  if (level == Level::Reference) return;
  verified("lowerInplaceOps", [&] { core::lowerInplaceOps(graph); });
  verified("convertToTensorSSA", [&] { core::convertToTensorSSA(graph); });
  if (level >= Level::Fused) {
    verified("readonlyViewsToAccess", [&] {
      core::readonlyViewsToAccess(graph, FusionPolicy::tensorssa());
    });
  }
  if (level >= Level::Parallelized) {
    verified("parallelizeLoops", [&] { core::parallelizeLoops(graph); });
  }
  if (level >= Level::Fused) {
    verified("hoistConstants", [&] { core::hoistConstants(graph); });
    verified("fuseKernels", [&] {
      core::fuseKernels(graph, FusionPolicy::tensorssa());
    });
    verified("markInplaceAssigns", [&] { core::markInplaceAssigns(graph); });
  }
  verified("eliminateDeadCode", [&] { core::eliminateDeadCode(graph); });
}

void expectMatchesReference(const Workload& w,
                            const std::vector<RtValue>& reference,
                            const std::vector<RtValue>& got, Level level,
                            int threads) {
  ASSERT_EQ(reference.size(), got.size())
      << w.name << " at " << levelName(level);
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!reference[i].isTensor()) continue;
    EXPECT_TRUE(allClose(reference[i].tensor(), got[i].tensor(), 1e-4))
        << w.name << " output " << i << " differs at level "
        << levelName(level) << " (threads=" << threads << ")";
  }
}

class DifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DifferentialTest, EveryLevelMatchesReference) {
  WorkloadConfig config;
  config.batch = 2;
  config.seqLen = 12;
  Workload w = buildWorkload(GetParam(), config);
  ASSERT_NO_THROW(ir::verify(*w.graph));

  Interpreter reference;
  const std::vector<RtValue> expected = reference.run(*w.graph, w.inputs);

  for (Level level : {Level::Functionalized, Level::Fused,
                      Level::Parallelized}) {
    auto graph = ir::cloneGraph(*w.graph);
    compileTo(level, *graph);
    if (::testing::Test::HasFatalFailure()) return;

    Interpreter serial(/*threads=*/1);
    expectMatchesReference(w, expected, serial.run(*graph, w.inputs), level,
                           1);
    if (level == Level::Parallelized) {
      // The same compiled program, now with the threaded engine: iterations
      // of proven-independent ParallelMaps and the element loops of fused
      // kernels actually run concurrently.
      Interpreter threaded(/*threads=*/4);
      expectMatchesReference(w, expected, threaded.run(*graph, w.inputs),
                             level, 4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DifferentialTest,
                         ::testing::ValuesIn(workloads::workloadNames()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace tssa
