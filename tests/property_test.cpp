// Property-based tests: randomized imperative tensor programs are
// functionalized, optimized, and executed by every pipeline, and all of them
// must agree bit-for-bit (within float tolerance) with eager execution of
// the original program.
//
// The generator builds programs from the constructs the paper targets:
// chains of views (select/slice/transpose/unsqueeze), in-place mutations
// through them (copy_/add_/relu_/fill_/masked_fill_), pure compute, loops
// indexed by the induction variable, and branches — a superset of the
// Figure 1/2/4 shapes.
#include <gtest/gtest.h>

#include "src/core/dce.h"
#include "src/core/fusion.h"
#include "src/core/inplace_reuse.h"
#include "src/core/lower_inplace.h"
#include "src/core/parallelize.h"
#include "src/core/tensor_ssa.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/runtime/pipeline.h"
#include "src/tensor/random.h"
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
using runtime::Pipeline;
using runtime::PipelineKind;
using runtime::RtValue;

using testing_support::ProgramGenerator;

class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, FunctionalizationPreservesSemantics) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  Graph g;
  ProgramGenerator gen(g, rng);
  auto inputs = gen.generate(10);
  ir::verify(g);

  runtime::Interpreter interp;
  auto expected = interp.run(g, inputs);

  core::lowerInplaceOps(g);
  auto stats = core::convertToTensorSSA(g);
  ir::verify(g);
  auto actual = interp.run(g, inputs);

  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(allClose(expected[i].tensor(), actual[i].tensor(), 1e-5))
        << "seed " << GetParam() << " output " << i << "\n"
        << stats.toString() << "\n"
        << toString(g);
  }
}

TEST_P(RandomProgramTest, AllPipelinesAgreeOnRandomPrograms) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  Graph g;
  ProgramGenerator gen(g, rng);
  auto inputs = gen.generate(8);
  ir::verify(g);

  std::vector<RtValue> reference;
  for (PipelineKind kind : runtime::allPipelines()) {
    Pipeline p(kind, g);
    auto out = p.run(inputs);
    if (reference.empty()) {
      reference = out;
      continue;
    }
    ASSERT_EQ(reference.size(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_TRUE(allClose(reference[i].tensor(), out[i].tensor(), 1e-5))
          << "seed " << GetParam() << " pipeline " << pipelineName(kind)
          << " output " << i;
    }
  }
}

// The full optimization sequence (the TensorSSA pipeline's passes), applied
// to random loop nests with the IR verified after every pass, then executed
// both serially and on the threaded engine. Generated programs contain
// parallelizable single loops, multi-statement bodies, and nested loops the
// parallelizer must reject — so this covers both the threaded ParallelMap
// path and its serial fallback against one reference.
TEST_P(RandomProgramTest, ParallelizedExecutionMatchesSerial) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 3);
  Graph g;
  ProgramGenerator gen(g, rng);
  auto inputs = gen.generate(10);
  ir::verify(g);

  runtime::Interpreter reference;
  auto expected = reference.run(g, inputs);

  using core::FusionPolicy;
  auto verified = [&](const char* pass, auto&& fn) {
    fn();
    ASSERT_NO_THROW(ir::verify(g)) << "seed " << GetParam()
                                   << ": IR broken after " << pass << ":\n"
                                   << toString(g);
  };
  verified("lowerInplaceOps", [&] { core::lowerInplaceOps(g); });
  verified("convertToTensorSSA", [&] { core::convertToTensorSSA(g); });
  verified("readonlyViewsToAccess", [&] {
    core::readonlyViewsToAccess(g, FusionPolicy::tensorssa());
  });
  verified("parallelizeLoops", [&] { core::parallelizeLoops(g); });
  verified("hoistConstants", [&] { core::hoistConstants(g); });
  verified("fuseKernels",
           [&] { core::fuseKernels(g, FusionPolicy::tensorssa()); });
  verified("markInplaceAssigns", [&] { core::markInplaceAssigns(g); });
  verified("eliminateDeadCode", [&] { core::eliminateDeadCode(g); });

  for (int threads : {1, 4}) {
    runtime::Interpreter interp(threads);
    auto actual = interp.run(g, inputs);
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(allClose(expected[i].tensor(), actual[i].tensor(), 1e-5))
          << "seed " << GetParam() << " output " << i << " threads=" << threads
          << "\n"
          << toString(g);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace tssa
