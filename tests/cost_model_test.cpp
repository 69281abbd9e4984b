// Tests for the analytic cost model (src/analysis/cost.h, ROADMAP item 5).
//
// Three layers of evidence that the model is honest:
//   (a) hand-computed flops/bytes for the per-op formulas (matmul =
//       2·M·N·K, softmax = 5·numel, reductions read the input once, ...),
//   (b) a fusion-conservation property over random imperative programs:
//       fusing a graph never changes its flops — the fused group's cost is
//       the sum of its pre-fusion member costs — while launches and bytes
//       only ever shrink,
//   (c) differential equality against the real Profiler: for every paper
//       workload × pipeline, and for random fused element regions in both
//       texpr modes, estimateCost() on the compiled graph reports exactly
//       the launches/bytes/flops/per-kernel histogram (and the same
//       simulated latency) that executing the program observes.
// Plus the symbolic path: bindSymbolic() over a workload's pattern must
// price a polymorphic program identically to concrete input metadata.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/cost.h"
#include "src/core/fusion.h"
#include "src/ir/builder.h"
#include "src/runtime/pipeline.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/random.h"
#include "src/workloads/workload.h"
#include "tests/property_gen.h"

namespace tssa {
namespace {

using analysis::CostOptions;
using analysis::CostReport;
using analysis::CostValue;
using analysis::costInputs;
using analysis::estimateCost;
using ir::Graph;
using ir::IRBuilder;
using ir::Value;
using runtime::PipelineKind;
using runtime::PipelineOptions;
using runtime::RtValue;
using testing_support::FusedRegionGenerator;
using testing_support::ProgramGenerator;

int fuzzReps() {
  const char* reps = std::getenv("TSSA_FUZZ_REPS");
  if (reps == nullptr) return 60;
  const int n = std::atoi(reps);
  return n > 0 ? std::min(n, 60) : 60;
}

CostValue f32(Shape sizes) {
  return CostValue::tensor(std::move(sizes), DType::Float32);
}

// ---- (a) hand-computed per-op formulas -------------------------------------

TEST(CostModelTest, MatmulIsTwoMNK) {
  Graph g;
  IRBuilder b(g);
  Value* a = g.addInput(ir::Type::tensor(DType::Float32), "a");
  Value* w = g.addInput(ir::Type::tensor(DType::Float32), "w");
  g.addOutput(b.matmul(a, w));
  const std::vector<CostValue> in = {f32({3, 4}), f32({4, 5})};
  const CostReport r = estimateCost(g, in);
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.launches, 1);
  EXPECT_EQ(r.flops, 2 * 3 * 4 * 5);
  EXPECT_EQ(r.bytes, (3 * 4 + 4 * 5 + 3 * 5) * 4);
  const CostOptions opts;
  EXPECT_DOUBLE_EQ(r.gpuUs, opts.device.kernelTimeUs(r.bytes, r.flops));
}

TEST(CostModelTest, BmmIsBatchedMatmul) {
  Graph g;
  IRBuilder b(g);
  Value* a = g.addInput(ir::Type::tensor(DType::Float32), "a");
  Value* w = g.addInput(ir::Type::tensor(DType::Float32), "w");
  g.addOutput(b.bmm(a, w));
  const std::vector<CostValue> in = {f32({2, 3, 4}), f32({2, 4, 5})};
  const CostReport r = estimateCost(g, in);
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.launches, 1);
  EXPECT_EQ(r.flops, 2 * 2 * 3 * 4 * 5);
  EXPECT_EQ(r.bytes, (2 * 3 * 4 + 2 * 4 * 5 + 2 * 3 * 5) * 4);
}

TEST(CostModelTest, BroadcastAddMovesBothInputsAndOutput) {
  Graph g;
  IRBuilder b(g);
  Value* a = g.addInput(ir::Type::tensor(DType::Float32), "a");
  Value* c = g.addInput(ir::Type::tensor(DType::Float32), "c");
  g.addOutput(b.add(a, c));
  const CostReport r =
      estimateCost(g, std::vector<CostValue>{f32({4, 8}), f32({8})});
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.launches, 1);
  EXPECT_EQ(r.flops, 4 * 8);                     // one op per output element
  EXPECT_EQ(r.bytes, (32 + 8 + 32) * 4);         // a + b + out
}

TEST(CostModelTest, SoftmaxIsFiveNumel) {
  Graph g;
  IRBuilder b(g);
  Value* a = g.addInput(ir::Type::tensor(DType::Float32), "a");
  g.addOutput(b.softmax(a, /*dim=*/1));
  const CostReport r = estimateCost(g, std::vector<CostValue>{f32({2, 10})});
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.launches, 1);
  EXPECT_EQ(r.flops, 5 * 20);
  EXPECT_EQ(r.bytes, (2 * 20 + 20) * 4);  // 2·a + out
}

TEST(CostModelTest, FullReductionReadsInputOnce) {
  Graph g;
  IRBuilder b(g);
  Value* a = g.addInput(ir::Type::tensor(DType::Float32), "a");
  g.addOutput(b.sum(a));
  const CostReport r = estimateCost(g, std::vector<CostValue>{f32({6, 7})});
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.launches, 1);
  EXPECT_EQ(r.flops, 42);
  EXPECT_EQ(r.bytes, 42 * 4);  // the scalar output is free
}

TEST(CostModelTest, CatMovesOutputTwiceWithZeroFlops) {
  Graph g;
  IRBuilder b(g);
  Value* a = g.addInput(ir::Type::tensor(DType::Float32), "a");
  Value* c = g.addInput(ir::Type::tensor(DType::Float32), "c");
  g.addOutput(b.cat({a, c}, /*dim=*/0));
  const CostReport r =
      estimateCost(g, std::vector<CostValue>{f32({2, 3}), f32({4, 3})});
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.launches, 1);
  EXPECT_EQ(r.flops, 0);
  EXPECT_EQ(r.bytes, 2 * (6 * 3) * 4);
}

TEST(CostModelTest, MaskedFillCountsMaskBytes) {
  Graph g;
  IRBuilder b(g);
  Value* a = g.addInput(ir::Type::tensor(DType::Float32), "a");
  Value* m = g.addInput(ir::Type::tensor(DType::Bool), "m");
  g.addOutput(b.maskedFill(a, m, b.constFloat(0.0)));
  const std::vector<CostValue> in = {
      f32({2, 3}), CostValue::tensor({2, 3}, DType::Bool)};
  const CostReport r = estimateCost(g, in);
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.launches, 1);
  EXPECT_EQ(r.flops, 6);
  EXPECT_EQ(r.bytes, 24 + 6 + 24);  // f32 a + bool mask + f32 out
}

TEST(CostModelTest, TopkChargesFourPassesAndSyncs) {
  Graph g;
  IRBuilder b(g);
  Value* a = g.addInput(ir::Type::tensor(DType::Float32), "a");
  ir::Node* tk = b.topk(a, /*k=*/3);
  g.addOutput(tk->output(0));
  g.addOutput(tk->output(1));
  const CostReport r = estimateCost(g, std::vector<CostValue>{f32({8})});
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.launches, 4);
  EXPECT_EQ(r.flops, 4 * 8);
  EXPECT_EQ(r.bytes, 4 * (8 + 3) * 4);
}

TEST(CostModelTest, ViewsAreFree) {
  Graph g;
  IRBuilder b(g);
  Value* a = g.addInput(ir::Type::tensor(DType::Float32), "a");
  g.addOutput(b.transpose(b.reshape(a, {4, 6}), 0, 1));
  const CostReport r = estimateCost(g, std::vector<CostValue>{f32({2, 12})});
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.launches, 0);
  EXPECT_EQ(r.bytes, 0);
  EXPECT_EQ(r.flops, 0);
  EXPECT_GT(r.hostUs, 0);  // dispatch is still charged
  EXPECT_DOUBLE_EQ(r.simUs, r.hostUs);
}

TEST(CostModelTest, DataDependentControlFlowCountsUnknownOps) {
  Graph g;
  IRBuilder b(g);
  Value* a = g.addInput(ir::Type::tensor(DType::Float32), "a");
  // A scalar condition fed from tensor data: the metadata walk cannot
  // decide the branch, so the If is an unknown op and the report is a
  // lower bound.
  Value* cond = g.addInput(ir::Type::boolean(), "cond");
  ir::Node* ifNode = b.makeIf(cond, 1);
  {
    IRBuilder arm(g);
    arm.setInsertionPointToEnd(ifNode->block(0));
    ifNode->block(0)->addReturn(arm.relu(a));
    arm.setInsertionPointToEnd(ifNode->block(1));
    ifNode->block(1)->addReturn(arm.neg(a));
  }
  g.addOutput(ifNode->output(0));
  const std::vector<CostValue> in = {f32({4}), CostValue::unknown()};
  const CostReport r = estimateCost(g, in);
  EXPECT_FALSE(r.exact());
  EXPECT_EQ(r.unknownOps, 1);
}

// ---- (b) fusion conserves cost ---------------------------------------------

TEST(CostModelPropertyTest, FusionConservesFlopsAndNeverAddsTraffic) {
  const int reps = fuzzReps();
  CostOptions opts;
  opts.useTexpr = false;  // compare interpreted-body pricing only
  for (int seed = 1; seed <= reps; ++seed) {
    Graph g;
    Rng rng(static_cast<std::uint64_t>(seed) * 7919);
    ProgramGenerator gen(g, rng);
    const std::vector<RtValue> inputs = gen.generate(10);
    const std::vector<CostValue> in = costInputs(inputs);
    const CostReport pre = estimateCost(g, in, opts);
    ASSERT_TRUE(pre.exact()) << "seed " << seed;

    auto fused = ir::cloneGraph(g);
    core::fuseKernels(*fused, core::FusionPolicy::nnc());
    const CostReport post = estimateCost(*fused, in, opts);
    ASSERT_TRUE(post.exact()) << "seed " << seed;

    // The fused program's cost is the sum of its pre-fusion node costs:
    // flops are conserved exactly; launches and external traffic can only
    // shrink (intermediates stay inside the group).
    EXPECT_EQ(post.flops, pre.flops) << "seed " << seed;
    EXPECT_LE(post.launches, pre.launches) << "seed " << seed;
    EXPECT_LE(post.bytes, pre.bytes) << "seed " << seed;
  }
}

// ---- (c) differential equality against the Profiler ------------------------

void expectMatchesProfiler(const Graph& compiled,
                           const runtime::Profiler& profiler,
                           const CostReport& r, const std::string& label) {
  EXPECT_TRUE(r.exact()) << label;
  EXPECT_EQ(r.launches, profiler.kernelLaunches()) << label;
  EXPECT_EQ(r.bytes, profiler.bytesMoved()) << label;
  EXPECT_EQ(r.flops, profiler.flops()) << label;
  EXPECT_EQ(r.perKernel, profiler.kernelHistogram()) << label;
  const double tol = 1e-6 * std::max(1.0, profiler.simTimeUs());
  EXPECT_NEAR(r.gpuUs, profiler.gpuTimeUs(), tol) << label;
  EXPECT_NEAR(r.hostUs, profiler.hostTimeUs(), tol) << label;
  EXPECT_NEAR(r.simUs, profiler.simTimeUs(), tol) << label;
  (void)compiled;
}

TEST(CostModelDifferentialTest, MatchesProfilerOnAllWorkloadsAndPipelines) {
  workloads::WorkloadConfig config;
  config.batch = 2;
  config.seqLen = 16;
  for (const std::string& name : workloads::workloadNames()) {
    const workloads::Workload w = workloads::buildWorkload(name, config);
    for (PipelineKind kind : runtime::allPipelines()) {
      PipelineOptions po;
      po.threads = 1;
      auto compiled = ir::cloneGraph(*w.graph);
      runtime::compileGraph(kind, *compiled, po);
      CostOptions opts;
      opts.device = po.device;
      opts.host = runtime::hostSpecFor(kind);
      opts.useTexpr = po.useTexpr;
      const CostReport r = estimateCost(*compiled, costInputs(w.inputs), opts);
      // The report is thread-invariant: it must equal the serial run's
      // Profiler and the threaded one's (per-worker ParallelMap slots merged
      // at the barrier).
      for (const int threads : {1, runtime::ThreadPool::hardwareThreads()}) {
        po.threads = threads;
        runtime::Pipeline pipeline(kind, *w.graph, po);
        pipeline.run(w.inputs);
        expectMatchesProfiler(
            *compiled, pipeline.profiler(), r,
            name + "/" + std::string(runtime::pipelineName(kind)) +
                "/threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(CostModelDifferentialTest, MatchesProfilerWithTexprOff) {
  workloads::WorkloadConfig config;
  config.batch = 2;
  config.seqLen = 16;
  for (const std::string& name : workloads::workloadNames()) {
    const workloads::Workload w = workloads::buildWorkload(name, config);
    PipelineOptions po;
    po.threads = 1;
    po.useTexpr = false;
    runtime::Pipeline pipeline(PipelineKind::TensorSsa, *w.graph, po);
    pipeline.run(w.inputs);

    auto compiled = ir::cloneGraph(*w.graph);
    runtime::compileGraph(PipelineKind::TensorSsa, *compiled, po);
    CostOptions opts;
    opts.host = runtime::hostSpecFor(PipelineKind::TensorSsa);
    opts.useTexpr = false;
    const CostReport r = estimateCost(*compiled, costInputs(w.inputs), opts);
    expectMatchesProfiler(*compiled, pipeline.profiler(), r,
                          name + "/texpr-off");
  }
}

TEST(CostModelDifferentialTest, MatchesProfilerOnRandomFusedRegions) {
  const int reps = fuzzReps();
  for (int seed = 1; seed <= reps; ++seed) {
    for (const bool useTexpr : {false, true}) {
      Graph g;
      Rng structRng(static_cast<std::uint64_t>(seed) * 31 + 1);
      Rng dataRng(static_cast<std::uint64_t>(seed) * 131 + 7);
      FusedRegionGenerator gen(g, structRng, dataRng);
      const FusedRegionGenerator::Built built = gen.build();

      // Eager applies no passes, so the pipeline executes this exact graph.
      PipelineOptions po;
      po.threads = 1;
      po.useTexpr = useTexpr;
      po.memoryPlan = false;
      runtime::Pipeline pipeline(PipelineKind::Eager, g, po);
      pipeline.run(built.inputs);

      CostOptions opts;
      opts.host = runtime::hostSpecFor(PipelineKind::Eager);
      opts.useTexpr = useTexpr;
      const CostReport r = estimateCost(g, costInputs(built.inputs), opts);
      expectMatchesProfiler(g, pipeline.profiler(), r,
                            "seed " + std::to_string(seed) +
                                (useTexpr ? "/texpr" : "/interp"));
    }
  }
}

/// A graph whose only node is a FusionGroup wrapping `makeBody` over
/// `inputTypes` (one body param each).
template <typename Fn>
std::unique_ptr<Graph> fusionGroupGraph(const std::vector<ir::Type>& inputTypes,
                                        Fn&& makeBody) {
  auto g = std::make_unique<Graph>();
  std::vector<Value*> ins;
  for (const ir::Type& t : inputTypes) ins.push_back(g->addInput(t));
  IRBuilder b(*g);
  ir::Node* group = b.emitNode(ir::OpKind::FusionGroup, ins, 0);
  ir::Block* body = group->addBlock();
  for (Value* in : ins) body->addParam(in->type());
  IRBuilder inner(*g);
  inner.setInsertionPointToEnd(body);
  makeBody(inner, body);
  for (std::size_t i = 0; i < body->numReturns(); ++i)
    g->addOutput(group->addOutput(ir::Type::tensor()));
  return g;
}

TEST(CostModelDifferentialTest, MatchesProfilerOnMaskedFillAndPermuteGroups) {
  // Regression graphs where texpr's shape/dtype rules once drifted from the
  // interpreter's: masked_fill on non-float bases (the fill keeps the base
  // dtype, so the output's bytes do too) and Access(Permute) with negative
  // dims.
  auto maskedFill = fusionGroupGraph(
      {ir::Type::tensor(), ir::Type::tensor(DType::Bool), ir::Type::floating()},
      [](IRBuilder& b, ir::Block* body) {
        body->addReturn(
            b.maskedFill(body->param(0), body->param(1), body->param(2)));
      });
  auto permute = fusionGroupGraph(
      {ir::Type::tensor()}, [](IRBuilder& b, ir::Block* body) {
        ir::Node* n = b.emitNode(ir::OpKind::Access, {body->param(0)}, 1);
        n->attrs().set("view",
                       Scalar(static_cast<std::int64_t>(ir::OpKind::Permute)));
        n->attrs().set("dims", std::vector<std::int64_t>{-1, 0});
        body->addReturn(b.relu(n->output()));
      });
  const Tensor mask = Tensor::full({4, 3}, Scalar(true), DType::Bool);
  std::vector<std::pair<const Graph*, std::vector<RtValue>>> cases;
  for (const DType dtype : {DType::Float32, DType::Int64, DType::Bool}) {
    cases.push_back({maskedFill.get(),
                     {RtValue(Tensor::full({4, 3}, Scalar(0), dtype)),
                      RtValue(mask), RtValue(Scalar(2.5))}});
  }
  Rng rng(11);
  cases.push_back({permute.get(), {RtValue(rng.uniform({2, 3}))}});
  for (const auto& [graph, inputs] : cases) {
    for (const bool useTexpr : {false, true}) {
      PipelineOptions po;
      po.threads = 1;
      po.useTexpr = useTexpr;
      po.memoryPlan = false;
      runtime::Pipeline pipeline(PipelineKind::Eager, *graph, po);
      pipeline.run(inputs);
      CostOptions opts;
      opts.host = runtime::hostSpecFor(PipelineKind::Eager);
      opts.useTexpr = useTexpr;
      const CostReport r = estimateCost(*graph, costInputs(inputs), opts);
      expectMatchesProfiler(
          *graph, pipeline.profiler(), r,
          std::string(graph == permute.get() ? "permute" : "masked_fill") +
              "/" + dtypeName(inputs[0].tensor().dtype()) +
              (useTexpr ? "/texpr" : "/interp"));
    }
  }
}

// ---- symbolic dims ---------------------------------------------------------

TEST(CostModelSymbolicTest, BindSymbolicPricesPolymorphicProgramExactly) {
  workloads::WorkloadConfig config;
  config.batch = 3;
  config.seqLen = 12;
  config.symbolicDims = true;
  for (const std::string name : {"lstm", "attention", "seq2seq"}) {
    const workloads::Workload w = workloads::buildWorkload(name, config);
    const workloads::SymbolicPattern& pattern =
        workloads::workloadSymbolicPattern(name);
    const std::vector<CostValue> concrete = costInputs(w.inputs);
    const std::vector<CostValue> symbolic = analysis::bindSymbolic(
        pattern.inputs, {{"B", config.batch}, {"T", config.seqLen}});
    const CostReport a = estimateCost(*w.graph, concrete);
    const CostReport b = estimateCost(*w.graph, symbolic);
    EXPECT_TRUE(a.exact()) << name;
    EXPECT_EQ(a.launches, b.launches) << name;
    EXPECT_EQ(a.bytes, b.bytes) << name;
    EXPECT_EQ(a.flops, b.flops) << name;
    EXPECT_EQ(a.perKernel, b.perKernel) << name;
    EXPECT_DOUBLE_EQ(a.simUs, b.simUs) << name;
    // One polymorphic program, cost as a function of the bound extents:
    // doubling the sequence length must strictly increase the modelled cost.
    const CostReport longer = estimateCost(
        *w.graph, analysis::bindSymbolic(
                      pattern.inputs,
                      {{"B", config.batch}, {"T", 2 * config.seqLen}}));
    EXPECT_GT(longer.flops, b.flops) << name;
  }
}

}  // namespace
}  // namespace tssa
