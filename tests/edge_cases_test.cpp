// Edge cases of the functionalization: aliasing sources, exotic view rules
// as mutation targets, and deeper control-flow nesting.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "src/core/lower_inplace.h"
#include "src/core/tensor_ssa.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/runtime/pipeline.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"

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

void expectConversionEquivalent(Graph& g, std::vector<RtValue> inputs,
                                double tol = 1e-6) {
  ir::verify(g);
  Interpreter interp;
  auto before = interp.run(g, inputs);
  core::lowerInplaceOps(g);
  core::convertToTensorSSA(g);
  ir::verify(g);
  auto after = interp.run(g, inputs);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(allClose(before[i].tensor(), after[i].tensor(), tol))
        << "output " << i << "\n"
        << toString(g);
  }
}

// b[0] = b[1]: the mutation source aliases the mutated tensor.
TEST(EdgeCaseTest, SelfAliasingSource) {
  Graph g;
  Value* a0 = g.addInput(Type::tensor(), "a");
  IRBuilder b(g);
  Value* a = b.clone(a0);
  Value* dst = b.select(a, 0, b.constInt(0));
  Value* src = b.select(a, 0, b.constInt(1));
  b.copy_(dst, src);
  b.copy_(src, b.neg(dst));  // and back, observing the first write
  g.addOutput(a);
  expectConversionEquivalent(
      g, {RtValue(Tensor::fromData({1, 2, 3, 4}, {2, 2}))});
}

// Mutation through a transposed view updates strided elements.
TEST(EdgeCaseTest, TransposedViewMutation) {
  Graph g;
  Value* a0 = g.addInput(Type::tensor(), "a");
  Value* w = g.addInput(Type::tensor(), "w");
  IRBuilder b(g);
  Value* a = b.clone(a0);
  Value* t = b.transpose(a, 0, 1);
  Value* col = b.select(t, 0, b.constInt(1));  // column 1 of a
  b.copy_(col, w);
  g.addOutput(a);
  Rng rng(7);
  expectConversionEquivalent(g, {RtValue(rng.uniform({3, 2})),
                                 RtValue(rng.uniform({3}))});
}

// Mutation through a reshape-flattened view.
TEST(EdgeCaseTest, ReshapeViewMutation) {
  Graph g;
  Value* a0 = g.addInput(Type::tensor(), "a");
  IRBuilder b(g);
  Value* a = b.clone(a0);
  Value* flat = b.reshape(a, {6});
  Value* piece = b.slice(flat, 0, b.constInt(2), b.constInt(5));
  b.fill_(piece, b.constFloat(-1.0));
  g.addOutput(a);
  g.addOutput(flat);
  Rng rng(8);
  expectConversionEquivalent(g, {RtValue(rng.uniform({2, 3}))});
}

// Write through a broadcast (expand) view: every row receives the source.
TEST(EdgeCaseTest, ExpandViewMutation) {
  Graph g;
  Value* a0 = g.addInput(Type::tensor(), "a");
  IRBuilder b(g);
  Value* a = b.clone(a0);                       // [1, 4]
  Value* e = b.expand(a, {3, 4});               // rows alias each other!
  Node* mutation = b.fill_(e, b.constFloat(9.0));
  (void)mutation;
  g.addOutput(a);
  Rng rng(9);
  expectConversionEquivalent(g, {RtValue(rng.uniform({1, 4}))});
}

// If nested inside If, both arms mutating.
TEST(EdgeCaseTest, NestedBranchesMutate) {
  for (int combo = 0; combo < 4; ++combo) {
    Graph g;
    Value* a0 = g.addInput(Type::tensor(), "a");
    Value* c1 = g.addInput(Type::boolean(), "c1");
    Value* c2 = g.addInput(Type::boolean(), "c2");
    IRBuilder b(g);
    Value* a = b.clone(a0);
    Node* outer = b.makeIf(c1, 0);
    {
      IRBuilder tb(g);
      tb.setInsertionPointToEnd(outer->block(0));
      Node* innerIf = tb.makeIf(c2, 0);
      {
        IRBuilder ib(g);
        ib.setInsertionPointToEnd(innerIf->block(0));
        ib.fill_(ib.select(a, 0, ib.constInt(0)), ib.constFloat(5.0));
        ib.setInsertionPointToEnd(innerIf->block(1));
        ib.add_(a, ib.constTensor(Tensor::ones({})));
      }
      tb.setInsertionPointToEnd(outer->block(1));
      tb.relu_(a);
    }
    g.addOutput(a);
    expectConversionEquivalent(
        g, {RtValue(Tensor::fromData({-1, 2, -3, 4}, {2, 2})),
            RtValue(Scalar((combo & 1) != 0)),
            RtValue(Scalar((combo & 2) != 0))});
  }
}

// Loop whose body both reads the whole buffer and writes one row: the read
// must observe all previous iterations' writes.
TEST(EdgeCaseTest, LoopReadsWholeBufferEachIteration) {
  Graph g;
  Value* a0 = g.addInput(Type::tensor(), "a");
  Value* n = g.addInput(Type::integer(), "n");
  IRBuilder b(g);
  Value* a = b.clone(a0);
  Node* loop = b.makeLoop(n, {});
  Block* body = loop->block(0);
  {
    IRBuilder ib(g);
    ib.setInsertionPointToEnd(body);
    Value* total = ib.sumDim(a, 0);            // reads every row
    Value* row = ib.select(a, 0, body->param(0));
    ib.copy_(row, ib.add(row, total));         // then writes row i
  }
  g.addOutput(a);
  Rng rng(10);
  expectConversionEquivalent(
      g, {RtValue(rng.uniform({3, 2})), RtValue(Scalar(std::int64_t{3}))},
      1e-4);
}

// A mutation whose result is never observed: DCE should strip the whole
// functionalized chain.
TEST(EdgeCaseTest, UnobservedMutationIsEliminated) {
  Graph g;
  Value* a0 = g.addInput(Type::tensor(), "a");
  IRBuilder b(g);
  Value* dead = b.clone(a0);
  b.fill_(b.select(dead, 0, b.constInt(0)), b.constFloat(1.0));
  g.addOutput(b.relu(a0));
  ir::verify(g);
  core::lowerInplaceOps(g);
  core::convertToTensorSSA(g);
  ir::verify(g);
  EXPECT_EQ(g.countNodes(), 1u) << toString(g);  // just the relu
}

// Mutating a graph input directly (no clone): the functional boundary drops
// caller-visible mutation but outputs must still be correct.
TEST(EdgeCaseTest, GraphInputMutationKeepsOutputSemantics) {
  Graph g;
  Value* a = g.addInput(Type::tensor(), "a");
  IRBuilder b(g);
  Value* row = b.select(a, 0, b.constInt(0));
  b.fill_(row, b.constFloat(3.0));
  g.addOutput(b.relu(a));
  ir::verify(g);

  Interpreter interp;
  std::vector<RtValue> in1{RtValue(Tensor::zeros({2, 2}))};
  auto before = interp.run(g, in1);
  core::lowerInplaceOps(g);
  core::convertToTensorSSA(g);
  ir::verify(g);
  std::vector<RtValue> in2{RtValue(Tensor::zeros({2, 2}))};
  auto after = interp.run(g, in2);
  EXPECT_TRUE(allClose(before[0].tensor(), after[0].tensor(), 0.0));
  // The functionalized program no longer mutates the caller's tensor.
  EXPECT_EQ(in2[0].tensor().scalarAt(Shape{0, 0}), 0.0);
}

// Chained pipelines run back-to-back reuse compiled state (kernel cache).
TEST(EdgeCaseTest, PipelineRepeatedRunsAreStable) {
  Graph g;
  Value* a = g.addInput(Type::tensor(), "a");
  IRBuilder b(g);
  Value* buf = b.clone(a);
  b.sigmoid_(b.select(buf, 0, b.constInt(0)));
  g.addOutput(buf);
  runtime::Pipeline p(runtime::PipelineKind::TensorSsa, g);
  Rng rng(11);
  Tensor t = rng.uniform({2, 3});
  std::vector<RtValue> in{RtValue(t)};
  auto first = p.run(in);
  auto second = p.run(in);
  EXPECT_TRUE(allClose(first[0].tensor(), second[0].tensor(), 0.0));
  EXPECT_GT(p.profiler().kernelLaunches(), 0);
}

// Integer dim-reductions must stay exact and defined. The historical bug:
// max/min seeded their accumulator with ±inf and cast it into the integer
// output — UB for Int64, and an all-negative row came out as the sentinel.
TEST(EdgeCaseTest, Int64DimReductionsStayExact) {
  std::vector<std::int64_t> data{-9, -2, -5,  //
                                 7,  -8, 3};
  Tensor a = Tensor::fromData(data, {2, 3});
  ASSERT_EQ(a.dtype(), DType::Int64);

  Tensor mx = ops::maxReduce(a, 1);
  EXPECT_EQ(mx.dtype(), DType::Int64);
  EXPECT_EQ(mx.scalarAtLinear(0), -2.0);  // all-negative row: no ±inf seed
  EXPECT_EQ(mx.scalarAtLinear(1), 7.0);

  Tensor mn = ops::minReduce(a, 1);
  EXPECT_EQ(mn.dtype(), DType::Int64);
  EXPECT_EQ(mn.scalarAtLinear(0), -9.0);
  EXPECT_EQ(mn.scalarAtLinear(1), -8.0);

  Tensor s = ops::sum(a, 1);
  EXPECT_EQ(s.dtype(), DType::Int64);
  EXPECT_EQ(s.scalarAtLinear(0), -16.0);
  EXPECT_EQ(s.scalarAtLinear(1), 2.0);

  Tensor am = ops::argmax(a, 1);
  EXPECT_EQ(am.dtype(), DType::Int64);
  EXPECT_EQ(am.scalarAtLinear(0), 1.0);
  EXPECT_EQ(am.scalarAtLinear(1), 0.0);
}

// Bool reductions: max along a dim is `any`, min is `all`, and the full-sum
// promotes to Int64 (a count), matching PyTorch.
TEST(EdgeCaseTest, BoolDimReductions) {
  std::array<bool, 6> data{false, true, false,  //
                           false, false, false};
  Tensor a = Tensor::fromData(std::span<const bool>(data), {2, 3});
  ASSERT_EQ(a.dtype(), DType::Bool);

  Tensor any = ops::maxReduce(a, 1);
  EXPECT_EQ(any.dtype(), DType::Bool);
  EXPECT_EQ(any.scalarAtLinear(0), 1.0);
  EXPECT_EQ(any.scalarAtLinear(1), 0.0);

  Tensor all = ops::minReduce(a, 1);
  EXPECT_EQ(all.dtype(), DType::Bool);
  EXPECT_EQ(all.scalarAtLinear(0), 0.0);
  EXPECT_EQ(all.scalarAtLinear(1), 0.0);

  Tensor count = ops::sum(a, 1);
  EXPECT_EQ(count.dtype(), DType::Int64);
  EXPECT_EQ(count.scalarAtLinear(0), 1.0);
  EXPECT_EQ(count.scalarAtLinear(1), 0.0);
}

// NaN propagates through reductions like PyTorch: any NaN in the row wins
// max/min, the first NaN wins argmax, and softmax poisons the whole row. An
// all--inf row must reduce to -inf (not to a seed sentinel) and softmax to
// NaN (exp(-inf - -inf)).
TEST(EdgeCaseTest, NaNAndInfPropagateThroughReductions) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a = Tensor::fromData({1.0f, nan, 5.0f,  //
                               -inf, -inf, -inf,  //
                               2.0f, 9.0f, nan},
                              {3, 3});

  Tensor mx = ops::maxReduce(a, 1);
  EXPECT_TRUE(std::isnan(mx.scalarAtLinear(0)));
  EXPECT_EQ(mx.scalarAtLinear(1), -static_cast<double>(inf));
  EXPECT_TRUE(std::isnan(mx.scalarAtLinear(2)));

  Tensor mn = ops::minReduce(a, 1);
  EXPECT_TRUE(std::isnan(mn.scalarAtLinear(0)));

  Tensor am = ops::argmax(a, 1);
  EXPECT_EQ(am.scalarAtLinear(0), 1.0);  // first NaN beats everything
  EXPECT_EQ(am.scalarAtLinear(1), 0.0);  // ties keep the earliest index
  EXPECT_EQ(am.scalarAtLinear(2), 2.0);

  Tensor sm = ops::softmax(a, 1);
  for (std::int64_t j = 0; j < 3; ++j) {
    EXPECT_TRUE(std::isnan(sm.scalarAt(Shape{0, j})));
    EXPECT_TRUE(std::isnan(sm.scalarAt(Shape{1, j})));
    EXPECT_TRUE(std::isnan(sm.scalarAt(Shape{2, j})));
  }
}

// Overlapping copy_ within one buffer: the runtime snapshots the source (or
// memmoves on the contiguous fast path), so a shifted self-copy behaves as
// if the source were read in full before any write. Functionalization must
// reproduce that — its Assign is a pure function of the old version, i.e.
// snapshot semantics by construction.
TEST(EdgeCaseTest, OverlappingCopyActsOnSourceSnapshot) {
  // Shift left: a[0:4] = a[1:5].
  {
    Graph g;
    Value* a0 = g.addInput(Type::tensor(), "a");
    IRBuilder b(g);
    Value* a = b.clone(a0);
    Value* dst = b.slice(a, 0, b.constInt(0), b.constInt(4));
    Value* src = b.slice(a, 0, b.constInt(1), b.constInt(5));
    b.copy_(dst, src);
    g.addOutput(a);
    expectConversionEquivalent(
        g, {RtValue(Tensor::fromData({1, 2, 3, 4, 5}, {5}))});
  }
  // Shift right: a[1:5] = a[0:4] — the direction where a naive forward
  // element loop would read already-overwritten slots.
  {
    Graph g;
    Value* a0 = g.addInput(Type::tensor(), "a");
    IRBuilder b(g);
    Value* a = b.clone(a0);
    Value* dst = b.slice(a, 0, b.constInt(1), b.constInt(5));
    Value* src = b.slice(a, 0, b.constInt(0), b.constInt(4));
    b.copy_(dst, src);
    g.addOutput(a);
    ir::verify(g);
    Interpreter interp;
    std::vector<RtValue> in{RtValue(Tensor::fromData({1, 2, 3, 4, 5}, {5}))};
    auto out = interp.run(g, in);
    const Tensor& r = out[0].tensor();
    const double expected[] = {1, 1, 2, 3, 4};  // not {1,1,1,1,1}
    for (std::int64_t i = 0; i < 5; ++i)
      EXPECT_EQ(r.scalarAtLinear(i), expected[i]) << "index " << i;
    core::lowerInplaceOps(g);
    core::convertToTensorSSA(g);
    ir::verify(g);
    std::vector<RtValue> in2{RtValue(Tensor::fromData({1, 2, 3, 4, 5}, {5}))};
    auto out2 = interp.run(g, in2);
    EXPECT_TRUE(allClose(out[0].tensor(), out2[0].tensor(), 0.0));
  }
}

// Rank-0 and extent-0 tensors through a planner-enabled pipeline: the arena
// bypasses zero-byte allocations, and repeated runs (which recycle buffers)
// must stay bitwise identical to the first and to a planner-off pipeline.
TEST(EdgeCaseTest, RankZeroAndExtentZeroThroughPlannedPipeline) {
  Graph g;
  Value* s0 = g.addInput(Type::tensor(), "s");   // rank-0
  Value* e0 = g.addInput(Type::tensor(), "e");   // extent-0: [0, 3]
  IRBuilder b(g);
  Value* s = b.clone(s0);
  b.add_(s, b.constTensor(Tensor::ones({})));
  Value* e = b.clone(e0);
  b.relu_(e);
  g.addOutput(b.mul(s, s));
  g.addOutput(e);
  ir::verify(g);

  std::vector<RtValue> in{RtValue(Tensor::full({}, Scalar(2.0))),
                          RtValue(Tensor::zeros({0, 3}))};
  runtime::PipelineOptions planned;
  runtime::PipelineOptions unplanned;
  unplanned.memoryPlan = false;
  runtime::Pipeline on(runtime::PipelineKind::TensorSsa, g, planned);
  runtime::Pipeline off(runtime::PipelineKind::TensorSsa, g, unplanned);
  auto reference = off.run(in);
  for (int run = 0; run < 3; ++run) {
    auto got = on.run(in);
    ASSERT_EQ(got.size(), reference.size());
    EXPECT_EQ(got[0].tensor().dim(), 0);
    EXPECT_EQ(got[0].tensor().scalarAt(Shape{}), 9.0);
    EXPECT_EQ(got[1].tensor().sizes(), (Shape{0, 3}));
    EXPECT_EQ(got[1].tensor().numel(), 0);
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(allClose(got[i].tensor(), reference[i].tensor(), 0.0))
          << "run " << run << " output " << i;
  }
}


// gather reads a[..., index[i...], ...]: an index past the gathered dim's
// extent, a negative one, or an index extent larger than the input in
// another dim would read out of bounds, so each raises a typed error.
TEST(EdgeCaseTest, GatherOutOfRangeIndexRaisesTypedError) {
  const Tensor a = Tensor::fromData({1, 2, 3, 4}, {2, 2});
  auto index = [](std::vector<std::int64_t> v, Shape shape) {
    return Tensor::fromData(std::span<const std::int64_t>(v), std::move(shape));
  };
  EXPECT_THROW(ops::gather(a, 0, index({1000000}, {1, 1})), Error);
  EXPECT_THROW(ops::gather(a, 1, index({0, 2}, {1, 2})), Error);
  EXPECT_THROW(ops::gather(a, 1, index({-1}, {1, 1})), Error);
  EXPECT_THROW(ops::gather(a, 1, index({0, 0, 0}, {3, 1})), Error);
  // The gathered dim's index extent may exceed the input's.
  const Tensor g = ops::gather(a, 1, index({1, 0, 1, 1, 0, 0}, {2, 3}));
  EXPECT_EQ(g.sizes(), (Shape{2, 3}));
  const double expected[] = {2, 1, 2, 4, 3, 3};
  for (std::int64_t i = 0; i < 6; ++i)
    EXPECT_EQ(g.scalarAtLinear(i), expected[i]) << "index " << i;
}

// Broadcasting an extent of 1 against 0 gives 0 (NumPy rules); an extent of
// 1 would make the kernels read one element of the empty operand.
TEST(EdgeCaseTest, BroadcastAgainstZeroExtentIsEmpty) {
  EXPECT_EQ(broadcastShapes(Shape{1}, Shape{0}), (Shape{0}));
  EXPECT_EQ(broadcastShapes(Shape{}, Shape{1, 0}), (Shape{1, 0}));
  const Tensor empty = Tensor::zeros({1, 0});
  EXPECT_EQ(ops::add(Tensor::ones({3, 1}), empty).sizes(), (Shape{3, 0}));
  EXPECT_EQ(ops::where(Tensor::ones({}, DType::Bool), Tensor::ones({}), empty)
                .sizes(),
            (Shape{1, 0}));
}

// Copies between tensors of one dtype move bits: Int64 values past 2^53
// survive a strided copy_ and a cast to the same dtype rather than being
// rounded through double.
TEST(EdgeCaseTest, SameDtypeCopyKeepsLargeInt64Exact) {
  const std::int64_t big = (std::int64_t{1} << 53) + 1;
  const Tensor a = Tensor::fromData(std::vector<std::int64_t>{big, -big, 1, 2},
                                    {2, 2});
  EXPECT_EQ(a.to(DType::Int64).data<std::int64_t>()[0], big);
  Tensor t = Tensor::zeros({2, 2}, DType::Int64);
  t.copy_(a.transpose(0, 1));
  EXPECT_EQ(t.data<std::int64_t>()[0], big);
  EXPECT_EQ(t.data<std::int64_t>()[2], -big);
}

}  // namespace
}  // namespace tssa
