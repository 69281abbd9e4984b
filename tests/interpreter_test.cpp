// Tests for the reference interpreter: eager aliasing semantics, control
// flow, TensorSSA op semantics, and fusion constructs — executed by the
// interpreter and priced by the cost walk (src/analysis/cost.h).
#include <gtest/gtest.h>

#include "src/analysis/cost.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/runtime/interpreter.h"
#include "src/tensor/ops.h"

namespace tssa::runtime {
namespace {

using ir::Graph;
using ir::IRBuilder;
using ir::Node;
using ir::OpKind;
using ir::Type;
using ir::Value;

std::vector<RtValue> runGraph(const Graph& g, std::vector<RtValue> inputs) {
  Interpreter interp;
  return interp.run(g, inputs);
}

/// What a run of `g` on `inputs` costs on `device` under `host`.
analysis::CostReport priceGraph(const Graph& g,
                                const std::vector<RtValue>& inputs,
                                DeviceSpec device = DeviceSpec::dataCenter(),
                                HostSpec host = HostSpec::torchscriptVm()) {
  analysis::CostOptions options;
  options.device = std::move(device);
  options.host = std::move(host);
  return analysis::estimateCost(g, analysis::costInputs(inputs), options);
}

TEST(InterpreterTest, PureDataflow) {
  Graph g;
  Value* a = g.addInput(Type::tensor(), "a");
  Value* b = g.addInput(Type::tensor(), "b");
  IRBuilder builder(g);
  g.addOutput(builder.sigmoid(builder.add(a, b)));
  ir::verify(g);

  Tensor ta = Tensor::fromData({0, 1}, {2});
  Tensor tb = Tensor::fromData({0, -1}, {2});
  auto out = runGraph(g, {RtValue(ta), RtValue(tb)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].tensor().scalarAtLinear(0), 0.5, 1e-6);
  EXPECT_NEAR(out[0].tensor().scalarAtLinear(1), 0.5, 1e-6);
}

// The Figure 1 program: B = A[0]; B.copy_(C) — mutating the view mutates A.
TEST(InterpreterTest, Figure1ViewMutation) {
  Graph g;
  Value* a = g.addInput(Type::tensor(), "A");
  Value* c = g.addInput(Type::tensor(), "C");
  IRBuilder builder(g);
  Value* b = builder.select(a, 0, builder.constInt(0));
  builder.copy_(b, c);
  g.addOutput(a);
  ir::verify(g);

  Tensor ta = Tensor::zeros({2, 2});
  Tensor tc = Tensor::fromData({7, 8}, {2});
  auto out = runGraph(g, {RtValue(ta), RtValue(tc)});
  const Tensor& result = out[0].tensor();
  EXPECT_EQ(result.scalarAt(Shape{0, 0}), 7.0);
  EXPECT_EQ(result.scalarAt(Shape{0, 1}), 8.0);
  EXPECT_EQ(result.scalarAt(Shape{1, 0}), 0.0);
}

// The Figure 4 program: for i in range(n): b[i] = b[i] + 1.
Graph* buildFigure4(Graph& g) {
  Value* b0 = g.addInput(Type::tensor(), "b");
  Value* n = g.addInput(Type::integer(), "n");
  IRBuilder builder(g);
  Value* b1 = builder.clone(b0);
  Node* loop = builder.makeLoop(n, {b1});
  ir::Block* body = loop->block(0);
  IRBuilder inner(g);
  inner.setInsertionPointToEnd(body);
  Value* i = body->param(0);
  Value* bIn = body->param(1);
  Value* bi = inner.select(bIn, 0, i);
  Value* one = inner.constTensor(Tensor::ones({}));
  Value* sum = inner.add(bi, one);
  Value* bi2 = inner.select(bIn, 0, i);
  inner.copy_(bi2, sum);
  body->addReturn(bIn);
  g.addOutput(loop->output(0));
  ir::verify(g);
  return &g;
}

TEST(InterpreterTest, Figure4LoopMutation) {
  Graph g;
  buildFigure4(g);
  Tensor b = Tensor::fromData({10, 20, 30, 40}, {4});
  auto out = runGraph(g, {RtValue(b), RtValue(std::int64_t{3})});
  const Tensor& r = out[0].tensor();
  EXPECT_EQ(r.scalarAtLinear(0), 11.0);
  EXPECT_EQ(r.scalarAtLinear(1), 21.0);
  EXPECT_EQ(r.scalarAtLinear(2), 31.0);
  EXPECT_EQ(r.scalarAtLinear(3), 40.0);  // untouched: loop ran 3 times
  // Input was cloned first; caller tensor unchanged.
  EXPECT_EQ(b.scalarAtLinear(0), 10.0);
}

TEST(InterpreterTest, IfBranches) {
  Graph g;
  Value* cond = g.addInput(Type::boolean(), "c");
  Value* a = g.addInput(Type::tensor(), "a");
  IRBuilder builder(g);
  Node* ifNode = builder.makeIf(cond, 1);
  IRBuilder inner(g);
  inner.setInsertionPointToEnd(ifNode->block(0));
  ifNode->block(0)->addReturn(inner.relu(a));
  inner.setInsertionPointToEnd(ifNode->block(1));
  ifNode->block(1)->addReturn(inner.neg(a));
  g.addOutput(ifNode->output(0));
  ir::verify(g);

  Tensor t = Tensor::fromData({-2, 3}, {2});
  auto outTrue = runGraph(g, {RtValue(true), RtValue(t)});
  EXPECT_EQ(outTrue[0].tensor().scalarAtLinear(0), 0.0);
  auto outFalse = runGraph(g, {RtValue(false), RtValue(t)});
  EXPECT_EQ(outFalse[0].tensor().scalarAtLinear(0), 2.0);
  EXPECT_EQ(outFalse[0].tensor().scalarAtLinear(1), -3.0);
}

TEST(InterpreterTest, ScalarArithmeticAndLoopIndex) {
  // acc = 0-tensor; for i in 0..n: acc += i  (via full_ with scalar mult)
  Graph g;
  Value* n = g.addInput(Type::integer(), "n");
  IRBuilder builder(g);
  Value* two = builder.constInt(2);
  Value* doubled = builder.scalarMul(n, two);
  Value* isBig = builder.scalarGe(doubled, builder.constInt(6));
  g.addOutput(doubled);
  g.addOutput(isBig);
  auto out = runGraph(g, {RtValue(std::int64_t{4})});
  EXPECT_EQ(out[0].toInt(), 8);
  EXPECT_TRUE(out[1].toBool());
}

TEST(InterpreterTest, InplaceOpsFamily) {
  Graph g;
  Value* a = g.addInput(Type::tensor(), "a");
  Value* m = g.addInput(Type::tensor(), "m");
  IRBuilder builder(g);
  Value* c = builder.clone(a);
  builder.add_(c, builder.constTensor(Tensor::ones({})));
  builder.mul_(c, builder.constTensor(Tensor::full({}, Scalar(2.0))));
  builder.relu_(c);
  builder.maskedFill_(c, m, builder.constFloat(-5.0));
  g.addOutput(c);
  ir::verify(g);

  Tensor t = Tensor::fromData({-3, 0.5f}, {2});
  Tensor mask = Tensor::fromData({1, 0}, {2}).to(DType::Bool);
  auto out = runGraph(g, {RtValue(t), RtValue(mask)});
  EXPECT_FLOAT_EQ(static_cast<float>(out[0].tensor().scalarAtLinear(0)), -5.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(out[0].tensor().scalarAtLinear(1)), 3.0f);
}

TEST(InterpreterTest, AccessMatchesViewClone) {
  // immut::access(slice) == aten::slice(...).clone()
  Graph g;
  Value* a = g.addInput(Type::tensor(), "a");
  IRBuilder builder(g);
  Value* start = builder.constInt(1);
  Value* end = builder.constInt(3);
  Node* access = builder.emitNode(OpKind::Access, {a, start, end}, 1);
  access->attrs().set("view", Scalar(static_cast<std::int64_t>(OpKind::Slice)));
  access->attrs().set("dim", Scalar(std::int64_t{0}));
  access->attrs().set("step", Scalar(std::int64_t{1}));
  g.addOutput(access->output());
  ir::verify(g);

  Tensor t = Tensor::fromData({1, 2, 3, 4}, {4});
  auto out = runGraph(g, {RtValue(t)});
  EXPECT_EQ(out[0].tensor().sizes(), (Shape{2}));
  EXPECT_EQ(out[0].tensor().scalarAtLinear(0), 2.0);
  EXPECT_FALSE(out[0].tensor().sharesStorageWith(t));
}

TEST(InterpreterTest, AssignMatchesCloneThenViewCopy) {
  // out = assign(base, src, select dim0 idx1): base unchanged, new tensor.
  Graph g;
  Value* base = g.addInput(Type::tensor(), "base");
  Value* src = g.addInput(Type::tensor(), "src");
  IRBuilder builder(g);
  Value* idx = builder.constInt(1);
  Node* assign = builder.emitNode(OpKind::Assign, {base, src, idx}, 1);
  assign->attrs().set("view", Scalar(static_cast<std::int64_t>(OpKind::Select)));
  assign->attrs().set("dim", Scalar(std::int64_t{0}));
  g.addOutput(assign->output());
  ir::verify(g);

  Tensor b = Tensor::zeros({3, 2});
  Tensor s = Tensor::fromData({9, 9}, {2});
  auto out = runGraph(g, {RtValue(b), RtValue(s)});
  const Tensor& r = out[0].tensor();
  EXPECT_EQ(r.scalarAt(Shape{1, 0}), 9.0);
  EXPECT_EQ(r.scalarAt(Shape{0, 0}), 0.0);
  // Pure: the base operand is untouched.
  EXPECT_EQ(b.scalarAt(Shape{1, 0}), 0.0);
}

TEST(InterpreterTest, IdentityAssignBroadcasts) {
  Graph g;
  Value* base = g.addInput(Type::tensor(), "base");
  Value* src = g.addInput(Type::tensor(), "src");
  IRBuilder builder(g);
  Node* assign = builder.emitNode(OpKind::Assign, {base, src}, 1);
  assign->attrs().set("view",
                      Scalar(static_cast<std::int64_t>(OpKind::Identity)));
  g.addOutput(assign->output());
  Tensor b = Tensor::zeros({2, 3});
  Tensor s = Tensor::fromData({1, 2, 3}, {3});
  auto out = runGraph(g, {RtValue(b), RtValue(s)});
  EXPECT_EQ(out[0].tensor().scalarAt(Shape{1, 2}), 3.0);
  EXPECT_EQ(b.scalarAt(Shape{1, 2}), 0.0);
}

TEST(InterpreterTest, FusionGroupExecutesAndCountsOneKernel) {
  Graph g;
  Value* a = g.addInput(Type::tensor(), "a");
  IRBuilder builder(g);
  Node* group = builder.emitNode(OpKind::FusionGroup, {a}, 1);
  ir::Block* body = group->addBlock();
  Value* p = body->addParam(Type::tensor());
  IRBuilder inner(g);
  inner.setInsertionPointToEnd(body);
  body->addReturn(inner.relu(inner.add(p, p)));
  g.addOutput(group->output());
  ir::verify(g);

  Tensor t = Tensor::fromData({-1, 2}, {2});
  auto out = runGraph(g, {RtValue(t)});
  EXPECT_EQ(out[0].tensor().scalarAtLinear(0), 0.0);
  EXPECT_EQ(out[0].tensor().scalarAtLinear(1), 4.0);
  EXPECT_EQ(priceGraph(g, {RtValue(t)}).launches, 1);
}

TEST(InterpreterTest, ParallelMapMatchesLoopResult) {
  // Build the same body as Figure 4 under Loop and ParallelMap via assigns.
  auto build = [](Graph& g, OpKind loopKind) {
    Value* b0 = g.addInput(Type::tensor(), "b");
    Value* n = g.addInput(Type::integer(), "n");
    IRBuilder builder(g);
    Node* loop = builder.makeLoop(n, {b0});
    if (loopKind == OpKind::ParallelMap) {
      // Rebuild with the same structure under the ParallelMap kind.
      Node* pm = g.create(OpKind::ParallelMap, {n, b0}, 1);
      pm->insertBefore(loop);
      ir::Block* pmBody = pm->addBlock();
      pmBody->addParam(Type::integer(), "i");
      pmBody->addParam(Type::tensor());
      loop->destroy();
      loop = pm;
    }
    ir::Block* body = loop->block(0);
    IRBuilder inner(g);
    inner.setInsertionPointToEnd(body);
    Value* i = body->param(0);
    Value* bIn = body->param(1);
    Value* bi = inner.select(bIn, 0, i);
    Value* v = inner.mul(bi, inner.constTensor(Tensor::full({}, Scalar(3.0))));
    ir::Node* assign = inner.emitNode(OpKind::Assign, {bIn, v, i}, 1);
    assign->attrs().set("view",
                        Scalar(static_cast<std::int64_t>(OpKind::Select)));
    assign->attrs().set("dim", Scalar(std::int64_t{0}));
    body->addReturn(assign->output());
    g.addOutput(loop->output(0));
    ir::verify(g);
  };

  Graph gLoop, gPar;
  build(gLoop, OpKind::Loop);
  build(gPar, OpKind::ParallelMap);
  Tensor b = Tensor::fromData({1, 2, 3}, {3});

  const std::vector<RtValue> inputs = {RtValue(b), RtValue(std::int64_t{3})};
  auto outLoop =
      runGraph(gLoop, {RtValue(b.clone()), RtValue(std::int64_t{3})});
  auto outPar =
      runGraph(gPar, {RtValue(b.clone()), RtValue(std::int64_t{3})});
  EXPECT_TRUE(allClose(outLoop[0].tensor(), outPar[0].tensor()));
  EXPECT_EQ(outPar[0].tensor().scalarAtLinear(2), 9.0);
  // Horizontal parallelization: each per-iteration kernel position becomes
  // one batched launch (here: mul + assign = 2), independent of trip count.
  const analysis::CostReport loop = priceGraph(gLoop, inputs);
  const analysis::CostReport par = priceGraph(gPar, inputs);
  EXPECT_EQ(par.launches, 2);
  EXPECT_GT(loop.launches, par.launches);
  EXPECT_LT(par.simUs, loop.simUs);
}

TEST(InterpreterTest, ProfilerCountsEagerKernels) {
  Graph g;
  Value* a = g.addInput(Type::tensor(), "a");
  IRBuilder builder(g);
  Value* x = builder.add(a, a);    // kernel
  Value* y = builder.sigmoid(x);   // kernel
  Value* v = builder.select(y, 0, builder.constInt(0));  // view: no kernel
  g.addOutput(v);
  const std::vector<RtValue> inputs = {RtValue(Tensor::zeros({4, 4}))};
  runGraph(g, inputs);
  const analysis::CostReport cost = priceGraph(
      g, inputs, DeviceSpec::consumer(), HostSpec::eagerPython());
  EXPECT_EQ(cost.launches, 2);
  EXPECT_GT(cost.simUs, 0.0);
  EXPECT_GT(cost.hostUs, 0.0);
}

TEST(InterpreterTest, CatStackGatherFactories) {
  Graph g;
  Value* a = g.addInput(Type::tensor(), "a");
  IRBuilder builder(g);
  Value* z = builder.zeros({2, 2});
  Value* catted = builder.cat({a, z}, 0);
  Value* ar = builder.arange(builder.constInt(0), builder.constInt(4),
                             builder.constInt(1));
  Value* sel = builder.indexSelect(catted, 0, ar);
  g.addOutput(sel);
  ir::verify(g);
  auto out = runGraph(g, {RtValue(Tensor::ones({2, 2}))});
  EXPECT_EQ(out[0].tensor().sizes(), (Shape{4, 2}));
  EXPECT_EQ(out[0].tensor().scalarAt(Shape{0, 0}), 1.0);
  EXPECT_EQ(out[0].tensor().scalarAt(Shape{3, 1}), 0.0);
}

TEST(InterpreterTest, WrongInputCountThrows) {
  Graph g;
  g.addInput(Type::tensor());
  Interpreter interp;
  std::vector<RtValue> none;
  EXPECT_THROW(interp.run(g, none), Error);
}

TEST(InterpreterTest, UpdateOpRefusesToExecute) {
  Graph g;
  Value* a = g.addInput(Type::tensor());
  IRBuilder builder(g);
  Value* b = builder.relu(a);
  builder.emitNode(OpKind::Update, {b, a}, 0);
  g.addOutput(b);
  Interpreter interp;
  std::vector<RtValue> in{RtValue(Tensor::zeros({2}))};
  EXPECT_THROW(interp.run(g, in), Error);
}

}  // namespace
}  // namespace tssa::runtime
