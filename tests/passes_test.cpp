// Tests for the auxiliary passes: loop unrolling, scalar constant folding,
// and in-place (buffer-donation) marking.
#include <gtest/gtest.h>

#include "src/core/dce.h"
#include "src/core/fusion.h"
#include "src/core/inplace_reuse.h"
#include "src/core/lower_inplace.h"
#include "src/core/tensor_ssa.h"
#include "src/core/unroll.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/profiler.h"
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

std::size_t countKind(const Graph& g, OpKind kind) {
  std::size_t n = 0;
  std::vector<const Block*> stack{g.topBlock()};
  while (!stack.empty()) {
    const Block* b = stack.back();
    stack.pop_back();
    for (const Node* node : *b) {
      if (node->kind() == kind) ++n;
      for (const Block* inner : node->blocks()) stack.push_back(inner);
    }
  }
  return n;
}

TEST(UnrollTest, ConstantTripLoopUnrollsAndMatches) {
  Graph g;
  Value* a = g.addInput(Type::tensor(), "a");
  IRBuilder b(g);
  Node* loop = b.makeLoop(b.constInt(4), {a});
  Block* body = loop->block(0);
  {
    IRBuilder ib(g);
    ib.setInsertionPointToEnd(body);
    body->addReturn(ib.sigmoid(body->param(1)));
  }
  g.addOutput(loop->output(0));
  ir::verify(g);

  Interpreter interp;
  std::vector<RtValue> in{RtValue(Tensor::fromData({0.f, 1.f}, {2}))};
  auto expected = interp.run(g, in);

  EXPECT_EQ(core::unrollLoops(g), 1u);
  core::eliminateDeadCode(g);
  ir::verify(g);
  EXPECT_EQ(countKind(g, OpKind::Loop), 0u);
  EXPECT_EQ(countKind(g, OpKind::Sigmoid), 4u);
  auto actual = interp.run(g, in);
  EXPECT_TRUE(allClose(expected[0].tensor(), actual[0].tensor(), 0.0));
}

TEST(UnrollTest, InductionVariableBecomesConstants) {
  // for i in range(3): acc = acc + b[i]  (uses i as select index)
  Graph g;
  Value* bIn = g.addInput(Type::tensor(), "b");
  Value* acc0 = g.addInput(Type::tensor(), "acc");
  IRBuilder b(g);
  Node* loop = b.makeLoop(b.constInt(3), {acc0});
  Block* body = loop->block(0);
  {
    IRBuilder ib(g);
    ib.setInsertionPointToEnd(body);
    Value* bi = ib.select(bIn, 0, body->param(0));
    body->addReturn(ib.add(body->param(1), bi));
  }
  g.addOutput(loop->output(0));

  Interpreter interp;
  Rng rng(1);
  std::vector<RtValue> in{RtValue(rng.uniform({3, 2})),
                          RtValue(Tensor::zeros({2}))};
  auto expected = interp.run(g, in);
  core::unrollLoops(g);
  core::foldScalarConstants(g);
  core::eliminateDeadCode(g);
  ir::verify(g);
  auto actual = interp.run(g, in);
  EXPECT_TRUE(allClose(expected[0].tensor(), actual[0].tensor(), 0.0));
  EXPECT_EQ(countKind(g, OpKind::Select), 3u);
}

TEST(UnrollTest, DynamicTripLoopIsLeftAlone) {
  Graph g;
  Value* n = g.addInput(Type::integer(), "n");
  Value* a = g.addInput(Type::tensor(), "a");
  IRBuilder b(g);
  Node* loop = b.makeLoop(n, {a});
  Block* body = loop->block(0);
  IRBuilder ib(g);
  ib.setInsertionPointToEnd(body);
  body->addReturn(ib.relu(body->param(1)));
  g.addOutput(loop->output(0));
  EXPECT_EQ(core::unrollLoops(g), 0u);
  EXPECT_EQ(countKind(g, OpKind::Loop), 1u);
}

TEST(UnrollTest, MaxTripBoundRespected) {
  Graph g;
  Value* a = g.addInput(Type::tensor(), "a");
  IRBuilder b(g);
  Node* loop = b.makeLoop(b.constInt(100), {a});
  Block* body = loop->block(0);
  IRBuilder ib(g);
  ib.setInsertionPointToEnd(body);
  body->addReturn(ib.relu(body->param(1)));
  g.addOutput(loop->output(0));
  EXPECT_EQ(core::unrollLoops(g, /*maxTrip=*/16), 0u);
  EXPECT_EQ(core::unrollLoops(g, /*maxTrip=*/128), 1u);
}

TEST(UnrollTest, NestedConstantLoopsFlattenCompletely) {
  Graph g;
  Value* a = g.addInput(Type::tensor(), "a");
  IRBuilder b(g);
  Node* outer = b.makeLoop(b.constInt(2), {a});
  Block* obody = outer->block(0);
  {
    IRBuilder ob(g);
    ob.setInsertionPointToEnd(obody);
    Node* inner = ob.makeLoop(ob.constInt(2), {obody->param(1)});
    Block* ibody = inner->block(0);
    IRBuilder ib(g);
    ib.setInsertionPointToEnd(ibody);
    ibody->addReturn(ib.relu(ibody->param(1)));
    obody->addReturn(inner->output(0));
  }
  g.addOutput(outer->output(0));
  // Innermost-first: the inner loop unrolls before the outer clones it.
  EXPECT_EQ(core::unrollLoops(g), 2u);
  EXPECT_EQ(countKind(g, OpKind::Loop), 0u);
  EXPECT_EQ(countKind(g, OpKind::Relu), 4u);
  ir::verify(g);
}

TEST(FoldTest, FoldsScalarChains) {
  Graph g;
  IRBuilder b(g);
  Value* x = b.scalarAdd(b.constInt(3), b.constInt(4));
  Value* y = b.scalarMul(x, b.constInt(2));
  Value* cmp = b.scalarGe(y, b.constInt(10));
  g.addOutput(y);
  g.addOutput(cmp);
  EXPECT_GE(core::foldScalarConstants(g), 3u);
  core::eliminateDeadCode(g);
  ir::verify(g);
  Interpreter interp;
  auto out = interp.run(g, {});
  EXPECT_EQ(out[0].toInt(), 14);
  EXPECT_TRUE(out[1].toBool());
  EXPECT_EQ(countKind(g, OpKind::ScalarAdd), 0u);
}

TEST(FoldTest, DynamicOperandsNotFolded) {
  Graph g;
  Value* n = g.addInput(Type::integer(), "n");
  IRBuilder b(g);
  g.addOutput(b.scalarAdd(n, b.constInt(1)));
  EXPECT_EQ(core::foldScalarConstants(g), 0u);
}

TEST(InplaceReuseTest, DeadBaseIsDonated) {
  // out = assign(zeros(...), src, identity): zeros is dead after.
  Graph g;
  Value* src = g.addInput(Type::tensor(), "src");
  IRBuilder b(g);
  Value* buf = b.zeros({4, 4});
  Node* assign = b.emitNode(OpKind::Assign, {buf, src}, 1);
  assign->attrs().set("view",
                      Scalar(static_cast<std::int64_t>(OpKind::Identity)));
  g.addOutput(assign->output());
  EXPECT_EQ(core::markInplaceAssigns(g), 1u);
  EXPECT_TRUE(assign->attrs().bOr("inplace", false));
}

TEST(InplaceReuseTest, LiveBaseIsNotDonated) {
  // The old version is also a graph output: cannot write in place.
  Graph g;
  Value* src = g.addInput(Type::tensor(), "src");
  IRBuilder b(g);
  Value* buf = b.zeros({4, 4});
  Node* assign = b.emitNode(OpKind::Assign, {buf, src}, 1);
  assign->attrs().set("view",
                      Scalar(static_cast<std::int64_t>(OpKind::Identity)));
  g.addOutput(assign->output());
  g.addOutput(buf);  // old version escapes
  EXPECT_EQ(core::markInplaceAssigns(g), 0u);
}

TEST(InplaceReuseTest, EarlierReadAllowsDonation) {
  Graph g;
  Value* src = g.addInput(Type::tensor(), "src");
  IRBuilder b(g);
  Value* buf = b.zeros({4, 4});
  Value* read = b.relu(buf);  // read BEFORE the write: fine
  Node* assign = b.emitNode(OpKind::Assign, {buf, src}, 1);
  assign->attrs().set("view",
                      Scalar(static_cast<std::int64_t>(OpKind::Identity)));
  g.addOutput(assign->output());
  g.addOutput(read);
  EXPECT_EQ(core::markInplaceAssigns(g), 1u);
}

TEST(InplaceReuseTest, LaterReadBlocksDonation) {
  Graph g;
  Value* src = g.addInput(Type::tensor(), "src");
  IRBuilder b(g);
  Value* buf = b.zeros({4, 4});
  Node* assign = b.emitNode(OpKind::Assign, {buf, src}, 1);
  assign->attrs().set("view",
                      Scalar(static_cast<std::int64_t>(OpKind::Identity)));
  Value* read = b.relu(buf);  // reads the OLD version after the write
  g.addOutput(assign->output());
  g.addOutput(read);
  EXPECT_EQ(core::markInplaceAssigns(g), 0u);
}

TEST(InplaceReuseTest, ConstantBaseIsNeverDonated) {
  Graph g;
  Value* src = g.addInput(Type::tensor(), "src");
  IRBuilder b(g);
  Value* weight = b.constTensor(Tensor::ones({4}));
  Node* assign = b.emitNode(OpKind::Assign, {weight, src}, 1);
  assign->attrs().set("view",
                      Scalar(static_cast<std::int64_t>(OpKind::Identity)));
  g.addOutput(assign->output());
  EXPECT_EQ(core::markInplaceAssigns(g), 0u);
}

TEST(InplaceReuseTest, GraphInputBaseIsNeverDonated) {
  Graph g;
  Value* buf = g.addInput(Type::tensor(), "buf");
  Value* src = g.addInput(Type::tensor(), "src");
  IRBuilder b(g);
  Node* assign = b.emitNode(OpKind::Assign, {buf, src}, 1);
  assign->attrs().set("view",
                      Scalar(static_cast<std::int64_t>(OpKind::Identity)));
  g.addOutput(assign->output());
  EXPECT_EQ(core::markInplaceAssigns(g), 0u);
}

TEST(DeviceModelTest, KernelTimeRoofline) {
  runtime::DeviceSpec d = runtime::DeviceSpec::dataCenter();
  // Pure launch.
  EXPECT_DOUBLE_EQ(d.kernelTimeUs(0, 0), d.launchOverheadUs);
  // 936 GB/s: 936 KB takes 1us on top of launch.
  EXPECT_NEAR(d.kernelTimeUs(936000, 0), d.launchOverheadUs + 1.0, 1e-9);
  // Compute-bound kernel ignores smaller memory term.
  const double t = d.kernelTimeUs(1000, 35600000);
  EXPECT_NEAR(t, d.launchOverheadUs + 1.0, 1e-9);
}

TEST(ProfilerTest, SerialVsPipelinedDispatch) {
  runtime::DeviceSpec dev = runtime::DeviceSpec::dataCenter();
  runtime::HostSpec serial = runtime::HostSpec::eagerPython();
  runtime::HostSpec pipelined = runtime::HostSpec::torchscriptVm();
  runtime::Profiler ps(dev, serial);
  runtime::Profiler pp(dev, pipelined);
  ps.kernel("k", 0, 0, 3.0);
  pp.kernel("k", 0, 0, 3.0);
  EXPECT_DOUBLE_EQ(ps.simTimeUs(), dev.launchOverheadUs + 3.0);
  EXPECT_DOUBLE_EQ(pp.simTimeUs(), dev.launchOverheadUs);  // overlapped
  EXPECT_EQ(ps.kernelLaunches(), 1);
  EXPECT_EQ(ps.kernelHistogram().at("k"), 1);
}

}  // namespace
}  // namespace tssa
