// Tests for the tensor-expression backend: fused bodies run as native code
// (or declined back to the interpreter) must agree exactly with node-by-node
// interpretation.
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <tuple>

#include "src/core/fusion.h"
#include "src/core/lower_inplace.h"
#include "src/core/tensor_ssa.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/runtime/interpreter.h"
#include "src/tensor/random.h"
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

/// Builds a FusionGroup node wrapping `makeBody`, returns the graph.
template <typename Fn>
std::unique_ptr<Graph> groupGraph(std::size_t numInputs, Fn&& makeBody) {
  auto g = std::make_unique<Graph>();
  std::vector<Value*> ins;
  for (std::size_t i = 0; i < numInputs; ++i)
    ins.push_back(g->addInput(Type::tensor()));
  IRBuilder b(*g);
  Node* group = b.emitNode(OpKind::FusionGroup, ins, 0);
  Block* body = group->addBlock();
  for (Value* in : ins) body->addParam(in->type());
  IRBuilder inner(*g);
  inner.setInsertionPointToEnd(body);
  makeBody(inner, body);
  for (std::size_t i = 0; i < body->numReturns(); ++i)
    group->addOutput(Type::tensor());
  for (std::size_t i = 0; i < group->numOutputs(); ++i)
    g->addOutput(group->output(i));
  ir::verify(*g);
  return g;
}

/// Runs a graph twice — supported fused bodies as native code where the JIT
/// accepts them, and every body interpreted — and expects identical results.
void expectTexprMatchesInterpreter(const Graph& g,
                                   std::vector<RtValue> inputs) {
  Interpreter withTexpr(nullptr, /*useTexpr=*/true, 1, /*texprJit=*/true);
  Interpreter withoutTexpr(nullptr, /*useTexpr=*/true, 1, /*texprJit=*/false);
  auto a = withTexpr.run(g, inputs);
  auto b = withoutTexpr.run(g, inputs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(allClose(a[i].tensor(), b[i].tensor(), 0.0))
        << "output " << i << " texpr vs interpreter:\n"
        << a[i].tensor().toString() << "\nvs\n"
        << b[i].tensor().toString();
  }
}

TEST(TexprTest, ElementwiseChain) {
  auto g = groupGraph(2, [](IRBuilder& b, Block* body) {
    Value* x = b.add(body->param(0), body->param(1));
    body->addReturn(b.relu(b.mul(x, body->param(0))));
  });
  Rng rng(1);
  expectTexprMatchesInterpreter(
      *g, {RtValue(rng.uniform({3, 4}, -2, 2)), RtValue(rng.uniform({3, 4}))});
}

TEST(TexprTest, BroadcastAndDTypePromotion) {
  auto g = groupGraph(2, [](IRBuilder& b, Block* body) {
    Value* x = b.add(body->param(0), body->param(1));  // [2,3,4] + [4]
    Value* m = b.gt(x, body->param(1));                // Bool
    body->addReturn(b.where(m, x, b.neg(x)));
  });
  Rng rng(2);
  expectTexprMatchesInterpreter(
      *g, {RtValue(rng.uniform({2, 3, 4}, -1, 1)),
           RtValue(rng.uniform({4}, -1, 1))});
}

TEST(TexprTest, AccessRules) {
  auto makeAccess = [](IRBuilder& b, Value* base, OpKind rule,
                       std::vector<Value*> dyn,
                       auto&& setAttrs) {
    std::vector<Value*> inputs{base};
    inputs.insert(inputs.end(), dyn.begin(), dyn.end());
    Node* n = b.emitNode(OpKind::Access, std::move(inputs), 1);
    n->attrs().set("view", Scalar(static_cast<std::int64_t>(rule)));
    setAttrs(n->attrs());
    return n->output();
  };
  auto g = groupGraph(2, [&](IRBuilder& b, Block* body) {
    Value* base = body->param(0);
    Value* idx = body->param(1);  // scalar
    Value* sel = makeAccess(b, base, OpKind::Select, {idx},
                            [](ir::AttrMap& a) { a.set("dim", Scalar(0)); });
    Value* tr = makeAccess(b, base, OpKind::Transpose, {},
                           [](ir::AttrMap& a) {
                             a.set("dim0", Scalar(0));
                             a.set("dim1", Scalar(1));
                           });
    Value* rs = makeAccess(b, base, OpKind::Reshape, {},
                           [](ir::AttrMap& a) {
                             a.set("sizes",
                                   std::vector<std::int64_t>{4, 3});
                           });
    body->addReturn(b.relu(sel));
    body->addReturn(b.relu(tr));
    body->addReturn(b.relu(rs));
  });
  // Patch the second graph input to scalar type.
  g->inputs()[1]->setType(Type::integer());
  Rng rng(3);
  expectTexprMatchesInterpreter(
      *g, {RtValue(rng.uniform({3, 4}, -2, 2)), RtValue(Scalar(1))});
}

TEST(TexprTest, AssignSelectAndSliceRegions) {
  auto g = groupGraph(3, [&](IRBuilder& b, Block* body) {
    Value* base = body->param(0);
    Value* src = body->param(1);
    Value* idx = body->param(2);
    Node* a1 = b.emitNode(OpKind::Assign, {base, src, idx}, 1);
    a1->attrs().set("view", Scalar(static_cast<std::int64_t>(OpKind::Select)));
    a1->attrs().set("dim", Scalar(0));
    // Then a strided slice write of constants folded by mul.
    Value* doubled = b.mul(a1->output(), a1->output());
    body->addReturn(doubled);
  });
  g->inputs()[2]->setType(Type::integer());
  Rng rng(4);
  expectTexprMatchesInterpreter(
      *g, {RtValue(rng.uniform({4, 3})), RtValue(rng.uniform({3})),
           RtValue(Scalar(2))});
}

TEST(TexprTest, AssignThroughReshapeAndFlatten) {
  // Whole-buffer writes through a reshaped / flattened view of the base. The
  // JIT declines them (reason "op"): the fallback must equal the interpreted
  // body.
  auto g = groupGraph(3, [&](IRBuilder& b, Block* body) {
    Node* rs = b.emitNode(OpKind::Assign, {body->param(0), body->param(1)}, 1);
    rs->attrs().set("view",
                    Scalar(static_cast<std::int64_t>(OpKind::Reshape)));
    rs->attrs().set("sizes", std::vector<std::int64_t>{-1, 4});
    Node* fl = b.emitNode(OpKind::Assign, {rs->output(), body->param(2)}, 1);
    fl->attrs().set("view",
                    Scalar(static_cast<std::int64_t>(OpKind::Flatten)));
    fl->attrs().set("start_dim", Scalar(0));
    fl->attrs().set("end_dim", Scalar(-1));
    body->addReturn(b.relu(rs->output()));
    body->addReturn(b.neg(fl->output()));
  });
  Rng rng(9);
  expectTexprMatchesInterpreter(*g, {RtValue(rng.uniform({2, 6}, -2, 2)),
                                     RtValue(rng.uniform({4}, -2, 2)),
                                     RtValue(rng.uniform({12}, -2, 2))});
}

TEST(TexprTest, SupportsGate) {
  // Reduction inside -> unsupported; pure elementwise -> supported.
  auto gRed = groupGraph(1, [](IRBuilder& b, Block* body) {
    body->addReturn(b.softmax(body->param(0), 0));
  });
  auto gEw = groupGraph(1, [](IRBuilder& b, Block* body) {
    body->addReturn(b.sigmoid(body->param(0)));
  });
  const Node* red = (*gRed->topBlock()->begin());
  const Node* ew = (*gEw->topBlock()->begin());
  EXPECT_FALSE(texpr::Kernel::supports(*red->block(0)));
  EXPECT_TRUE(texpr::Kernel::supports(*ew->block(0)));
  // Unsupported bodies still execute correctly via the interpreter path.
  Rng rng(5);
  expectTexprMatchesInterpreter(*gRed, {RtValue(rng.uniform({4}))});
}

TEST(TexprTest, RunStatsReportFlopsAndDonation) {
  auto g = groupGraph(2, [](IRBuilder& b, Block* body) {
    Node* assign = b.emitNode(OpKind::Assign,
                              {body->param(0), body->param(1)}, 1);
    assign->attrs().set("view",
                        Scalar(static_cast<std::int64_t>(OpKind::Identity)));
    assign->attrs().set("inplace", Scalar(true));
    body->addReturn(b.relu(assign->output()));
  });
  const Block& body = *(*g->topBlock()->begin())->block(0);
  Rng rng(6);
  std::vector<RtValue> in{RtValue(rng.uniform({8, 8})),
                          RtValue(rng.uniform({8}))};
  std::vector<analysis::Operand> params;
  for (const RtValue& v : in) params.push_back(analysis::operandOf(v));
  // The stats derive from shapes alone, so both paths are priced alike.
  const texpr::Kernel::RunStats stats =
      texpr::Kernel::infer(body, params).stats;
  EXPECT_EQ(stats.flops, 64 + 64);  // assign + relu, one per element
  // Donation saves 2*(64-8)*4 bytes of round-trip traffic.
  EXPECT_EQ(stats.savedBytes, 2 * (64 - 8) * 4);
}

// A fused Cast to Int64 follows the tensor library's rule for NaN, ±inf and
// out-of-range values (INT64_MIN), natively and interpreted.
TEST(TexprTest, NonFiniteCastToInt64MatchesInterpreter) {
  auto g = groupGraph(1, [](IRBuilder& b, Block* body) {
    body->addReturn(b.cast(b.mul(body->param(0), body->param(0)),
                           DType::Int64));
  });
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<RtValue> inputs = {RtValue(Tensor::fromData(
      {std::numeric_limits<float>::quiet_NaN(), inf, -inf, 1e30f, 2.5f,
       -3.5f},
      {6}))};
  expectTexprMatchesInterpreter(*g, inputs);
  const Tensor out =
      Interpreter(nullptr, /*useTexpr=*/true, 1, /*texprJit=*/true)
          .run(*g, inputs)[0]
          .tensor();
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t* p = out.data<std::int64_t>();
  EXPECT_EQ(std::vector<std::int64_t>(p, p + 6),
            (std::vector<std::int64_t>{lo, lo, lo, lo, 6, 12}));
}

/// Dtype, shape and every element's bits must agree.
void expectSameDtypeAndBits(const Tensor& a, const Tensor& b,
                            const std::string& label) {
  ASSERT_EQ(a.dtype(), b.dtype()) << label;
  ASSERT_EQ(a.sizes(), b.sizes()) << label;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.scalarAtLinear(i)),
              std::bit_cast<std::uint64_t>(b.scalarAtLinear(i)))
        << label << " element " << i;
  }
}

/// FusionGroup `masked_fill(a, mask, fill)` with a scalar fill param.
std::unique_ptr<Graph> maskedFillGroup() {
  auto g = groupGraph(3, [](IRBuilder& b, Block* body) {
    body->addReturn(
        b.maskedFill(body->param(0), body->param(1), body->param(2)));
  });
  g->inputs()[2]->setType(Type::floating());
  return g;
}

TEST(TexprTest, MaskedFillKeepsBaseDtype) {
  // ops::maskedFill keeps the base dtype: a fill of 2.5 into a bool tensor
  // stores `true`, into an int64 tensor stores 2.
  auto g = maskedFillGroup();
  const Tensor mask = Tensor::full({4}, Scalar(true), DType::Bool);
  for (const DType dtype : {DType::Float32, DType::Int64, DType::Bool}) {
    const std::vector<RtValue> inputs = {
        RtValue(Tensor::full({4}, Scalar(0), dtype)), RtValue(mask),
        RtValue(Scalar(2.5))};
    Interpreter withTexpr(nullptr, /*useTexpr=*/true);
    Interpreter withoutTexpr(nullptr, /*useTexpr=*/false);
    const Tensor a = withTexpr.run(*g, inputs)[0].tensor();
    const Tensor b = withoutTexpr.run(*g, inputs)[0].tensor();
    EXPECT_EQ(b.dtype(), dtype);
    expectSameDtypeAndBits(a, b, std::string(dtypeName(dtype)));
  }
}

TEST(TexprTest, FloatToBoolAssignMatchesJit) {
  // immut::assign of a Float32 source into a Bool base: the interpreted body
  // (copy_ into the base's dtype) and the generated code both store v != 0.
  auto g = groupGraph(2, [](IRBuilder& b, Block* body) {
    Node* assign = b.emitNode(OpKind::Assign,
                              {body->param(0), body->param(1)}, 1);
    assign->attrs().set("view",
                        Scalar(static_cast<std::int64_t>(OpKind::Identity)));
    body->addReturn(assign->output());
  });
  const std::vector<RtValue> inputs = {
      RtValue(Tensor::zeros({2, 4}, DType::Bool)),
      RtValue(Tensor::fromData({0.5f, -1.5f, 0.0f, 2.0f}, {4}))};
  auto& cache = texpr::jit::KernelCache::instance();
  const auto before = cache.stats();
  Interpreter jit(nullptr, /*useTexpr=*/true, 1, /*texprJit=*/true);
  const Tensor a = jit.run(*g, inputs)[0].tensor();
  const auto after = cache.stats();
  if (texpr::jit::jitEnabled()) {
    EXPECT_EQ(after.declines, before.declines);
    EXPECT_EQ(after.hits + after.misses, before.hits + before.misses + 1);
  }
  Interpreter interpreted(nullptr, /*useTexpr=*/false);
  const Tensor b = interpreted.run(*g, inputs)[0].tensor();
  expectSameDtypeAndBits(a, b, "float->bool assign");
  for (std::int64_t i = 0; i < 8; ++i)
    EXPECT_EQ(b.scalarAtLinear(i), i % 4 == 2 ? 0.0 : 1.0) << "element " << i;
}

/// FusionGroup returning `Access(view=Permute, dims)` of its one input.
std::unique_ptr<Graph> permuteAccessGroup(std::vector<std::int64_t> dims) {
  return groupGraph(1, [&](IRBuilder& b, Block* body) {
    Node* n = b.emitNode(OpKind::Access, {body->param(0)}, 1);
    n->attrs().set("view",
                   Scalar(static_cast<std::int64_t>(OpKind::Permute)));
    n->attrs().set("dims", dims);
    body->addReturn(n->output());
  });
}

TEST(TexprTest, AccessPermuteNormalizesNegativeDims) {
  auto g = permuteAccessGroup({-1, 0});
  Rng rng(7);
  const std::vector<RtValue> inputs = {RtValue(rng.uniform({2, 3}))};
  Interpreter withTexpr(nullptr, /*useTexpr=*/true, 1, /*texprJit=*/true);
  Interpreter withoutTexpr(nullptr, /*useTexpr=*/true, 1, /*texprJit=*/false);
  const Tensor a = withTexpr.run(*g, inputs)[0].tensor();
  const Tensor b = withoutTexpr.run(*g, inputs)[0].tensor();
  EXPECT_EQ(a.sizes(), (Shape{3, 2}));
  expectSameDtypeAndBits(a, b, "permute[-1,0]");
}

TEST(TexprTest, InvalidAccessViewRaisesTypedError) {
  Rng rng(8);
  const std::vector<RtValue> inputs = {RtValue(rng.uniform({2, 3}))};
  for (const std::vector<std::int64_t>& dims :
       {std::vector<std::int64_t>{2, 0}, std::vector<std::int64_t>{0, 0},
        std::vector<std::int64_t>{0}}) {
    auto g = permuteAccessGroup(dims);
    // Native code, the interpreted body priced as a texpr kernel, and the
    // interpreted body alone (Tensor::permute's own checks).
    for (const auto& [useTexpr, jit, label] :
         {std::tuple{true, true, "jit"}, std::tuple{true, false, "interp"},
          std::tuple{false, false, "no-texpr"}}) {
      Interpreter interp(nullptr, useTexpr, 1, jit);
      EXPECT_THROW(interp.run(*g, inputs), Error)
          << "dims " << dims.size() << " " << label;
    }
  }
}

// Randomized: full pipelines already cross-check texpr numerics; this adds a
// focused texpr-on/off sweep over random programs compiled with TensorSSA.
class TexprRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(TexprRandomTest, TexprMatchesInterpretedFusion) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  Graph g;
  testing_support::ProgramGenerator gen(g, rng);
  auto inputs = gen.generate(8);
  core::lowerInplaceOps(g);
  core::convertToTensorSSA(g);
  core::readonlyViewsToAccess(g, core::FusionPolicy::tensorssa());
  core::hoistConstants(g);
  core::fuseKernels(g, core::FusionPolicy::tensorssa());
  ir::verify(g);
  expectTexprMatchesInterpreter(g, inputs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TexprRandomTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace tssa
