// Symbolic dimensions (ROADMAP item 3): one compiled program serves every
// shape that instantiates the workload's symbolic pattern.
//
// The acceptance differential here is the contract the serving engine's
// polymorphic cache keys rely on: a graph built with
// WorkloadConfig::symbolicDims produces *bitwise identical* outputs to the
// shape-specialized graph, for all 9 workloads, across thread counts, at
// several distinct shapes — so swapping the
// exact-shape signature for a pattern guard can never change what a request
// computes.
#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/pipeline.h"
#include "src/tensor/shape.h"
#include "src/workloads/workload.h"

namespace tssa {
namespace {

using runtime::Interpreter;
using runtime::Pipeline;
using runtime::PipelineKind;
using runtime::PipelineOptions;
using runtime::RtValue;
using workloads::buildWorkload;
using workloads::matchesSymbolicPattern;
using workloads::SymbolicPattern;
using workloads::Workload;
using workloads::WorkloadConfig;
using workloads::workloadSymbolicPattern;

bool bitwiseEqual(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  for (IndexIterator it(a.sizes()); it.valid(); it.next()) {
    if (a.scalarAt(it.index()) != b.scalarAt(it.index())) return false;
  }
  return true;
}

std::vector<std::string> allWorkloads() {
  std::vector<std::string> names = workloads::workloadNames();
  names.push_back("decode_step");
  return names;
}

// ---- ir::Dim / Type ---------------------------------------------------------

TEST(SymbolicDimTest, DimToStringAndEquality) {
  using ir::Dim;
  EXPECT_EQ(Dim(32).toString(), "32");
  EXPECT_EQ(Dim::symbol("B").toString(), "B");
  EXPECT_EQ(Dim::symbol("C", 1).toString(), "C+1");
  EXPECT_EQ(Dim::symbol("C", -2).toString(), "C-2");
  EXPECT_EQ(Dim(32), Dim(32));
  EXPECT_FALSE(Dim(32) == Dim(33));
  EXPECT_EQ(Dim::symbol("C", 1), Dim::symbol("C", 1));
  EXPECT_FALSE(Dim::symbol("C", 1) == Dim::symbol("C", 2));
  EXPECT_FALSE(Dim::symbol("B") == Dim(32));
}

TEST(SymbolicDimTest, TensorTypePrintsDims) {
  ir::Type t = ir::Type::tensor(
      DType::Float32, {ir::Dim::symbol("B"), ir::Dim::symbol("C", 1), 32});
  EXPECT_EQ(t.toString(), "f32[B,C+1,32] Tensor");
  EXPECT_TRUE(t.hasDims());
  EXPECT_TRUE(t.hasSymbolicDims());
  // Equality stays kind-only: dims are advisory, like dtype.
  EXPECT_EQ(t, ir::Type::tensor());
  EXPECT_FALSE(ir::Type::tensor(DType::Float32, {1, 2}).hasSymbolicDims());
}

TEST(SymbolicDimTest, ParserRoundTripsSymbolicTypes) {
  auto graph = std::make_unique<ir::Graph>();
  ir::IRBuilder bld(*graph);
  ir::Value* x = graph->addInput(
      ir::Type::tensor(DType::Float32,
                       {ir::Dim::symbol("B"), ir::Dim::symbol("C", 1), 32}),
      "x");
  graph->addOutput(bld.relu(x));
  ir::verify(*graph);

  const std::string printed = ir::toString(*graph);
  EXPECT_NE(printed.find("f32[B,C+1,32] Tensor"), std::string::npos)
      << printed;
  auto reparsed = ir::parseGraph(printed);
  EXPECT_EQ(ir::toString(*reparsed), printed);
  const ir::Type& t = reparsed->inputs()[0]->type();
  ASSERT_TRUE(t.hasDims());
  ASSERT_EQ(t.dims().size(), 3u);
  EXPECT_EQ(t.dims()[0], ir::Dim::symbol("B"));
  EXPECT_EQ(t.dims()[1], ir::Dim::symbol("C", 1));
  EXPECT_EQ(t.dims()[2], ir::Dim(32));
}

// ---- dynamic-size ops --------------------------------------------------------

TEST(SymbolicDimTest, SizeOfAndDynamicFactories) {
  auto graph = std::make_unique<ir::Graph>();
  ir::IRBuilder bld(*graph);
  ir::Value* x = graph->addInput(ir::Type::tensor(DType::Float32), "x");
  ir::Value* rows = bld.sizeOf(x, 0);
  ir::Value* cols = bld.sizeOf(x, -1);  // negative dims normalize
  ir::Value* z = bld.zeros({-1, -1, 4}, {rows, cols});
  ir::Value* o = bld.ones({-1, 2}, {rows}, DType::Int64);
  graph->addOutput(z);
  graph->addOutput(o);
  ir::verify(*graph);

  Interpreter interp;
  std::vector<RtValue> inputs;
  inputs.emplace_back(Tensor::zeros({3, 5}));
  auto out = interp.run(*graph, inputs);
  EXPECT_EQ(out[0].tensor().sizes(), (Shape{3, 5, 4}));
  EXPECT_EQ(out[1].tensor().sizes(), (Shape{3, 2}));
  EXPECT_EQ(out[1].tensor().dtype(), DType::Int64);
}

TEST(SymbolicDimTest, DynamicReshapeAndExpand) {
  auto graph = std::make_unique<ir::Graph>();
  ir::IRBuilder bld(*graph);
  ir::Value* x = graph->addInput(ir::Type::tensor(DType::Float32), "x");
  ir::Value* rows = bld.sizeOf(x, 0);
  // [B, 6] -> [B, 2, 3], then a [B, 1, 3] slice expanded back to [B, 2, 3].
  ir::Value* r = bld.reshape(x, {-1, 2, 3}, {rows});
  ir::Value* s = bld.slice(r, 1, bld.constInt(0), bld.constInt(1));
  ir::Value* e = bld.expand(s, {-1, 2, 3}, {rows});
  graph->addOutput(bld.add(r, e));
  ir::verify(*graph);

  Interpreter interp;
  for (std::int64_t b : {1, 4}) {
    std::vector<RtValue> inputs;
    inputs.emplace_back(Tensor::ones({b, 6}));
    auto out = interp.run(*graph, inputs);
    EXPECT_EQ(out[0].tensor().sizes(), (Shape{b, 2, 3}));
  }
}

TEST(SymbolicDimTest, DynamicSizeCountMismatchThrows) {
  auto graph = std::make_unique<ir::Graph>();
  ir::IRBuilder bld(*graph);
  ir::Value* x = graph->addInput(ir::Type::tensor(DType::Float32), "x");
  ir::Value* rows = bld.sizeOf(x, 0);
  EXPECT_THROW(bld.zeros({-1, -1, 4}, {rows}), Error);
  EXPECT_THROW(bld.zeros({2, 4}, {rows}), Error);
}

TEST(SymbolicDimTest, StaticReshapeKeepsInferSemantics) {
  // Without the "dyn" marker, -1 in reshape sizes still means "infer".
  auto graph = std::make_unique<ir::Graph>();
  ir::IRBuilder bld(*graph);
  ir::Value* x = graph->addInput(ir::Type::tensor(DType::Float32), "x");
  graph->addOutput(bld.reshape(x, {-1, 3}));
  ir::verify(*graph);
  Interpreter interp;
  std::vector<RtValue> inputs;
  inputs.emplace_back(Tensor::ones({2, 6}));
  EXPECT_EQ(interp.run(*graph, inputs)[0].tensor().sizes(), (Shape{4, 3}));
}

// ---- symbolic pattern registry ------------------------------------------------

TEST(SymbolicPatternTest, BuilderStampsPatternTypesOnInputs) {
  for (const std::string& name : allWorkloads()) {
    const SymbolicPattern& pat = workloadSymbolicPattern(name);
    WorkloadConfig config;
    config.batch = 2;
    config.seqLen = 12;
    config.symbolicDims = true;
    Workload w = buildWorkload(name, config);
    ASSERT_NO_THROW(ir::verify(*w.graph)) << name;
    ASSERT_EQ(w.graph->inputs().size(), pat.inputs.size()) << name;
    for (std::size_t i = 0; i < pat.inputs.size(); ++i) {
      EXPECT_EQ(w.graph->inputs()[i]->type().toString(),
                pat.inputs[i].toString())
          << name << " input " << i;
    }
    // The builder's own sample inputs must instantiate the pattern.
    EXPECT_TRUE(matchesSymbolicPattern(pat, w.inputs)) << name;
    EXPECT_FALSE(pat.signature.empty()) << name;
  }
}

TEST(SymbolicPatternTest, GuardAcceptsAndRejects) {
  const SymbolicPattern& pat = workloadSymbolicPattern("attention");
  auto inputsFor = [](std::int64_t b, std::int64_t t) {
    std::vector<RtValue> in;
    for (int i = 0; i < 3; ++i) in.emplace_back(Tensor::zeros({b, t, 32}));
    return in;
  };
  EXPECT_TRUE(matchesSymbolicPattern(pat, inputsFor(1, 1)));
  EXPECT_TRUE(matchesSymbolicPattern(pat, inputsFor(7, 33)));

  // Inconsistent symbol binding: q and k disagree on T.
  auto bad = inputsFor(2, 8);
  bad[1] = RtValue(Tensor::zeros({2, 9, 32}));
  EXPECT_FALSE(matchesSymbolicPattern(pat, bad));
  // Static dim mismatch, rank mismatch, dtype mismatch, arity mismatch.
  auto badStatic = inputsFor(2, 8);
  badStatic[2] = RtValue(Tensor::zeros({2, 8, 33}));
  EXPECT_FALSE(matchesSymbolicPattern(pat, badStatic));
  auto badRank = inputsFor(2, 8);
  badRank[0] = RtValue(Tensor::zeros({2, 8}));
  EXPECT_FALSE(matchesSymbolicPattern(pat, badRank));
  auto badDtype = inputsFor(2, 8);
  badDtype[0] = RtValue(Tensor::zeros({2, 8, 32}, DType::Int64));
  EXPECT_FALSE(matchesSymbolicPattern(pat, badDtype));
  auto badArity = inputsFor(2, 8);
  badArity.pop_back();
  EXPECT_FALSE(matchesSymbolicPattern(pat, badArity));
}

TEST(SymbolicPatternTest, OffsetDimBindsAgainstDecodeMask) {
  const SymbolicPattern& pat = workloadSymbolicPattern("decode_step");
  auto inputsFor = [](std::int64_t b, std::int64_t ctx,
                      std::int64_t maskLen) {
    std::vector<RtValue> in;
    in.emplace_back(Tensor::zeros({b, 32}));
    in.emplace_back(Tensor::zeros({b, ctx, 32}));
    in.emplace_back(Tensor::zeros({b, ctx, 32}));
    in.emplace_back(Tensor::zeros({b, maskLen}));
    return in;
  };
  EXPECT_TRUE(matchesSymbolicPattern(pat, inputsFor(3, 16, 17)));
  // mask must be exactly C+1 long.
  EXPECT_FALSE(matchesSymbolicPattern(pat, inputsFor(3, 16, 16)));
  EXPECT_FALSE(matchesSymbolicPattern(pat, inputsFor(3, 16, 18)));
}

// ---- acceptance differential ---------------------------------------------------

class SymbolicDifferentialTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(SymbolicDifferentialTest, PolymorphicMatchesSpecializedBitwise) {
  const std::string name = GetParam();

  // One symbolic graph, built once; the concrete configs it must serve.
  WorkloadConfig symConfig;
  symConfig.symbolicDims = true;
  Workload sym = buildWorkload(name, symConfig);
  ASSERT_NO_THROW(ir::verify(*sym.graph));

  struct Case {
    std::int64_t batch;
    std::int64_t seqLen;
  };
  const Case cases[] = {{1, 16}, {2, 12}, {3, 7}};

  for (int threads : {1, 0}) {
    PipelineOptions options;
    options.threads = threads;
    Pipeline poly(PipelineKind::TensorSsa, *sym.graph, options);
    for (const Case& c : cases) {
      WorkloadConfig config;
      config.batch = c.batch;
      config.seqLen = c.seqLen;
      Workload w = buildWorkload(name, config);
      Pipeline specialized(PipelineKind::TensorSsa, *w.graph, options);

      auto expected = specialized.run(w.inputs);
      auto got = poly.run(w.inputs);
      ASSERT_EQ(expected.size(), got.size()) << name;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (!expected[i].isTensor()) continue;
        EXPECT_TRUE(bitwiseEqual(expected[i].tensor(), got[i].tensor()))
            << name << " output " << i << " differs at b=" << c.batch
            << " t=" << c.seqLen << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SymbolicDifferentialTest,
                         ::testing::ValuesIn(allWorkloads()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace tssa
