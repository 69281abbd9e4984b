// Directed tests for tiled fused bodies (src/analysis/tile_plan.h, executed
// by runtime::Interpreter): each body below tiles into at least three tiles
// and must reproduce the whole body — the same graph with its FusionGroup
// inlined — bit for bit, serially and across the pool, with and without a
// memory plan. The cases cover what a tile may not get wrong: writes through
// to a param, params read whole by every tile, reductions beside the tiled
// dim, reshape/expand sizes, errors, and nesting in a threaded ParallelMap.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "src/analysis/liveness.h"
#include "src/analysis/tile_plan.h"
#include "src/ir/builder.h"
#include "src/obs/trace.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/random.h"
#include "tests/fusion_inline.h"
#include "tests/ops_reference.h"

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
using testing_support::inlineFusionGroups;
using testing_support::reference::sameBits;

/// A graph holding one FusionGroup whose body the test builds through `b`.
class FusedGraph {
 public:
  FusedGraph() : b(graph) {
    IRBuilder outer(graph);
    group = outer.emitNode(OpKind::FusionGroup, {}, 0);
    body = group->addBlock();
    b.setInsertionPointToEnd(body);
  }

  /// A new graph input and the body param it feeds.
  Value* param(Type type = Type::tensor()) {
    Value* in = graph.addInput(type);
    group->addInput(in);
    return body->addParam(type);
  }
  void ret(Value* v) {
    body->addReturn(v);
    graph.addOutput(group->addOutput(Type::tensor()));
  }
  /// An immut::access or immut::assign through view rule `rule`.
  Node* immut(OpKind kind, OpKind rule, std::vector<Value*> inputs) {
    Node* n = b.emitNode(kind, std::move(inputs), 1);
    n->attrs().set("view", Scalar(static_cast<std::int64_t>(rule)));
    return n;
  }

  Graph graph;
  Node* group = nullptr;
  Block* body = nullptr;
  IRBuilder b;
};

int hwThreads() { return std::max(2, runtime::ThreadPool::hardwareThreads()); }

std::vector<RtValue> cloned(const std::vector<RtValue>& values) {
  std::vector<RtValue> out;
  for (const RtValue& v : values)
    out.push_back(v.isTensor() ? RtValue(v.tensor().clone()) : v);
  return out;
}

std::vector<RtValue> wholeRun(const Graph& g, std::span<const RtValue> in) {
  return Interpreter().run(*inlineFusionGroups(g), in);
}

std::vector<RtValue> tiledRun(const Graph& g, std::span<const RtValue> in,
                              int threads, bool planned) {
  Interpreter interp(nullptr, /*useTexpr=*/true, threads);
  std::optional<analysis::MemoryPlan> plan;
  if (planned) {
    plan = analysis::planMemory(g);
    interp.setMemoryPlan(&*plan);
  }
  return interp.run(g, in);
}

std::optional<analysis::TilePlan> planOf(const FusedGraph& f,
                                         const std::vector<RtValue>& in) {
  std::vector<analysis::Operand> params;
  for (const RtValue& v : in) params.push_back(analysis::operandOf(v));
  return analysis::planTiles(*f.body, params);
}

/// The args of every FusionGroup span `run` records.
std::vector<std::map<std::string, std::string>> fusionSpans(
    const std::function<void()>& run) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.enable();
  run();
  tracer.disable();
  std::vector<std::map<std::string, std::string>> spans;
  for (const obs::TraceEvent& e : tracer.snapshot())
    if (e.name == "FusionGroup")
      spans.emplace_back(e.args.begin(), e.args.end());
  tracer.clear();
  return spans;
}

/// Tiled runs of `g` — threads 1 and hw, memory plan off and on — match the
/// whole body on every output and on every input they write through.
void expectTiledMatchesWhole(const Graph& g,
                             const std::vector<RtValue>& inputs) {
  std::vector<RtValue> wholeIn = cloned(inputs);
  const std::vector<RtValue> want = wholeRun(g, wholeIn);
  for (const int threads : {1, hwThreads()}) {
    for (const bool planned : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " planned=" + std::to_string(planned));
      std::vector<RtValue> in = cloned(inputs);
      const std::vector<RtValue> got = tiledRun(g, in, threads, planned);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(sameBits(got[i].tensor(), want[i].tensor()))
            << "output " << i;
      for (std::size_t i = 0; i < in.size(); ++i) {
        if (in[i].isTensor()) {
          EXPECT_TRUE(sameBits(in[i].tensor(), wholeIn[i].tensor()))
              << "input " << i << " after the run";
        }
      }
    }
  }
}

/// fcos's box-decoding pattern: a slice of a zeros param rewritten in
/// place, the chain then returned both clamped and as itself.
struct InPlaceCase {
  FusedGraph f;
  std::vector<RtValue> inputs;

  InPlaceCase() {
    Value* base = f.param();
    Value* src = f.param();
    Value* scale = f.param();
    Value* start = f.param(Type::integer());
    Value* end = f.param(Type::integer());
    auto slice = [&](Node* n) {
      n->attrs().set("dim", Scalar(std::int64_t{2}));
      n->attrs().set("step", Scalar(std::int64_t{1}));
      return n;
    };
    Node* dst = slice(f.immut(OpKind::Access, OpKind::Slice, {base, start, end}));
    Node* part = slice(f.immut(OpKind::Access, OpKind::Slice, {src, start, end}));
    Node* inner = f.immut(OpKind::Assign, OpKind::Identity,
                          {dst->output(), f.b.mul(part->output(), scale)});
    inner->attrs().set("inplace", Scalar(true));
    Node* outer = slice(f.immut(OpKind::Assign, OpKind::Slice,
                                {base, inner->output(), start, end}));
    outer->attrs().set("inplace", Scalar(true));
    f.ret(f.b.clamp(outer->output(), Scalar(0.0), Scalar(1.0)));
    f.ret(outer->output());
    Rng rng(3);
    inputs = {RtValue(Tensor::zeros({192, 64, 8})),
              RtValue(rng.uniform({192, 64, 8}, -2, 2)),
              RtValue(Tensor::scalar(Scalar(1.5))), RtValue(std::int64_t{2}),
              RtValue(std::int64_t{6})};
  }
};

TEST(TiledExecTest, InPlaceAssignIntoParamWritesThrough) {
  InPlaceCase c;
  const auto plan = planOf(c.f, c.inputs);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->tiles, 3);
  EXPECT_EQ(plan->writtenParams, std::vector<std::size_t>{0});
  EXPECT_EQ(plan->returns[1].param, 0);
  expectTiledMatchesWhole(c.f.graph, c.inputs);

  // The chain's return is the param itself, as in the whole body.
  std::vector<RtValue> in = cloned(c.inputs);
  std::vector<RtValue> out;
  const auto spans = fusionSpans(
      [&] { out = tiledRun(c.f.graph, in, hwThreads(), /*planned=*/true); });
  EXPECT_TRUE(out[1].tensor().sharesStorageWith(in[0].tensor()));
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].at("backend"), "\"tiled\"");
  EXPECT_EQ(spans[0].at("tiles"), std::to_string(plan->tiles));
}

TEST(TiledExecTest, AliasedInPlaceParamRunsWhole) {
  // The written param is also read through another param: tiles would see
  // rows other tiles already rewrote, so the body runs whole.
  InPlaceCase c;
  c.inputs[1] = c.inputs[0];
  std::vector<RtValue> in = cloned(c.inputs);
  in[1] = in[0];
  std::vector<RtValue> wholeIn = cloned(c.inputs);
  wholeIn[1] = wholeIn[0];
  const auto want = wholeRun(c.f.graph, wholeIn);
  std::vector<RtValue> got;
  const auto spans =
      fusionSpans([&] { got = tiledRun(c.f.graph, in, 1, false); });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].at("backend"), "\"interp\"");
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(sameBits(got[i].tensor(), want[i].tensor())) << i;
}

TEST(TiledExecTest, InPlaceReshapeAssignTilesOnlyContiguousRows) {
  // An in-place Assign through reshape writes through to the param only
  // while the reshape is a view of the tile: along the outermost dim the
  // tile is contiguous and the body tiles.
  auto reshapeAssign = [](FusedGraph& f, std::vector<std::int64_t> sizes) {
    Value* base = f.param();
    Value* src = f.param();
    Node* a = f.immut(OpKind::Assign, OpKind::Reshape, {base, f.b.relu(src)});
    a->attrs().set("sizes", std::move(sizes));
    a->attrs().set("inplace", Scalar(true));
    f.ret(a->output());
  };
  Rng rng(9);
  FusedGraph f;
  reshapeAssign(f, {48, 64, 64});
  const std::vector<RtValue> rows{RtValue(Tensor::zeros({48, 2, 2048})),
                                  RtValue(rng.uniform({48, 64, 64}, -1, 1))};
  const auto plan = planOf(f, rows);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->tiles, 3);
  EXPECT_EQ(plan->params[0].dim, 0);
  EXPECT_EQ(plan->returns[0].param, 0);
  expectTiledMatchesWhole(f.graph, rows);

  // Along dim 2 of [2, 3, 65536] a tile is strided: reshaping it to
  // [6, 65536] would copy it, so the body runs whole.
  FusedGraph g;
  reshapeAssign(g, {6, 65536});
  const std::vector<RtValue> strided{RtValue(Tensor::zeros({2, 3, 65536})),
                                     RtValue(rng.uniform({6, 65536}, -1, 1))};
  EXPECT_FALSE(planOf(g, strided).has_value());
  expectTiledMatchesWhole(g.graph, strided);
}

TEST(TiledExecTest, LowerRankAndUnitExtentParamsAreReadWhole) {
  FusedGraph f;
  Value* p0 = f.param();  // [96, 1024]: tiled along dim 0
  Value* p1 = f.param();  // [1024]: lower rank
  Value* p2 = f.param();  // [96, 1]
  Value* p3 = f.param();  // [1, 1024]: extent 1 along the tiled dim
  Value* e = f.b.exp(p3);  // reads only whole values: runs once
  Value* w = f.b.where(f.b.gt(p0, p3), f.b.mul(p0, p1), f.b.add(p2, e));
  f.ret(w);
  f.ret(e);
  Rng rng(4);
  const std::vector<RtValue> inputs{
      RtValue(rng.uniform({96, 1024}, -2, 2)),
      RtValue(rng.uniform({1024}, -2, 2)), RtValue(rng.uniform({96, 1}, -2, 2)),
      RtValue(rng.uniform({1, 1024}, -2, 2))};
  const auto plan = planOf(f, inputs);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->tiles, 3);
  EXPECT_EQ(plan->params[0].dim, 0);
  EXPECT_EQ(plan->params[1].dim, -1);
  EXPECT_EQ(plan->params[2].dim, 0);
  EXPECT_EQ(plan->params[3].dim, -1);
  EXPECT_FALSE(plan->nodes[0].tiled);
  EXPECT_EQ(plan->returns[1].cut.dim, -1);
  expectTiledMatchesWhole(f.graph, inputs);
}

TEST(TiledExecTest, SoftmaxAndDimReductionsBesideTheTiledDim) {
  FusedGraph f;
  Value* p0 = f.param();  // [2, 2048, 21]
  Value* c = f.param();   // [1, 1, 21]
  Value* s = f.b.softmax(f.b.mul(p0, c), 2);
  f.ret(s);
  f.ret(f.b.maxDim(s, 2));
  f.ret(f.b.argmax(s, -1, /*keepDim=*/true));
  f.ret(f.b.mean(s, 2));
  f.ret(f.b.sumDim(s, 2, /*keepDim=*/true));
  f.ret(f.b.minDim(s, 0));
  Rng rng(5);
  const std::vector<RtValue> inputs{RtValue(rng.uniform({2, 2048, 21}, -3, 3)),
                                    RtValue(rng.uniform({1, 1, 21}, 0, 2))};
  const auto plan = planOf(f, inputs);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->tiles, 3);
  EXPECT_EQ(plan->params[0].dim, 1);  // dim 0 has only two rows
  expectTiledMatchesWhole(f.graph, inputs);

  // A reduction over the only dim that could be tiled keeps the body whole.
  FusedGraph g;
  Value* q = g.param();
  g.ret(g.b.softmax(g.b.exp(q), 0));
  const std::vector<RtValue> row{RtValue(rng.uniform({65536}, -1, 1))};
  EXPECT_FALSE(planOf(g, row).has_value());
  expectTiledMatchesWhole(g.graph, row);
}

TEST(TiledExecTest, ReshapeAndExpandViewsTakeTheTileExtent) {
  FusedGraph f;
  Value* p0 = f.param();  // [64, 3, 16, 21]
  Value* p1 = f.param();  // [64, 1, 1, 21]
  Node* e = f.immut(OpKind::Access, OpKind::Expand, {p1});
  e->attrs().set("sizes", std::vector<std::int64_t>{64, 3, 16, 21});
  Node* r = f.immut(OpKind::Access, OpKind::Reshape,
                    {f.b.add(p0, e->output())});
  r->attrs().set("sizes", std::vector<std::int64_t>{64, -1, 21});
  f.ret(f.b.relu(r->output()));
  Rng rng(6);
  const std::vector<RtValue> inputs{
      RtValue(rng.uniform({64, 3, 16, 21}, -1, 1)),
      RtValue(rng.uniform({64, 1, 1, 21}, -1, 1))};
  const auto plan = planOf(f, inputs);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GE(plan->tiles, 3);
  EXPECT_EQ(plan->params[0].dim, 0);
  EXPECT_EQ(plan->nodes[0].view.dim, 0);
  EXPECT_EQ(plan->nodes[2].view.dim, 0);
  expectTiledMatchesWhole(f.graph, inputs);

  // A reshape that merges the tiled dim with another keeps the body whole.
  FusedGraph g;
  Value* q = g.param();
  Node* flat = g.immut(OpKind::Access, OpKind::Reshape, {q});
  flat->attrs().set("sizes", std::vector<std::int64_t>{-1});
  g.ret(g.b.relu(flat->output()));
  EXPECT_FALSE(planOf(g, {RtValue(rng.uniform({512, 64}, -1, 1))}).has_value());
}

TEST(TiledExecTest, OutOfRangeSelectIndexRaisesTheSameError) {
  FusedGraph f;
  Value* p0 = f.param();
  Value* index = f.param(Type::integer());
  Node* row = f.immut(OpKind::Access, OpKind::Select, {p0, index});
  row->attrs().set("dim", Scalar(std::int64_t{1}));
  f.ret(f.b.relu(row->output()));
  Rng rng(7);
  auto message = [](const Error& e) {
    const std::string what = e.what();
    return what.substr(0, what.find(" (at "));
  };
  std::vector<RtValue> inputs{RtValue(rng.uniform({256, 8, 64}, -1, 1)),
                              RtValue(std::int64_t{7})};
  expectTiledMatchesWhole(f.graph, inputs);  // in range: it tiles
  ASSERT_TRUE(planOf(f, inputs).has_value());

  inputs[1] = RtValue(std::int64_t{9});
  std::string want;
  try {
    wholeRun(f.graph, inputs);
  } catch (const Error& e) {
    want = message(e);
  }
  ASSERT_FALSE(want.empty()) << "the whole body accepted index 9";
  for (const int threads : {1, hwThreads()}) {
    try {
      tiledRun(f.graph, inputs, threads, /*planned=*/true);
      ADD_FAILURE() << "threads=" << threads << " accepted index 9";
    } catch (const Error& e) {
      EXPECT_EQ(message(e), want) << "threads=" << threads;
    }
  }
}

TEST(TiledExecTest, LargeBodiesRunTheirTilesAcrossThePool) {
  FusedGraph f;
  Value* p0 = f.param();
  Value* p1 = f.param();
  f.ret(f.b.sigmoid(f.b.mul(f.b.add(p0, p1), p1)));
  Rng rng(8);
  const std::vector<RtValue> inputs{RtValue(rng.uniform({512, 512}, -1, 1)),
                                    RtValue(rng.uniform({512, 512}, -1, 1))};
  expectTiledMatchesWhole(f.graph, inputs);
  const auto spans = fusionSpans(
      [&] { tiledRun(f.graph, inputs, hwThreads(), /*planned=*/true); });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].at("backend"), "\"tiled\"");
  EXPECT_EQ(spans[0].at("tiles"), "16");
  EXPECT_EQ(spans[0].at("workers"), std::to_string(std::min(hwThreads(), 16)));
}

TEST(TiledExecTest, FusedBodyInThreadedParallelMapRunsTilesSerially) {
  // ParallelMap over 4 slices of x: each iteration fuses relu(x[i] * c) on
  // a 256 KiB slice, which tiles, and writes it back to slice i.
  Graph g;
  Value* x = g.addInput(Type::tensor());
  Value* c = g.addInput(Type::tensor());
  IRBuilder b(g);
  Node* loop = b.makeLoop(b.constInt(4), {x});
  loop->setKind(OpKind::ParallelMap);
  loop->attrs().set("par_dims", std::vector<std::int64_t>{0});
  Block* lb = loop->block(0);
  IRBuilder ib(g);
  ib.setInsertionPointToEnd(lb);
  auto select = [&](OpKind kind, std::vector<Value*> inputs) {
    Node* n = ib.emitNode(kind, std::move(inputs), 1);
    n->attrs().set("view", Scalar(static_cast<std::int64_t>(OpKind::Select)));
    n->attrs().set("dim", Scalar(std::int64_t{0}));
    return n->output();
  };
  Value* xi = select(OpKind::Access, {lb->param(1), lb->param(0)});
  Node* group = ib.emitNode(OpKind::FusionGroup, {xi, c}, 0);
  Block* body = group->addBlock();
  Value* p = body->addParam(Type::tensor());
  Value* pc = body->addParam(Type::tensor());
  IRBuilder fb(g);
  fb.setInsertionPointToEnd(body);
  body->addReturn(fb.relu(fb.mul(p, pc)));
  Value* y = group->addOutput(Type::tensor());
  lb->addReturn(select(OpKind::Assign, {lb->param(1), y, lb->param(0)}));
  g.addOutput(loop->output(0));

  Rng rng(9);
  const std::vector<RtValue> inputs{RtValue(rng.uniform({4, 256, 256}, -1, 1)),
                                    RtValue(Tensor::scalar(Scalar(0.5)))};
  const auto want = wholeRun(g, inputs);
  std::vector<RtValue> got;
  const auto spans = fusionSpans(
      [&] { got = tiledRun(g, inputs, hwThreads(), /*planned=*/true); });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(sameBits(got[0].tensor(), want[0].tensor()));
  ASSERT_EQ(spans.size(), 4u);
  for (const auto& span : spans) {
    EXPECT_EQ(span.at("backend"), "\"tiled\"");
    EXPECT_EQ(span.at("tiles"), "4");
    EXPECT_EQ(span.at("workers"), "1");
  }
}

}  // namespace
}  // namespace tssa
