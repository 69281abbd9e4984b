// Micro-benchmarks: tensor-library primitives, interpreter dispatch, the
// analytic device model's per-op pricing (sanity anchors for the figures),
// per-op kernels at the shapes paper_nlp runs them (each checked bitwise
// against its per-element reference first), and fused-region execution on
// identical regions — the whole body (tensor/ops.h, one op at a time on
// whole tensors) and the tiled body (the executor), checked bitwise against
// each other (records feed the CI perf gate).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <functional>

#include "bench/bench_common.h"
#include "src/ir/builder.h"
#include "src/runtime/interpreter.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"
#include "tests/fusion_inline.h"
#include "tests/ops_reference.h"

namespace {

using namespace tssa;

void BM_TensorAdd(benchmark::State& state) {
  Rng rng(1);
  Tensor a = rng.uniform({state.range(0)});
  Tensor b = rng.uniform({state.range(0)});
  for (auto _ : state) {
    Tensor c = ops::add(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TensorAdd)->Arg(1024)->Arg(65536);

void BM_TensorSigmoid(benchmark::State& state) {
  Rng rng(2);
  Tensor a = rng.uniform({state.range(0)});
  for (auto _ : state) {
    Tensor c = ops::sigmoid(a);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TensorSigmoid)->Arg(1024)->Arg(65536);

void BM_TensorMatmul(benchmark::State& state) {
  Rng rng(3);
  const std::int64_t n = state.range(0);
  Tensor a = rng.uniform({n, n});
  Tensor b = rng.uniform({n, n});
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_TensorMatmul)->Arg(32)->Arg(128);

void BM_ViewSelectCopy(benchmark::State& state) {
  Rng rng(4);
  Tensor a = rng.uniform({64, 256});
  Tensor src = rng.uniform({256});
  for (auto _ : state) {
    a.select(0, 7).copy_(src);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ViewSelectCopy);

// Transposed (non-contiguous) operands exercise the typed strided loop of
// binaryOp/where/copy_ — before that fallback existed every element went
// through the double-boxing scalarAt/setScalarAt path. Compare against
// BM_TensorAdd at the same element count for the contiguous fast path.
void BM_TensorAddTransposed(benchmark::State& state) {
  Rng rng(6);
  const std::int64_t n = state.range(0);
  Tensor a = rng.uniform({n, n}).transpose(0, 1);
  Tensor b = rng.uniform({n, n});
  for (auto _ : state) {
    Tensor c = ops::add(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_TensorAddTransposed)->Arg(32)->Arg(256);

void BM_WhereTransposed(benchmark::State& state) {
  Rng rng(7);
  const std::int64_t n = state.range(0);
  Tensor cond =
      ops::gt(rng.uniform({n, n}), Tensor::full({}, Scalar(0.5)));
  Tensor a = rng.uniform({n, n}).transpose(0, 1);
  Tensor b = rng.uniform({n, n});
  for (auto _ : state) {
    Tensor c = ops::where(cond, a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_WhereTransposed)->Arg(256);

void BM_CopyTransposed(benchmark::State& state) {
  Rng rng(8);
  const std::int64_t n = state.range(0);
  Tensor dst = Tensor::zeros({n, n});
  Tensor src = rng.uniform({n, n}).transpose(0, 1);
  for (auto _ : state) {
    dst.copy_(src);
    benchmark::DoNotOptimize(dst);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_CopyTransposed)->Arg(256);

void BM_StridedSliceFill(benchmark::State& state) {
  Tensor a = Tensor::zeros({1 << 16});
  for (auto _ : state) {
    a.slice(0, 1, 1 << 16, 2).fill_(Scalar(1.0));
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_StridedSliceFill);

void BM_Softmax(benchmark::State& state) {
  Rng rng(5);
  Tensor a = rng.uniform({64, 256});
  for (auto _ : state) {
    Tensor s = ops::softmax(a, 1);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Softmax);

void BM_InterpreterDispatch(benchmark::State& state) {
  // A tiny pure graph: measures per-node interpreter overhead.
  ir::Graph g;
  ir::Value* a = g.addInput(ir::Type::tensor(), "a");
  ir::IRBuilder b(g);
  ir::Value* v = a;
  for (int i = 0; i < 16; ++i) v = b.relu(v);
  g.addOutput(v);
  runtime::Interpreter interp;
  std::vector<runtime::RtValue> in{runtime::RtValue(Tensor::ones({8}))};
  for (auto _ : state) {
    auto out = interp.run(g, in);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_InterpreterDispatch);

// ---- Fused-region: whole body vs tiled body ----------------------------------

/// `sigmoid(p0 * p1 + p2) * relu(p0 - p2)` — a pure elementwise chain; all
/// inputs contiguous and shape-equal.
ir::Block* buildEwiseBody(ir::Graph& g) {
  ir::Value* in0 = g.addInput(ir::Type::tensor());
  ir::Value* in1 = g.addInput(ir::Type::tensor());
  ir::Value* in2 = g.addInput(ir::Type::tensor());
  ir::IRBuilder b(g);
  ir::Node* group = b.emitNode(ir::OpKind::FusionGroup, {in0, in1, in2}, 0);
  ir::Block* body = group->addBlock();
  ir::Value* p0 = body->addParam(in0->type());
  ir::Value* p1 = body->addParam(in1->type());
  ir::Value* p2 = body->addParam(in2->type());
  ir::IRBuilder inner(g);
  inner.setInsertionPointToEnd(body);
  ir::Value* s = inner.sigmoid(inner.add(inner.mul(p0, p1), p2));
  body->addReturn(inner.mul(s, inner.relu(inner.sub(p0, p2))));
  group->addOutput(ir::Type::tensor());
  g.addOutput(group->output(0));
  return body;
}

/// `relu(transpose(p0) + p1) * p1` with an Access view: the tiles read a
/// strided view of p0.
ir::Block* buildViewBody(ir::Graph& g) {
  ir::Value* in0 = g.addInput(ir::Type::tensor());
  ir::Value* in1 = g.addInput(ir::Type::tensor());
  ir::IRBuilder b(g);
  ir::Node* group = b.emitNode(ir::OpKind::FusionGroup, {in0, in1}, 0);
  ir::Block* body = group->addBlock();
  ir::Value* p0 = body->addParam(in0->type());
  ir::Value* p1 = body->addParam(in1->type());
  ir::IRBuilder inner(g);
  inner.setInsertionPointToEnd(body);
  ir::Node* tr = inner.emitNode(ir::OpKind::Access, {p0}, 1);
  tr->attrs().set("view",
                  Scalar(static_cast<std::int64_t>(ir::OpKind::Transpose)));
  tr->attrs().set("dim0", Scalar(0));
  tr->attrs().set("dim1", Scalar(1));
  body->addReturn(
      inner.mul(inner.relu(inner.add(tr->output(), p1)), p1));
  group->addOutput(ir::Type::tensor());
  g.addOutput(group->output(0));
  return body;
}

/// seq2seq's per-step log-softmax: `out[:, i] = log(softmax(x, 1) * 0.98 +
/// 1e-9)`, functionalized into an Access and in-place Assigns through
/// `select` of the [B, T, V] `out` param. Inputs: out, i, x.
ir::Block* buildLogSoftmaxRowsBody(ir::Graph& g) {
  ir::Value* out = g.addInput(ir::Type::tensor());
  ir::Value* index = g.addInput(ir::Type::integer());
  ir::Value* x = g.addInput(ir::Type::tensor());
  ir::IRBuilder b(g);
  ir::Value* penalty = b.constTensor(Tensor::full({}, Scalar(0.98)));
  ir::Value* eps = b.constTensor(Tensor::full({}, Scalar(1e-9)));
  ir::Node* group =
      b.emitNode(ir::OpKind::FusionGroup, {out, index, x, penalty, eps}, 0);
  ir::Block* body = group->addBlock();
  ir::Value* pOut = body->addParam(out->type());
  ir::Value* pIndex = body->addParam(index->type());
  ir::Value* pX = body->addParam(x->type());
  ir::Value* pPenalty = body->addParam(penalty->type());
  ir::Value* pEps = body->addParam(eps->type());
  ir::IRBuilder inner(g);
  inner.setInsertionPointToEnd(body);
  auto immut = [&](ir::OpKind kind, ir::OpKind rule,
                   std::vector<ir::Value*> inputs) {
    ir::Node* n = inner.emitNode(kind, std::move(inputs), 1);
    n->attrs().set("view", Scalar(static_cast<std::int64_t>(rule)));
    return n;
  };
  ir::Node* row = immut(ir::OpKind::Access, ir::OpKind::Select, {pOut, pIndex});
  row->attrs().set("dim", Scalar(1));
  ir::Value* logp = inner.log(
      inner.add(inner.mul(inner.softmax(pX, 1), pPenalty), pEps));
  ir::Node* fill =
      immut(ir::OpKind::Assign, ir::OpKind::Identity, {row->output(), logp});
  fill->attrs().set("inplace", Scalar(true));
  ir::Node* write = immut(ir::OpKind::Assign, ir::OpKind::Select,
                          {pOut, fill->output(), pIndex});
  write->attrs().set("dim", Scalar(1));
  write->attrs().set("inplace", Scalar(true));
  body->addReturn(write->output());
  group->addOutput(ir::Type::tensor());
  g.addOutput(group->output(0));
  return body;
}

/// Best-of-`reps` mean ns per `runOnce()` over `iters` runs.
template <typename Fn>
double bestNsPerIter(Fn&& runOnce, int iters, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      auto out = runOnce();
      benchmark::DoNotOptimize(out);
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::nano>(t1 - t0).count() /
                        iters);
  }
  return best;
}

void runFusedRegionBench(const bench::BenchFlags& flags,
                         bench::BenchReport& report) {
  namespace ref = testing_support::reference;
  struct Case {
    const char* name;
    ir::Block* (*build)(ir::Graph&);
    std::size_t numInputs;
  };
  const Case cases[] = {{"ewise", buildEwiseBody, 3},
                        {"views", buildViewBody, 2}};
  std::printf(
      "\n=== Fused-region ns/iter: whole body vs tiled body ===\n");
  auto fail = [](const char* name, const char* what) {
    std::fprintf(stderr, "fused_region/%s: %s\n", name, what);
    std::exit(1);
  };
  // `wholeNs` is 0 for the whole-body leg itself: it is tracked for the
  // ratios, not gated.
  auto record = [&](const char* name, const char* leg, const char* pipeline,
                    double ns, double wholeNs) {
    bench::BenchRecord r;
    r.name = std::string("fused_region/") + name + "/" + leg;
    r.workload = "micro";
    r.pipeline = pipeline;
    r.nsPerIter = ns;
    r.timeGated = wholeNs > 0;
    if (r.timeGated) r.extra.emplace_back("speedup_vs_interp", wholeNs / ns);
    report.add(std::move(r));
  };
  for (const Case& c : cases) {
    ir::Graph g;
    c.build(g);
    const std::unique_ptr<ir::Graph> whole =
        testing_support::inlineFusionGroups(g);
    Rng rng(42);
    std::vector<runtime::RtValue> inputs;
    for (std::size_t i = 0; i < c.numInputs; ++i)
      inputs.emplace_back(rng.uniform({256, 256}, -1, 1));

    // 256 KiB regions: the tiled leg runs four tiles, serially.
    runtime::Interpreter interp;
    auto runWhole = [&] { return interp.run(*whole, inputs); };
    auto runTiled = [&] { return interp.run(g, inputs); };
    const Tensor want = runWhole()[0].tensor();
    if (!ref::sameBits(runTiled()[0].tensor(), want))
      fail(c.name, "tiled and whole body disagree");
    const double wholeNs = bestNsPerIter(runWhole, 3, flags.reps);
    const double tiledNs = bestNsPerIter(runTiled, 3, flags.reps);
    std::printf("  %-8s interp=%12.0f ns  tiled=%12.0f ns  speedup=%6.2fx\n",
                c.name, wholeNs, tiledNs, wholeNs / tiledNs);
    record(c.name, "interp", "texpr_interp", wholeNs, 0);
    record(c.name, "tiled", "texpr_tiled", tiledNs, wholeNs);
  }

  // seq2seq's log-softmax step on [8, 12288] rows written through select
  // into [8, 64, 12288]: the tiled body cuts the batch dim into 8 one-row
  // tiles, across the pool at threads 4.
  ir::Graph g;
  buildLogSoftmaxRowsBody(g);
  const std::unique_ptr<ir::Graph> whole =
      testing_support::inlineFusionGroups(g);
  Rng rng(42);
  const std::vector<runtime::RtValue> inputs{
      runtime::RtValue(Tensor::zeros({8, 64, 12288})),
      runtime::RtValue(std::int64_t{5}),
      runtime::RtValue(rng.normal({8, 12288}, 0.0, 2.0))};
  Tensor want;
  for (const int threads : {1, 4}) {
    runtime::Interpreter wholeInterp(threads);
    runtime::Interpreter tiledInterp(threads);
    auto runWhole = [&] { return wholeInterp.run(*whole, inputs); };
    auto runTiled = [&] { return tiledInterp.run(g, inputs); };
    if (!want.defined()) want = runWhole()[0].tensor().clone();
    if (!ref::sameBits(runTiled()[0].tensor(), want))
      fail("logsoftmax_rows", "tiled and whole body disagree");
    const double wholeNs = bestNsPerIter(runWhole, 10, flags.reps);
    const double tiledNs = bestNsPerIter(runTiled, 10, flags.reps);
    const std::string t = "_t" + std::to_string(threads);
    std::printf("  %-8s interp=%12.0f ns  tiled=%12.0f ns  speedup=%6.2fx "
                "(threads=%d)\n",
                "logsoftmax_rows", wholeNs, tiledNs, wholeNs / tiledNs,
                threads);
    record("logsoftmax_rows", ("interp" + t).c_str(), "texpr_interp", wholeNs,
           0);
    record("logsoftmax_rows", ("tiled" + t).c_str(), "texpr_tiled", tiledNs,
           wholeNs);
  }
}

// ---- Per-op kernels at paper_nlp's shapes -------------------------------------

/// One leg: `run` is timed; before that its result must match `reference`,
/// the per-element formulation of tests/ops_reference.h, bitwise.
/// `timeGated` legs fail CI's gate when they slow down, as the
/// transcendentals do if their row loop stops vectorizing.
struct KernelLeg {
  const char* name;
  int iters;
  std::function<Tensor()> run;
  std::function<Tensor()> reference;
  bool timeGated = false;
};

void runKernelBench(const bench::BenchFlags& flags,
                    bench::BenchReport& report) {
  namespace ref = testing_support::reference;
  Rng rng(11);
  const Tensor h = rng.normal({8, 32});
  const Tensor w = rng.normal({32, 12288}, 0.0, 0.2);
  const Tensor logits = rng.normal({8, 12288}, 0.0, 2.0);
  const Tensor rowMax = ops::maxReduce(logits, 1, /*keepDim=*/true);
  const Tensor probs = ops::softmax(logits, 1);
  const Tensor mid = rng.normal({8, 64, 256});
  Tensor outBuf = Tensor::zeros({8, 64, 12288});
  const auto softmaxRef = [&] {
    const Tensor m = ref::refReduce(logits, 1, true, ref::Reduce::Max);
    const Tensor e = ref::refUnary(
        ref::refBinary(logits, m, DType::Float32,
                       [](double x, double y) { return x - y; }),
        DType::Float32, ref::refExp);
    const Tensor s = ref::refReduce(e, 1, true, ref::Reduce::Sum);
    return ref::refBinary(e, s, DType::Float32,
                          [](double x, double y) { return x / y; });
  };
  const auto unaryRef = [](const Tensor& x, double (*fn)(double)) {
    return [&x, fn] { return ref::refUnary(x, DType::Float32, fn); };
  };
  const auto copyRef = [&] {
    Tensor out = outBuf.clone();
    Tensor view = out.select(1, 5);
    ref::refCopy(view, logits);
    return out;
  };
  const KernelLeg legs[] = {
      {"matmul_8x32x12288", 20, [&] { return ops::matmul(h, w); },
       [&] { return ref::refMatmul(h, w); }},
      {"softmax_8x12288", 10, [&] { return ops::softmax(logits, 1); },
       softmaxRef},
      {"exp_8x12288", 20, [&] { return ops::exp(logits); },
       unaryRef(logits, ref::refExp), true},
      {"log_8x12288", 20, [&] { return ops::log(probs); },
       unaryRef(probs, ref::refLog), true},
      {"tanh_8x12288", 20, [&] { return ops::tanh(logits); },
       unaryRef(logits, ref::refTanh), true},
      {"sigmoid_8x12288", 20, [&] { return ops::sigmoid(logits); },
       unaryRef(logits, ref::refSigmoid), true},
      {"sum_mid_8x64x256", 20, [&] { return ops::sum(mid, 1); },
       [&] { return ref::refReduce(mid, 1, false, ref::Reduce::Sum); }},
      {"sub_bcast_8x12288", 50, [&] { return ops::sub(logits, rowMax); },
       [&] {
         return ref::refBinary(logits, rowMax, DType::Float32,
                               [](double x, double y) { return x - y; });
       }},
      {"copy_select_8x64x12288", 50,
       [&] {
         outBuf.select(1, 5).copy_(logits);
         return outBuf;
       },
       copyRef},
      {"cast_f32_i64_8x12288", 50,
       [&] { return logits.to(DType::Int64); },
       [&] { return ref::refTo(logits, DType::Int64); }},
  };
  std::printf("\n=== Per-op kernels (ns/iter, checked bitwise first) ===\n");
  for (const KernelLeg& leg : legs) {
    const Tensor got = leg.run();
    if (!ref::sameBits(got, leg.reference())) {
      std::fprintf(stderr, "kernel/%s: result differs from the reference\n",
                   leg.name);
      std::exit(1);
    }
    const double ns = bestNsPerIter(leg.run, leg.iters, flags.reps);
    std::printf("  %-24s %12.0f ns\n", leg.name, ns);
    bench::BenchRecord record;
    record.name = std::string("kernel/") + leg.name;
    record.workload = "micro";
    record.pipeline = "ops";
    record.nsPerIter = ns;
    record.timeGated = leg.timeGated;
    report.add(std::move(record));
  }
}

void printDeviceModelAnchors() {
  std::printf("\n=== Device-model anchors (per-kernel cost in us) ===\n");
  for (const auto& device : {runtime::DeviceSpec::consumer(),
                             runtime::DeviceSpec::dataCenter()}) {
    std::printf("%-18s launch=%.1fus", device.name.c_str(),
                device.launchOverheadUs);
    std::printf("  1MB-memcpy=%.2fus", device.kernelTimeUs(1 << 20, 0));
    std::printf("  1GFLOP=%.1fus\n", device.kernelTimeUs(0, 1'000'000'000));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const tssa::bench::BenchFlags flags = tssa::bench::BenchFlags::parse(argc, argv);
  tssa::bench::BenchReport report("micro_ops", flags);
  printDeviceModelAnchors();
  runKernelBench(flags, report);
  runFusedRegionBench(flags, report);
  report.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
