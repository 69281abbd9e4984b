// Pipeline pricing (src/runtime/pipeline.h): a run is priced by the cost walk
// (src/analysis/cost.h), memoized per input signature, and its launch probe
// fires once per modelled launch before the program executes. The memo must
// be invisible: a memoized run reports bit for bit what a cold walk and a
// fresh Pipeline report at that shape, also once the memo is full and
// replaces entries. profiler() reads the memoized report of the last run.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/cost.h"
#include "src/runtime/pipeline.h"
#include "src/workloads/workload.h"
#include "tests/ops_reference.h"

namespace tssa {
namespace {

using analysis::CostReport;
using runtime::Pipeline;
using runtime::PipelineKind;
using runtime::PipelineOptions;
using runtime::Profiler;
using runtime::RtValue;
using workloads::Workload;
using workloads::WorkloadConfig;

WorkloadConfig symbolicConfig(std::int64_t batch, std::int64_t seqLen) {
  WorkloadConfig c;
  c.batch = batch;
  c.seqLen = seqLen;
  c.symbolicDims = true;
  return c;
}

/// Every Profiler number equals the report's, doubles compared by value
/// (bit for bit for the finite values they hold).
void expectSameNumbers(const Profiler& p, const CostReport& r,
                       const std::string& label) {
  EXPECT_TRUE(r.exact()) << label;
  EXPECT_EQ(p.kernelLaunches(), r.launches) << label;
  EXPECT_EQ(p.bytesMoved(), r.bytes) << label;
  EXPECT_EQ(p.flops(), r.flops) << label;
  EXPECT_EQ(p.gpuTimeUs(), r.gpuUs) << label;
  EXPECT_EQ(p.hostTimeUs(), r.hostUs) << label;
  EXPECT_EQ(p.simTimeUs(), r.simUs) << label;
  EXPECT_EQ(p.kernelHistogram(), r.perKernel) << label;
}

/// The Profiler's numbers in report form.
CostReport reportOf(const Profiler& p) {
  CostReport r;
  r.launches = p.kernelLaunches();
  r.bytes = p.bytesMoved();
  r.flops = p.flops();
  r.gpuUs = p.gpuTimeUs();
  r.hostUs = p.hostTimeUs();
  r.simUs = p.simTimeUs();
  r.perKernel = p.kernelHistogram();
  return r;
}

TEST(PipelinePricingTest, MemoizedRunsMatchColdPricingAtAlternatingShapes) {
  const std::vector<std::pair<std::int64_t, std::int64_t>> shapes = {
      {1, 4}, {3, 7}, {1, 4}, {2, 5}, {3, 7}, {2, 5}, {1, 4}};
  const PipelineOptions options;
  const Workload first = workloads::buildWorkload(
      "lstm", symbolicConfig(shapes[0].first, shapes[0].second));
  Pipeline pipeline(PipelineKind::TensorSsa, *first.graph, options);

  analysis::CostOptions costOptions;
  costOptions.device = options.device;
  costOptions.host = runtime::hostSpecFor(PipelineKind::TensorSsa);
  std::vector<Workload> runs;
  std::vector<CostReport> cold;
  for (const auto& [batch, seqLen] : shapes) {
    const std::string label =
        "b" + std::to_string(batch) + "/t" + std::to_string(seqLen);
    runs.push_back(
        workloads::buildWorkload("lstm", symbolicConfig(batch, seqLen)));
    const Workload& w = runs.back();
    pipeline.run(w.inputs);
    cold.push_back(analysis::estimateCost(
        pipeline.compiled(), analysis::costInputs(w.inputs), costOptions));
    expectSameNumbers(pipeline.profiler(), cold.back(), label + " vs walk");

    Pipeline fresh(PipelineKind::TensorSsa, *w.graph, options);
    fresh.run(w.inputs);
    expectSameNumbers(pipeline.profiler(), reportOf(fresh.profiler()),
                      label + " vs fresh pipeline");
  }
  // The shapes differ in price, so a stale memo entry would show.
  EXPECT_NE(cold[0].launches, cold[1].launches);
}

TEST(PipelinePricingTest, MemoStaysInvisiblePastItsCapacity) {
  // 40 distinct signatures through one Pipeline: more than the memo holds
  // (32), so later ones replace earlier ones round-robin. Revisiting the
  // first shapes prices them again and replaces entries the profiler may
  // no longer point at.
  std::vector<std::pair<std::int64_t, std::int64_t>> shapes;
  for (std::int64_t batch : {1, 2})
    for (std::int64_t seqLen = 1; seqLen <= 20; ++seqLen)
      shapes.emplace_back(batch, seqLen);
  const PipelineOptions options;
  const Workload first = workloads::buildWorkload(
      "lstm", symbolicConfig(shapes[0].first, shapes[0].second));
  Pipeline pipeline(PipelineKind::TensorSsa, *first.graph, options);
  expectSameNumbers(pipeline.profiler(), CostReport{}, "before any run");

  analysis::CostOptions costOptions;
  costOptions.device = options.device;
  costOptions.host = runtime::hostSpecFor(PipelineKind::TensorSsa);
  std::vector<std::size_t> order(shapes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i : {0, 1, 2, 3, 4, 5, 6, 7, 39, 20, 0}) order.push_back(i);
  for (std::size_t i : order) {
    const auto [batch, seqLen] = shapes[i];
    const std::string label =
        "b" + std::to_string(batch) + "/t" + std::to_string(seqLen);
    const Workload w =
        workloads::buildWorkload("lstm", symbolicConfig(batch, seqLen));
    pipeline.run(w.inputs);
    expectSameNumbers(
        pipeline.profiler(),
        analysis::estimateCost(pipeline.compiled(),
                               analysis::costInputs(w.inputs), costOptions),
        label);
  }
  ASSERT_GT(pipeline.profiler().kernelLaunches(), 0);

  // A run refused by its launch probe executes nothing and reports nothing,
  // memoized signature or not.
  pipeline.setLaunchProbe(
      [] { throw std::runtime_error("injected launch failure"); });
  for (std::size_t i : {std::size_t{0}, std::size_t{10}}) {
    const Workload w = workloads::buildWorkload(
        "lstm", symbolicConfig(shapes[i].first, shapes[i].second));
    EXPECT_THROW(pipeline.run(w.inputs), std::runtime_error);
    expectSameNumbers(pipeline.profiler(), CostReport{},
                      "after a refused run");
  }
}

TEST(PipelinePricingTest, LaunchProbeFiresOncePerModelledLaunch) {
  WorkloadConfig config;
  config.batch = 2;
  config.seqLen = 6;
  const Workload w = workloads::buildWorkload("attention", config);
  const PipelineOptions options;
  Pipeline reference(PipelineKind::TensorSsa, *w.graph, options);
  const std::vector<RtValue> want = reference.run(w.inputs);
  const std::int64_t launches = reference.profiler().kernelLaunches();
  const double simUs = reference.profiler().simTimeUs();
  ASSERT_GT(launches, 2);

  // The first run of a pipeline prices its signature cold; later runs hit
  // the memo. The probe counts the same either way.
  Pipeline pipeline(PipelineKind::TensorSsa, *w.graph, options);
  std::int64_t fired = 0;
  pipeline.setLaunchProbe([&fired] { ++fired; });
  for (int run = 0; run < 3; ++run) {
    fired = 0;
    pipeline.run(w.inputs);
    EXPECT_EQ(fired, launches) << "run " << run;
    EXPECT_EQ(pipeline.profiler().kernelLaunches(), launches) << "run " << run;
  }

  // A probe that throws on launch k fails the run, cold or memoized; the
  // next run, with the probe cleared, reports full numbers.
  const std::int64_t k = launches / 2;
  for (const bool cold : {true, false}) {
    Pipeline failing(PipelineKind::TensorSsa, *w.graph, options);
    if (!cold) failing.run(w.inputs);
    fired = 0;
    failing.setLaunchProbe([&fired, k] {
      if (++fired == k) throw std::runtime_error("injected launch failure");
    });
    EXPECT_THROW(failing.run(w.inputs), std::runtime_error);
    EXPECT_EQ(fired, k);
    failing.setLaunchProbe(nullptr);
    const std::vector<RtValue> got = failing.run(w.inputs);
    EXPECT_EQ(failing.profiler().kernelLaunches(), launches);
    EXPECT_EQ(failing.profiler().simTimeUs(), simUs);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!got[i].isTensor()) continue;
      EXPECT_TRUE(testing_support::reference::sameBits(got[i].tensor(),
                                                       want[i].tensor()));
    }
  }
}

}  // namespace
}  // namespace tssa
