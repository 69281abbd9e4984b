// Tests for the config autotuner (src/tune, ROADMAP item 5).
//
// The properties a tuner must not be allowed to fudge:
//   * determinism — the same seed replays the same search to the same
//     config, so a tuned deployment is reproducible;
//   * honesty of the analytic phase — the winner's modelled latency is
//     never above the default's, because the default seeds the search;
//   * semantic neutrality — a tuned config changes scheduling only, so
//     tuned and default programs are bitwise identical on every workload,
//     across thread counts;
//   * safe failure — an online rejection (recorded fault or sustained
//     regression) falls the entry back to the default heuristics instead
//     of sticking with a bad config.
// TuneConcurrencyTest runs under TSan in CI: serving threads record
// measurements while readers snapshot online stats and resolve configs.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/runtime/pipeline.h"
#include "src/runtime/thread_pool.h"
#include "src/tune/tuner.h"
#include "src/workloads/workload.h"

namespace tssa {
namespace {

using runtime::PipelineKind;
using runtime::PipelineOptions;
using tune::Autotuner;
using tune::TunedConfig;
using tune::TuneResult;
using tune::TunerOptions;

TunerOptions fastSearch(std::uint64_t seed = 7) {
  TunerOptions opts;
  opts.seed = seed;
  opts.searchSteps = 12;
  opts.measure = false;  // analytic only: fully deterministic, no timing
  return opts;
}

workloads::WorkloadConfig smallConfig() {
  workloads::WorkloadConfig config;
  config.batch = 2;
  config.seqLen = 8;
  return config;
}

TEST(TuneTest, SearchIsDeterministicUnderSeed) {
  const workloads::WorkloadConfig config = smallConfig();
  const PipelineOptions base;
  for (const std::string& name : workloads::workloadNames()) {
    Autotuner a(fastSearch(42));
    Autotuner b(fastSearch(42));
    const TuneResult ra = a.tune(name, config, PipelineKind::TensorSsa, base);
    const TuneResult rb = b.tune(name, config, PipelineKind::TensorSsa, base);
    EXPECT_EQ(ra.config, rb.config) << name;
    EXPECT_EQ(ra.evaluated, rb.evaluated) << name;
    EXPECT_DOUBLE_EQ(ra.tunedSimUs, rb.tunedSimUs) << name;
    EXPECT_DOUBLE_EQ(ra.defaultSimUs, rb.defaultSimUs) << name;
  }
}

TEST(TuneTest, AnalyticWinnerNeverWorseThanDefault) {
  const workloads::WorkloadConfig config = smallConfig();
  const PipelineOptions base;
  Autotuner tuner(fastSearch());
  for (const std::string& name : workloads::workloadNames()) {
    for (PipelineKind kind :
         {PipelineKind::TensorSsa, PipelineKind::TorchScriptNnc}) {
      const TuneResult r = tuner.tune(name, config, kind, base);
      EXPECT_LE(r.tunedSimUs, r.defaultSimUs)
          << name << "/" << runtime::pipelineName(kind);
      EXPECT_GT(r.evaluated, 1) << name;
      EXPECT_FALSE(r.measurementFailed) << name;
    }
  }
}

TEST(TuneTest, TunedAndDefaultAreBitwiseIdenticalOnAllWorkloads) {
  const workloads::WorkloadConfig config = smallConfig();
  const PipelineOptions base;
  Autotuner tuner(fastSearch());
  const int hw = std::max(2, runtime::ThreadPool::hardwareThreads());
  for (const std::string& name : workloads::workloadNames()) {
    tuner.tune(name, config, PipelineKind::TensorSsa, base);
    const workloads::Workload w = workloads::buildWorkload(name, config);
    runtime::Pipeline reference(PipelineKind::TensorSsa, *w.graph, base);
    const auto expected = reference.run(w.inputs);

    // The tuned config, then the tuned config crossed with every
    // wall-clock-only knob the measured shortlist may flip: all must
    // reproduce the default bit-for-bit.
    PipelineOptions tuned =
        tuner.pipelineFor(name, PipelineKind::TensorSsa, base);
    std::vector<PipelineOptions> variants = {tuned};
    for (const int threads : {1, hw}) {
      PipelineOptions v = tuned;
      v.threads = threads;
      variants.push_back(v);
    }
    for (const std::size_t cap : {std::size_t{2}, std::size_t{4}}) {
      PipelineOptions v = tuned;
      v.fusionMaxOps = cap;
      variants.push_back(v);
    }
    {
      PipelineOptions v = tuned;
      v.parallelizeMask = 0;
      variants.push_back(v);
    }
    for (const PipelineOptions& v : variants) {
      runtime::Pipeline pipeline(PipelineKind::TensorSsa, *w.graph, v);
      const auto got = pipeline.run(w.inputs);
      EXPECT_TRUE(bench::outputsBitwiseEqual(expected, got))
          << name << " threads=" << v.threads;
    }
  }
}

TEST(TuneTest, UntunedWorkloadKeepsBaseOptions) {
  Autotuner tuner(fastSearch());
  PipelineOptions base;
  base.threads = 3;
  const PipelineOptions resolved =
      tuner.pipelineFor("yolov3", PipelineKind::TensorSsa, base);
  EXPECT_EQ(runtime::hashValue(resolved), runtime::hashValue(base));
  const Autotuner::BatchOverride bo =
      tuner.batchOverride("yolov3", PipelineKind::TensorSsa);
  EXPECT_EQ(bo.maxBatch, 0);
  EXPECT_LT(bo.maxWaitUs, 0);
}

TEST(TuneTest, RecordedFailureRejectsAndFallsBackToDefaults) {
  const PipelineOptions base;
  Autotuner tuner(fastSearch());
  tuner.tune("attention", smallConfig(), PipelineKind::TensorSsa, base);
  ASSERT_TRUE(tuner.result("attention", PipelineKind::TensorSsa).has_value());

  tuner.recordFailure("attention", PipelineKind::TensorSsa);
  const Autotuner::OnlineStats stats =
      tuner.onlineStats("attention", PipelineKind::TensorSsa);
  EXPECT_TRUE(stats.hasEntry);
  EXPECT_TRUE(stats.rejected);
  // Rejected ⇒ serving resolves the untouched base options again, not the
  // tuned config — the bad config does not stick.
  const PipelineOptions resolved =
      tuner.pipelineFor("attention", PipelineKind::TensorSsa, base);
  EXPECT_EQ(runtime::hashValue(resolved), runtime::hashValue(base));
}

TEST(TuneTest, SustainedOnlineRegressionRejectsTunedEntry) {
  TunerOptions opts;
  opts.seed = 5;
  opts.searchSteps = 8;
  opts.measure = true;  // rejection compares against the measured default
  opts.measureReps = 1;
  opts.minOnlineSamples = 2;
  opts.rejectRatio = 1.5;
  Autotuner tuner(opts);
  const PipelineOptions base;
  const TuneResult r =
      tuner.tune("lstm", smallConfig(), PipelineKind::TensorSsa, base);
  ASSERT_FALSE(r.measurementFailed);
  ASSERT_GT(r.defaultNsPerIter, 0.0);

  // Two served samples at 1000× the measured default: mean blows past
  // rejectRatio, the entry flips to rejected, serving returns to base.
  const double awful = r.defaultNsPerIter * 1000.0;
  tuner.recordMeasurement("lstm", PipelineKind::TensorSsa, awful);
  EXPECT_FALSE(tuner.onlineStats("lstm", PipelineKind::TensorSsa).rejected);
  tuner.recordMeasurement("lstm", PipelineKind::TensorSsa, awful);
  const Autotuner::OnlineStats stats =
      tuner.onlineStats("lstm", PipelineKind::TensorSsa);
  EXPECT_TRUE(stats.rejected);
  EXPECT_EQ(stats.samples, 2u);
  const PipelineOptions resolved =
      tuner.pipelineFor("lstm", PipelineKind::TensorSsa, base);
  EXPECT_EQ(runtime::hashValue(resolved), runtime::hashValue(base));
}

TEST(TuneTest, HealthyOnlineSamplesKeepTunedEntry) {
  TunerOptions opts;
  opts.seed = 5;
  opts.searchSteps = 8;
  opts.measure = true;
  opts.measureReps = 1;
  opts.minOnlineSamples = 2;
  Autotuner tuner(opts);
  const PipelineOptions base;
  const TuneResult r =
      tuner.tune("lstm", smallConfig(), PipelineKind::TensorSsa, base);
  ASSERT_GT(r.defaultNsPerIter, 0.0);
  for (int i = 0; i < 16; ++i)
    tuner.recordMeasurement("lstm", PipelineKind::TensorSsa,
                            r.defaultNsPerIter * 0.5);
  EXPECT_FALSE(tuner.onlineStats("lstm", PipelineKind::TensorSsa).rejected);
}

// Run under TSan in CI: recordMeasurement appends to the sample window while
// other threads snapshot onlineStats and resolve configs. The stats snapshot
// is taken under the entry lock (the race this test pinned down).
TEST(TuneConcurrencyTest, OnlineRecordingRacesWithReaders) {
  Autotuner tuner(fastSearch());
  const PipelineOptions base;
  tuner.tune("attention", smallConfig(), PipelineKind::TensorSsa, base);

  constexpr int kWriters = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&tuner, t] {
      for (int i = 0; i < kPerThread; ++i)
        tuner.recordMeasurement("attention", PipelineKind::TensorSsa,
                                1000.0 + t * 17 + i);
    });
  }
  threads.emplace_back([&tuner, &base] {
    for (int i = 0; i < kWriters * kPerThread; ++i) {
      const Autotuner::OnlineStats stats =
          tuner.onlineStats("attention", PipelineKind::TensorSsa);
      ASSERT_TRUE(stats.hasEntry);
      if (stats.samples > 0) {
        ASSERT_GT(stats.meanNsPerIter, 0.0);
      }
      (void)tuner.pipelineFor("attention", PipelineKind::TensorSsa, base);
      (void)tuner.batchOverride("attention", PipelineKind::TensorSsa);
    }
  });
  for (std::thread& th : threads) th.join();

  const Autotuner::OnlineStats stats =
      tuner.onlineStats("attention", PipelineKind::TensorSsa);
  EXPECT_TRUE(stats.hasEntry);
  EXPECT_GT(stats.samples, 0u);  // window is bounded, but never empty here
}

}  // namespace
}  // namespace tssa
