// Serving-tier integration of the autotuner (src/tune × src/serve):
//   (a) the tuned config is part of the program-cache key — two keys that
//       differ only in tuned knobs never collide (distinct toString, two
//       compiles), so a config change can never serve a stale program;
//   (b) cache-affinity survives tuning — a 4-shard Router with a tuner
//       installed still compiles each key exactly once tier-wide, and its
//       responses stay bitwise identical to an untuned single engine's;
//   (c) a tuner-measurement failure (injected kernel fault during the
//       measured shortlist) installs the default config: serving proceeds
//       on the default heuristics, not on an unmeasured candidate.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/fault_injector.h"
#include "src/serve/program_cache.h"
#include "src/serve/router.h"
#include "src/tensor/random.h"
#include "src/tune/tuner.h"
#include "src/workloads/workload.h"

namespace tssa {
namespace {

using runtime::PipelineKind;
using runtime::PipelineOptions;
using runtime::RtValue;
using serve::Engine;
using serve::EngineOptions;
using serve::FaultInjector;
using serve::ProgramCache;
using serve::ProgramKey;
using serve::Request;
using serve::Response;
using serve::Router;
using serve::RouterOptions;
using tune::Autotuner;
using tune::TunedConfig;
using tune::TuneResult;
using tune::TunerOptions;
using workloads::WorkloadConfig;

WorkloadConfig smallConfig(std::int64_t batch = 2, std::int64_t seqLen = 8) {
  WorkloadConfig c;
  c.batch = batch;
  c.seqLen = seqLen;
  return c;
}

std::vector<RtValue> randomInputs(const std::string& workload,
                                  const WorkloadConfig& config,
                                  std::uint64_t dataSeed) {
  std::vector<RtValue> inputs = Engine::defaultInputs(workload, config);
  Rng rng(dataSeed);
  for (RtValue& v : inputs) {
    if (!v.isTensor() || v.tensor().dtype() != DType::Float32) continue;
    Tensor fresh = rng.normal(v.tensor().sizes(), 0.0, 0.5);
    v = RtValue(fresh);
  }
  return inputs;
}

TunerOptions analyticOnly() {
  TunerOptions opts;
  opts.measure = false;
  return opts;
}

// ---- (a) tuned knobs split the cache key -----------------------------------

TEST(ServeTuneTest, DistinctTunedConfigsNeverCollideInProgramCache) {
  const WorkloadConfig config = smallConfig();
  const workloads::Workload w = workloads::buildWorkload("lstm", config);

  ProgramKey base;
  base.workload = "lstm";
  base.kind = PipelineKind::TensorSsa;
  base.signature = "f32[2,8,128];f32[2,32];f32[2,32]";

  // Three configs that differ only in tuned pipeline knobs.
  ProgramKey cappedFusion = base;
  cappedFusion.options.fusionMaxOps = 4;
  ProgramKey serialLoops = base;
  serialLoops.options.parallelize = false;

  EXPECT_NE(base.toString(), cappedFusion.toString());
  EXPECT_NE(base.toString(), serialLoops.toString());
  EXPECT_NE(cappedFusion.toString(), serialLoops.toString());
  EXPECT_FALSE(base == cappedFusion);
  EXPECT_FALSE(cappedFusion == serialLoops);

  ProgramCache cache(/*capacity=*/8, /*negativeTtlUs=*/0);
  int compiles = 0;
  auto compileFor = [&](const ProgramKey& key) {
    return cache.getOrCompile(key, [&] {
      ++compiles;
      return std::make_unique<runtime::Pipeline>(key.kind, *w.graph,
                                                 key.options);
    });
  };
  for (const ProgramKey* key : {&base, &cappedFusion, &serialLoops}) {
    const ProgramCache::Lookup lookup = compileFor(*key);
    ASSERT_EQ(lookup.error, nullptr);
  }
  EXPECT_EQ(compiles, 3);  // one compile per distinct config, no collision
  // Re-looking-up each key hits its own entry — no cross-config eviction
  // or sharing.
  for (const ProgramKey* key : {&base, &cappedFusion, &serialLoops})
    EXPECT_TRUE(compileFor(*key).hit);
  EXPECT_EQ(compiles, 3);
}

// ---- (b) tier-wide single compile + bitwise parity under tuning ------------

TEST(ServeTuneTest, RouterKeepsOneCompilePerKeyWithTuningEnabled) {
  const std::vector<std::string> names = {"lstm", "attention", "seq2seq"};
  Autotuner tuner(analyticOnly());
  const PipelineOptions base;
  for (const std::string& name : names)
    tuner.tune(name, smallConfig(), PipelineKind::TensorSsa, base);

  auto runAll = [&](Router& router) {
    for (const std::string& name : names) {
      for (std::int64_t batch : {1, 2}) {  // polymorphic: one key per workload
        Request r;
        r.workload = name;
        r.config = smallConfig(batch, 8);
        router.submit(r).get();
      }
    }
  };

  RouterOptions one;
  one.shards = 1;
  one.engine.tuner = &tuner;
  Router router1(one);
  runAll(router1);
  std::uint64_t compiles1 = 0;
  for (const auto& snap : router1.shardMetrics())
    compiles1 += snap.cacheCompiles;

  RouterOptions four;
  four.shards = 4;
  four.engine.tuner = &tuner;
  Router router4(four);
  runAll(router4);
  std::uint64_t compiles4 = 0;
  for (const auto& snap : router4.shardMetrics())
    compiles4 += snap.cacheCompiles;

  // Tuning must not break cache-affinity: the tuned config is resolved
  // before the key is rendered, so every shard agrees on the key string and
  // the tier still compiles each program exactly once.
  EXPECT_EQ(compiles4, compiles1);
  EXPECT_EQ(compiles1, names.size());
}

TEST(ServeTuneTest, TunedRouterIsBitwiseIdenticalToUntunedEngine) {
  const std::vector<std::string> names = {"lstm", "attention", "nasrnn"};
  Autotuner tuner(analyticOnly());
  const PipelineOptions base;
  for (const std::string& name : names)
    tuner.tune(name, smallConfig(), PipelineKind::TensorSsa, base);

  EngineOptions plain;
  Engine untuned(plain);
  RouterOptions tunedOpts;
  tunedOpts.shards = 4;
  tunedOpts.engine.tuner = &tuner;
  Router tuned(tunedOpts);

  std::uint64_t dataSeed = 91;
  for (const std::string& name : names) {
    Request r;
    r.workload = name;
    r.config = smallConfig();
    r.inputs = randomInputs(name, r.config, dataSeed++);
    const Response a = untuned.submit(r).get();
    const Response b = tuned.submit(r).get();
    EXPECT_TRUE(bench::outputsBitwiseEqual(a.outputs, b.outputs)) << name;
  }
}

// ---- (c) measurement failure ⇒ serve on defaults ---------------------------

TEST(ServeTuneTest, MeasurementFaultFallsBackToDefaultServing) {
  FaultInjector injector;
  // First measurement run, first kernel launch: the shortlist's very first
  // wall-clock rep dies, exactly like a flaky device would.
  injector.throwOnKernelLaunch(1, 1);

  TunerOptions opts;
  opts.measure = true;
  opts.measureReps = 1;
  opts.faultInjector = &injector;
  Autotuner tuner(opts);
  const PipelineOptions base;
  const TuneResult r =
      tuner.tune("attention", smallConfig(), PipelineKind::TensorSsa, base);

  EXPECT_TRUE(r.measurementFailed);
  EXPECT_GE(injector.faultsInjected(), 1u);
  // The installed config is the default heuristics: a candidate whose
  // measurement did not finish must not serve.
  EXPECT_EQ(r.config, TunedConfig::defaults(base));
  EXPECT_DOUBLE_EQ(r.tunedNsPerIter, 0.0);

  // Serving with this tuner resolves the untouched base options: keys,
  // compiles and batching all run the default path.
  const PipelineOptions resolved =
      tuner.pipelineFor("attention", PipelineKind::TensorSsa, base);
  EXPECT_EQ(runtime::hashValue(resolved), runtime::hashValue(base));

  EngineOptions engineOpts;
  engineOpts.tuner = &tuner;
  Engine engine(engineOpts);
  EngineOptions plain;
  Engine untuned(plain);
  Request req;
  req.workload = "attention";
  req.config = smallConfig();
  req.inputs = randomInputs("attention", req.config, 17);
  const Response a = engine.submit(req).get();
  const Response b = untuned.submit(req).get();
  EXPECT_TRUE(bench::outputsBitwiseEqual(a.outputs, b.outputs));
  engine.shutdown();
  untuned.shutdown();
}

}  // namespace
}  // namespace tssa
