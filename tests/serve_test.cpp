// Tests for the src/serve inference serving engine (ISSUE 2 acceptance):
//   (a) program cache: hit on the second same-shape request with zero
//       recompiles; LRU eviction at capacity,
//   (b) a micro-batched run of K same-shape requests is bitwise identical
//       to the K individual runs,
//   (c) many concurrent sessions come back clean (run under TSan in CI),
// plus unit coverage for the cache, batcher grouping, and metrics math.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/engine.h"
#include "src/serve/fault_injector.h"
#include "src/tensor/random.h"

namespace tssa {
namespace {

using runtime::PipelineKind;
using runtime::PipelineOptions;
using runtime::RtValue;
using serve::Engine;
using serve::EngineOptions;
using serve::ProgramCache;
using serve::ProgramKey;
using serve::Request;
using serve::Response;
using serve::Session;
using workloads::WorkloadConfig;

WorkloadConfig smallConfig(std::int64_t batch = 2, std::int64_t seqLen = 8) {
  WorkloadConfig c;
  c.batch = batch;
  c.seqLen = seqLen;
  return c;
}

/// Fresh random inputs shaped like the registry's example tuple, so distinct
/// requests carry distinct payloads (the interesting case for batching).
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

EngineOptions unbatchedOptions(std::size_t cacheCapacity = 32) {
  EngineOptions o;
  o.maxBatch = 1;  // disable coalescing
  o.cacheCapacity = cacheCapacity;
  return o;
}

// ---- (a) program cache behaviour ------------------------------------------

TEST(ServeCacheTest, SecondSameShapeRequestHitsWithZeroRecompiles) {
  Engine engine(unbatchedOptions());
  Request r;
  r.workload = "lstm";
  r.config = smallConfig();

  Response first = engine.submit(r).get();
  EXPECT_FALSE(first.cacheHit);
  EXPECT_EQ(engine.cacheStats().compiles, 1u);

  Response second = engine.submit(r).get();
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(engine.cacheStats().compiles, 1u);  // zero recompiles
  EXPECT_EQ(engine.cacheStats().hits, 1u);
  EXPECT_EQ(engine.cacheStats().misses, 1u);
}

TEST(ServeCacheTest, DistinctSeedsMissSeparately) {
  // The weight seed is baked into the graph, so it is part of the key;
  // distinct shapes of one seed share one polymorphic program
  // (tests/serve_symbolic_test.cpp covers that).
  Engine engine(unbatchedOptions());
  Request a;
  a.workload = "lstm";
  a.config = smallConfig(2, 8);
  Request b = a;
  b.config.seed = a.config.seed + 1;  // different weights, different program

  EXPECT_FALSE(engine.submit(a).get().cacheHit);
  EXPECT_FALSE(engine.submit(b).get().cacheHit);
  EXPECT_EQ(engine.cacheStats().compiles, 2u);
  EXPECT_TRUE(engine.submit(a).get().cacheHit);
  EXPECT_TRUE(engine.submit(b).get().cacheHit);
}

TEST(ServeCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  // LRU mechanics need distinct keys: each weight seed is its own program.
  Engine engine(unbatchedOptions(/*cacheCapacity=*/2));
  auto req = [](std::uint64_t seed) {
    Request r;
    r.workload = "nasrnn";
    r.config = smallConfig(1, 6);
    r.config.seed = seed;
    return r;
  };
  engine.submit(req(1)).get();
  engine.submit(req(2)).get();
  engine.submit(req(3)).get();  // capacity 2 → evicts the seed=1 program
  EXPECT_EQ(engine.cacheStats().evictions, 1u);
  EXPECT_EQ(engine.cacheStats().size, 2u);

  Response again = engine.submit(req(1)).get();  // recompile after eviction
  EXPECT_FALSE(again.cacheHit);
  EXPECT_EQ(engine.cacheStats().compiles, 4u);
}

TEST(ServeCacheTest, SingleFlightCompilesOncePerKeyUnderConcurrency) {
  ProgramCache cache(8);
  workloads::Workload w = workloads::buildWorkload("lstm", smallConfig());
  ProgramKey key;
  key.workload = "lstm";
  key.signature = "sig";
  std::atomic<int> compiles{0};
  std::vector<std::thread> threads;
  std::atomic<int> hits{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      ProgramCache::Lookup got = cache.getOrCompile(key, [&] {
        ++compiles;
        return std::make_unique<runtime::Pipeline>(PipelineKind::TensorSsa,
                                                   *w.graph);
      });
      ASSERT_NE(got.program->pipeline, nullptr);
      hits += got.hit ? 1 : 0;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(compiles.load(), 1);
  EXPECT_EQ(hits.load(), 7);
}

TEST(ServeCacheTest, EvictionSkipsInFlightCompiles) {
  // Capacity pressure while a compile is in flight must not evict the
  // compiling entry: a re-request of that key would miss and start a
  // duplicate compile of the identical program, breaking single-flight.
  ProgramCache cache(/*capacity=*/1);
  workloads::Workload w = workloads::buildWorkload("lstm", smallConfig());
  auto makePipeline = [&] {
    return std::make_unique<runtime::Pipeline>(PipelineKind::TensorSsa,
                                               *w.graph);
  };
  ProgramKey a;
  a.workload = "lstm";
  a.signature = "a";
  ProgramKey b;
  b.workload = "lstm";
  b.signature = "b";

  std::promise<void> compileStarted;
  std::promise<void> release;
  std::future<void> releaseFuture = release.get_future();
  std::atomic<int> compilesOfA{0};
  std::thread slow([&] {
    cache.getOrCompile(a, [&] {
      ++compilesOfA;
      compileStarted.set_value();
      releaseFuture.wait();
      return makePipeline();
    });
  });
  compileStarted.get_future().wait();

  // Inserting b exceeds capacity while a is still compiling; the walk must
  // skip a (not ready) and leave the cache temporarily over capacity.
  cache.getOrCompile(b, makePipeline);
  EXPECT_EQ(cache.stats().evictions, 0u);
  release.set_value();
  slow.join();

  ProgramCache::Lookup again = cache.getOrCompile(a, [&] {
    ++compilesOfA;
    return makePipeline();
  });
  EXPECT_TRUE(again.hit);
  EXPECT_TRUE(again.wasReady);
  EXPECT_EQ(compilesOfA.load(), 1);  // a was never evicted mid-compile
}

TEST(ServeCacheTest, SingleFlightWaiterIsNotAReadyHit) {
  // A lookup that blocks on a concurrent compile paid the compile latency:
  // it reports hit (key present) but not wasReady (the engine surfaces
  // wasReady as Response::cacheHit).
  ProgramCache cache(4);
  workloads::Workload w = workloads::buildWorkload("lstm", smallConfig());
  auto makePipeline = [&] {
    return std::make_unique<runtime::Pipeline>(PipelineKind::TensorSsa,
                                               *w.graph);
  };
  ProgramKey key;
  key.workload = "lstm";
  key.signature = "sig";

  std::promise<void> compileStarted;
  std::promise<void> release;
  std::future<void> releaseFuture = release.get_future();
  std::thread compiler([&] {
    cache.getOrCompile(key, [&] {
      compileStarted.set_value();
      releaseFuture.wait();
      return makePipeline();
    });
  });
  compileStarted.get_future().wait();

  std::atomic<bool> entered{false};
  ProgramCache::Lookup waited;
  std::thread waiter([&] {
    entered = true;
    waited = cache.getOrCompile(key, [&] {
      ADD_FAILURE() << "single-flight violated: waiter compiled";
      return makePipeline();
    });
  });
  // The waiter cannot return before `release`; give it a moment to reach
  // the rendezvous so it observes ready == false.
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.set_value();
  compiler.join();
  waiter.join();

  EXPECT_TRUE(waited.hit);
  EXPECT_FALSE(waited.wasReady);  // blocked for the compile → not a hit
  ProgramCache::Lookup warm = cache.getOrCompile(key, makePipeline);
  EXPECT_TRUE(warm.wasReady);
}

// ---- metrics math ----------------------------------------------------------

TEST(ServeMetricsTest, NearestRankPercentilesAreExact) {
  serve::MetricsCollector collector;
  for (int i = 1; i <= 100; ++i) {
    serve::RequestTiming t;
    t.queueUs = i;
    collector.recordRequest(t);
  }
  serve::MetricsSnapshot snap;
  collector.fill(snap);
  EXPECT_EQ(snap.total.p50Us, 50.0);
  EXPECT_EQ(snap.total.p95Us, 95.0);
  EXPECT_EQ(snap.total.p99Us, 99.0);  // the 99th sample, not the maximum
  EXPECT_EQ(snap.total.maxUs, 100.0);

  serve::MetricsCollector two;
  for (double us : {100.0, 200.0}) {
    serve::RequestTiming t;
    t.queueUs = us;
    two.recordRequest(t);
  }
  serve::MetricsSnapshot pair;
  two.fill(pair);
  EXPECT_EQ(pair.total.p50Us, 100.0);  // p50 of [a, b] is a, not b
  EXPECT_EQ(pair.total.p99Us, 200.0);
}

TEST(ServeMetricsTest, EmptyHistogramPercentilesAreZero) {
  // Regression: nearest-rank percentiles over zero samples must be an exact
  // 0, never an out-of-bounds read or NaN. Exercised at every layer — the
  // raw helper, the obs::Histogram wrapper, and a fresh engine snapshot.
  EXPECT_EQ(obs::percentileNearestRank({}, 0.50), 0.0);
  EXPECT_EQ(obs::percentileNearestRank({}, 0.99), 0.0);

  const obs::HistogramStats empty = obs::Histogram{}.stats();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p50, 0.0);
  EXPECT_EQ(empty.p95, 0.0);
  EXPECT_EQ(empty.p99, 0.0);
  EXPECT_EQ(empty.mean, 0.0);
  EXPECT_EQ(empty.max, 0.0);

  Engine engine;  // no traffic at all
  const serve::MetricsSnapshot snap = engine.metrics();
  EXPECT_EQ(snap.requests, 0u);
  for (const serve::LatencyStats& stats :
       {snap.total, snap.queue, snap.exec}) {
    EXPECT_EQ(stats.p50Us, 0.0);
    EXPECT_EQ(stats.p95Us, 0.0);
    EXPECT_EQ(stats.p99Us, 0.0);
    EXPECT_EQ(stats.meanUs, 0.0);
    EXPECT_EQ(stats.maxUs, 0.0);
  }
  EXPECT_EQ(snap.throughputRps, 0.0);
}

// ---- deadline sentinel semantics ------------------------------------------

TEST(ServeDeadlineTest, AbsoluteDeadlineSentinelSemantics) {
  // The one mapping every deadline site must share: 0 ⇒ no deadline
  // (kNoDeadline), negative ⇒ expired at the enqueue instant, positive ⇒
  // enqueue + deadlineUs.
  const auto enqueue = std::chrono::steady_clock::now();
  EXPECT_EQ(serve::absoluteDeadline(enqueue, 0), serve::kNoDeadline);
  EXPECT_FALSE(serve::hasDeadline(serve::absoluteDeadline(enqueue, 0)));
  EXPECT_EQ(serve::absoluteDeadline(enqueue, -1), enqueue);
  EXPECT_EQ(serve::absoluteDeadline(enqueue, 250),
            enqueue + std::chrono::microseconds(250));
  EXPECT_TRUE(serve::hasDeadline(serve::absoluteDeadline(enqueue, 250)));
}

TEST(ServeDeadlineTest, ZeroDeadlineIsNoDeadlineNotInstantExpiry) {
  // Regression for the deadlineUs == 0 sentinel: a request with no deadline
  // must survive an arbitrarily long stall between seal and execution. The
  // stall is virtual (FaultInjector::delayNthBatchSeal), so if 0 were ever
  // read as "expired at epoch" by the pre-execution check, this would
  // reject deterministically — no wall-clock sleeps involved.
  serve::FaultInjector injector;
  injector.delayNthBatchSeal(1, 3'600'000'000LL);  // pretend one hour

  EngineOptions options;
  options.maxBatch = 1;
  options.faultInjector = &injector;
  Engine engine(options);

  Request r;
  r.workload = "lstm";
  r.config = smallConfig();
  r.deadlineUs = 0;  // no deadline
  Response resp = engine.submit(std::move(r)).get();  // must not throw
  ASSERT_FALSE(resp.outputs.empty());

  const serve::MetricsSnapshot snap = engine.metrics();
  EXPECT_EQ(snap.requests, 1u);
  EXPECT_EQ(snap.rejectedTotal(), 0u);

  // The same stall with a real (finite) deadline is rejected — the sentinel
  // distinguishes "no deadline" from "very large deadline".
  serve::FaultInjector injector2;
  injector2.delayNthBatchSeal(1, 3'600'000'000LL);
  EngineOptions options2;
  options2.maxBatch = 1;
  options2.faultInjector = &injector2;
  Engine engine2(options2);

  Request tight;
  tight.workload = "lstm";
  tight.config = smallConfig();
  tight.deadlineUs = 1'000'000;
  std::future<Response> future = engine2.submit(std::move(tight));
  try {
    future.get();
    FAIL() << "expected RejectedError(Deadline)";
  } catch (const serve::RejectedError& e) {
    EXPECT_EQ(e.reason(), serve::RejectReason::Deadline);
  }
}

// ---- (b) micro-batched == individual, bitwise -----------------------------

class ServeBatchingBitwiseTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeBatchingBitwiseTest, BatchedRunMatchesIndividualRunsBitwise) {
  const std::string workload = GetParam();
  const WorkloadConfig config = smallConfig(2, 6);
  constexpr int kRequests = 3;

  std::vector<std::vector<RtValue>> payloads;
  for (int i = 0; i < kRequests; ++i)
    payloads.push_back(randomInputs(workload, config, 1000 + i));

  // Individual executions (no coalescing).
  std::vector<Response> individual;
  {
    Engine engine(unbatchedOptions());
    for (int i = 0; i < kRequests; ++i) {
      Request r;
      r.workload = workload;
      r.config = config;
      r.inputs = payloads[static_cast<std::size_t>(i)];
      individual.push_back(engine.submit(r).get());
      EXPECT_EQ(individual.back().batchedWith, 1);
    }
  }

  // One coalesced execution: window long enough that all K requests land in
  // the same batch; the batch seals at maxBatch == K, not at the window.
  std::vector<Response> batched;
  {
    EngineOptions o;
    o.maxBatch = kRequests;
    o.maxWaitUs = 2'000'000;
    Engine engine(o);
    Session session = engine.openSession("bitwise");
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < kRequests; ++i) {
      Request r;
      r.workload = workload;
      r.config = config;
      r.inputs = payloads[static_cast<std::size_t>(i)];
      futures.push_back(session.submit(std::move(r)));
    }
    for (auto& f : futures) batched.push_back(f.get());
  }

  for (int i = 0; i < kRequests; ++i) {
    SCOPED_TRACE(workload + " request " + std::to_string(i));
    EXPECT_EQ(batched[static_cast<std::size_t>(i)].batchedWith, kRequests);
    EXPECT_TRUE(bench::outputsBitwiseEqual(
        individual[static_cast<std::size_t>(i)].outputs,
        batched[static_cast<std::size_t>(i)].outputs));
  }
}

INSTANTIATE_TEST_SUITE_P(AllBatchableWorkloads, ServeBatchingBitwiseTest,
                         ::testing::ValuesIn(workloads::workloadNames()));

TEST(ServeBatchingTest, BatchSizeNeverExceedsMaxBatch) {
  EngineOptions o;
  o.maxBatch = 2;
  o.maxWaitUs = 200'000;
  Engine engine(o);
  std::vector<std::future<Response>> futures;
  Request r;
  r.workload = "attention";
  r.config = smallConfig(1, 6);
  r.inputs = randomInputs("attention", r.config, 7);
  for (int i = 0; i < 5; ++i) futures.push_back(engine.submit(r));
  engine.drain();
  int total = 0;
  for (auto& f : futures) {
    Response resp = f.get();
    EXPECT_GE(resp.batchedWith, 1);
    EXPECT_LE(resp.batchedWith, 2);
    ++total;
  }
  EXPECT_EQ(total, 5);
  EXPECT_EQ(engine.metrics().requests, 5u);
}

TEST(ServeBatchingTest, SharedScalarMismatchSplitsTheBatch) {
  // yolact's num_dets is a shared input: requests disagreeing on it must
  // not be coalesced (the batcher seals the open batch instead).
  EngineOptions o;
  o.maxBatch = 2;
  o.maxWaitUs = 500'000;
  Engine engine(o);
  const WorkloadConfig config = smallConfig(1, 6);
  std::vector<RtValue> inputs = Engine::defaultInputs("yolact", config);

  Request a;
  a.workload = "yolact";
  a.config = config;
  a.inputs = inputs;
  Request b = a;
  b.inputs.back() = RtValue(Scalar(std::int64_t{4}));  // fewer detections

  auto fa = engine.submit(a);
  auto fb = engine.submit(b);
  Response ra = fa.get();
  Response rb = fb.get();
  EXPECT_EQ(ra.batchedWith, 1);
  EXPECT_EQ(rb.batchedWith, 1);
}

// ---- (c) concurrent sessions ----------------------------------------------

TEST(ServeConcurrencyTest, EightConcurrentSessionsComeBackClean) {
  EngineOptions o;
  o.maxBatch = 4;
  o.maxWaitUs = 300;
  o.cacheCapacity = 16;
  Engine engine(o);

  constexpr int kSessions = 8;
  constexpr int kRequestsEach = 6;
  const std::vector<std::string> mix = {"lstm", "attention", "ssd", "nasrnn"};

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      Session session = engine.openSession("client-" + std::to_string(s));
      for (int i = 0; i < kRequestsEach; ++i) {
        Request r;
        r.workload = mix[static_cast<std::size_t>((s + i) % mix.size())];
        r.config = smallConfig(1, 6);
        r.inputs = randomInputs(r.workload, r.config,
                                static_cast<std::uint64_t>(s * 100 + i));
        try {
          Response resp = session.infer(std::move(r));
          if (resp.outputs.empty()) ++failures;
          // Invariant: a reported hit never carries compile latency.
          if (resp.cacheHit && resp.timing.compileUs != 0.0) ++failures;
        } catch (...) {
          ++failures;
        }
      }
      EXPECT_EQ(session.requestsSubmitted(), kRequestsEach);
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  serve::MetricsSnapshot snap = engine.metrics();
  EXPECT_EQ(snap.requests, kSessions * kRequestsEach);
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_EQ(snap.sessionsOpened, kSessions);
  EXPECT_GT(snap.throughputRps, 0.0);
  EXPECT_GE(snap.total.p99Us, snap.total.p50Us);
  // Four workloads at one shape each: at most 4 distinct solo programs plus
  // whatever batched row-counts materialized — but every program compiled
  // at most once (cache_hit path from then on).
  EXPECT_EQ(snap.cacheCompiles, snap.cacheMisses);
}

TEST(ServeConcurrencyTest, ThreadedInterpreterBatchesDoNotDeadlock) {
  // pipeline.threads != 1 makes each batch task call parallelFor while
  // holding its program's execMutex. The pool's helping barrier must never
  // steal a sibling batch task there: same program → self-deadlock on the
  // non-recursive mutex; two programs → a lock cycle between two helpers.
  EngineOptions o;
  o.maxBatch = 2;
  o.maxWaitUs = 100;
  o.pipeline.threads = 4;
  Engine engine(o);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 12; ++i) {
    Request r;
    r.workload = (i % 2) != 0 ? "lstm" : "attention";
    r.config = smallConfig(1, 6);
    r.inputs = randomInputs(r.workload, r.config,
                            static_cast<std::uint64_t>(40 + i));
    futures.push_back(engine.submit(std::move(r)));
  }
  for (auto& f : futures) EXPECT_FALSE(f.get().outputs.empty());
  EXPECT_EQ(engine.metrics().errors, 0u);
}

// ---- engine error handling -------------------------------------------------

TEST(ServeEngineTest, MalformedRequestsThrowOnSubmit) {
  Engine engine(unbatchedOptions());
  Request unknown;
  unknown.workload = "resnet";  // not registered
  EXPECT_THROW(engine.submit(unknown), Error);

  Request wrongArity;
  wrongArity.workload = "lstm";
  wrongArity.config = smallConfig();
  wrongArity.inputs = {RtValue(Tensor::zeros({2, 8, 128}))};
  EXPECT_THROW(engine.submit(wrongArity), Error);

  Request wrongBatch;
  wrongBatch.workload = "lstm";
  wrongBatch.config = smallConfig(2, 8);
  wrongBatch.inputs = Engine::defaultInputs("lstm", smallConfig(4, 8));
  EXPECT_THROW(engine.submit(wrongBatch), Error);
}

TEST(ServeEngineTest, ResponsesCarryLatencyDecomposition) {
  Engine engine(unbatchedOptions());
  Request r;
  r.workload = "attention";
  r.config = smallConfig(1, 4);
  Response resp = engine.submit(r).get();
  EXPECT_GE(resp.timing.queueUs, 0.0);
  EXPECT_GT(resp.timing.compileUs, 0.0);  // first request pays the compile
  EXPECT_GT(resp.timing.execUs, 0.0);
  EXPECT_NEAR(resp.timing.totalUs(),
              resp.timing.queueUs + resp.timing.compileUs + resp.timing.execUs,
              1e-9);

  Response warm = engine.submit(r).get();
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.timing.compileUs, 0.0);  // hits pay no compile latency
}

TEST(ServeEngineTest, BatchTraitsRegistryMatchesBuiltWorkloads) {
  for (const std::string& name : workloads::workloadNames()) {
    workloads::Workload w = workloads::buildWorkload(name, smallConfig(1, 4));
    const workloads::BatchTraits& traits = workloads::workloadBatchTraits(name);
    EXPECT_EQ(w.graph->inputs().size(), traits.inputDims.size()) << name;
    EXPECT_EQ(w.graph->outputs().size(), traits.outputDims.size()) << name;
    EXPECT_EQ(w.inputs.size(), traits.inputDims.size()) << name;
    EXPECT_TRUE(traits.batchable()) << name;
    // Batched inputs really are tensors carrying config.batch at that dim.
    for (std::size_t i = 0; i < traits.inputDims.size(); ++i) {
      const int d = traits.inputDims[i];
      if (d < 0) continue;
      ASSERT_TRUE(w.inputs[i].isTensor()) << name << " input " << i;
      EXPECT_EQ(w.inputs[i].tensor().size(d), 1) << name << " input " << i;
    }
  }
}

TEST(ServePipelineOptionsTest, EqualityAndHashFollowMembers) {
  PipelineOptions a, b;
  EXPECT_EQ(a, b);
  EXPECT_EQ(runtime::hashValue(a), runtime::hashValue(b));
  b.threads = 4;
  EXPECT_NE(a, b);
  b = a;
  b.device = runtime::DeviceSpec::consumer();
  EXPECT_NE(a, b);
  EXPECT_NE(runtime::hashValue(a), runtime::hashValue(b));
}

}  // namespace
}  // namespace tssa
