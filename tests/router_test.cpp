// Tests for the sharded serving tier (src/serve/router.h, ISSUE 9):
//   (a) consistent-hash ring properties — deterministic placement, near-
//       uniform spread, and minimal disruption (removing one of N shards
//       moves only the removed shard's keys),
//   (b) routing — cache-affinity (every key compiles on exactly one shard,
//       tier-wide compile count equal to a single engine's), and a 1-shard
//       vs 4-shard differential: bitwise identical responses per request,
//   (c) shed-and-retry — a queue-full home shard hops the request to the
//       next ring position; with no retry budget it is rejected,
//   (d) drain / restart — a draining shard is skipped without consuming
//       retry budget, a restarted shard serves again with a fresh cache,
//   (e) decode sessions all share one home shard.
#include <gtest/gtest.h>

#include <future>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/router.h"
#include "src/tensor/random.h"

namespace tssa {
namespace {

using runtime::RtValue;
using serve::DecodeRequest;
using serve::DecodeScheduler;
using serve::Engine;
using serve::EngineOptions;
using serve::HashRing;
using serve::RejectedError;
using serve::RejectReason;
using serve::Request;
using serve::Response;
using serve::Router;
using serve::RouterOptions;
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

std::vector<std::string> testKeys(int n) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) keys.push_back("key-" + std::to_string(i));
  return keys;
}

// ---- (a) hash ring properties ----------------------------------------------

TEST(HashRingTest, PlacementIsDeterministicAcrossInstances) {
  // Same membership ⇒ same assignment, whichever instance (and therefore
  // whichever run — the hash is FNV-1a/splitmix64, never std::hash).
  HashRing a(4), b(4);
  for (const std::string& key : testKeys(500))
    EXPECT_EQ(a.shardFor(key), b.shardFor(key)) << key;
}

TEST(HashRingTest, HashIsStableAcrossRuns) {
  // Pinned values: if these change, every deployed ring re-shuffles its
  // keys — treat a failure here as an ABI break, not a test to update.
  EXPECT_EQ(HashRing::hashKey(""), 5665620140241705579ULL);
  EXPECT_EQ(HashRing::hashKey("decode_step"), 1618212313039882432ULL);
  EXPECT_EQ(HashRing::hashKey("shard-0#0"), 4497822514064674916ULL);
}

TEST(HashRingTest, SpreadIsNearUniform) {
  HashRing ring(4);
  std::vector<int> counts(4, 0);
  const int n = 2000;
  for (const std::string& key : testKeys(n))
    ++counts[static_cast<std::size_t>(ring.shardFor(key))];
  for (int s = 0; s < 4; ++s) {
    // Ideal is n/4 = 500; with 64 vnodes the spread stays well within 2x.
    EXPECT_GT(counts[static_cast<std::size_t>(s)], n / 10) << "shard " << s;
    EXPECT_LT(counts[static_cast<std::size_t>(s)], n / 2) << "shard " << s;
  }
}

TEST(HashRingTest, RemovingAShardMovesOnlyItsKeys) {
  HashRing full(4);
  HashRing reduced(4);
  reduced.removeShard(3);
  int moved = 0;
  for (const std::string& key : testKeys(2000)) {
    const int before = full.shardFor(key);
    const int after = reduced.shardFor(key);
    if (before != 3) {
      // Keys not homed on the removed shard must not move at all.
      EXPECT_EQ(before, after) << key;
    } else {
      ++moved;
      EXPECT_NE(after, 3);
    }
  }
  // ~K/N of the keys lived on shard 3 and only they moved.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 2000 / 2);
}

TEST(HashRingTest, AddingTheShardBackRestoresPlacement) {
  HashRing full(4);
  HashRing churned(4);
  churned.removeShard(2);
  churned.addShard(2);
  for (const std::string& key : testKeys(500))
    EXPECT_EQ(full.shardFor(key), churned.shardFor(key)) << key;
}

TEST(HashRingTest, PreferenceStartsAtHomeAndIsDistinct) {
  HashRing ring(4);
  for (const std::string& key : testKeys(100)) {
    const std::vector<int> order = ring.preferenceFor(key, 4);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order.front(), ring.shardFor(key));
    EXPECT_EQ(std::set<int>(order.begin(), order.end()).size(), 4u);
    // Truncated preference is a prefix of the full one.
    const std::vector<int> two = ring.preferenceFor(key, 2);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0], order[0]);
    EXPECT_EQ(two[1], order[1]);
  }
}

// ---- (b) routing: affinity + differential ----------------------------------

TEST(RouterTest, OneVsFourShardsAreBitwiseIdentical) {
  RouterOptions one;
  one.shards = 1;
  RouterOptions four;
  four.shards = 4;
  Router router1(one);
  Router router4(four);

  const std::vector<std::string> workloads = {"lstm", "attention", "seq2seq"};
  std::uint64_t dataSeed = 7;
  for (const std::string& workload : workloads) {
    for (std::int64_t batch : {1, 2, 4}) {
      Request r;
      r.workload = workload;
      r.config = smallConfig(batch, 8);
      r.inputs = randomInputs(workload, r.config, dataSeed++);
      Response a = router1.submit(r).get();
      Response b = router4.submit(r).get();
      EXPECT_TRUE(bench::outputsBitwiseEqual(a.outputs, b.outputs))
          << workload << " batch=" << batch;
    }
  }
}

TEST(RouterTest, AffinityKeepsTierCompileCountFlat) {
  const std::vector<std::string> workloads = {"lstm", "attention", "nasrnn",
                                              "seq2seq"};
  auto runAll = [&](Router& router) {
    for (const std::string& workload : workloads) {
      for (std::int64_t batch : {1, 2}) {  // polymorphic: one key per workload
        Request r;
        r.workload = workload;
        r.config = smallConfig(batch, 8);
        router.submit(r).get();
      }
    }
  };

  RouterOptions one;
  one.shards = 1;
  Router router1(one);
  runAll(router1);
  std::uint64_t compiles1 = 0;
  for (const auto& snap : router1.shardMetrics()) compiles1 += snap.cacheCompiles;

  RouterOptions four;
  four.shards = 4;
  Router router4(four);
  runAll(router4);
  std::uint64_t compiles4 = 0;
  std::uint64_t shardsWithPrograms = 0;
  for (const auto& snap : router4.shardMetrics()) {
    compiles4 += snap.cacheCompiles;
    if (snap.cacheCompiles > 0) ++shardsWithPrograms;
  }

  // Cache-affinity: sharding must not multiply compiles — every key
  // compiled on exactly one shard, so the tier total equals one engine's.
  EXPECT_EQ(compiles4, compiles1);
  EXPECT_EQ(compiles1, workloads.size());  // one polymorphic key per workload
  EXPECT_GE(shardsWithPrograms, 1u);

  // And routing is where keyFor says: each workload's traffic landed
  // entirely on its home shard.
  const std::vector<serve::MetricsSnapshot> snaps = router4.shardMetrics();
  for (const std::string& workload : workloads) {
    Request probe;
    probe.workload = workload;
    probe.config = smallConfig();
    const int home = router4.homeShard(probe);
    EXPECT_GT(snaps[static_cast<std::size_t>(home)].requests, 0u) << workload;
  }
}

// ---- (c) shed-and-retry ----------------------------------------------------

/// Router whose shards admit one request each and hold it in a long batch
/// window, so a second same-key submit deterministically overflows the home
/// shard's queue while the first is still pending.
RouterOptions overloadableOptions(int shards, int maxRetryHops) {
  RouterOptions o;
  o.shards = shards;
  o.maxRetryHops = maxRetryHops;
  o.engine.maxQueueDepth = 1;
  // A 2-wide batch with a long window keeps the admitted request parked in
  // the open batch (maxBatch=1 would seal and execute it immediately, and
  // the queue slot would free before the second submit arrives).
  o.engine.maxBatch = 2;
  o.engine.maxWaitUs = 150'000;
  return o;
}

TEST(RouterTest, QueueFullShedsToNextRingPosition) {
  Router router(overloadableOptions(/*shards=*/2, /*maxRetryHops=*/1));
  Request r;
  r.workload = "lstm";
  r.config = smallConfig();

  std::future<Response> first = router.submit(r);   // fills the home queue
  std::future<Response> second = router.submit(r);  // shed → retried

  EXPECT_NO_THROW(second.get());
  EXPECT_NO_THROW(first.get());
  const Router::Stats stats = router.stats();
  EXPECT_EQ(stats.retryHops, 1u);
  EXPECT_EQ(stats.exhausted, 0u);
  // The retry executed on the non-home shard: both shards served traffic,
  // and the program compiled twice tier-wide (the price of the hop).
  std::uint64_t shardsServing = 0;
  for (const auto& snap : router.shardMetrics())
    if (snap.requests > 0) ++shardsServing;
  EXPECT_EQ(shardsServing, 2u);
}

TEST(RouterTest, NoRetryBudgetMeansQueueFullRejection) {
  Router router(overloadableOptions(/*shards=*/2, /*maxRetryHops=*/0));
  Request r;
  r.workload = "lstm";
  r.config = smallConfig();

  std::future<Response> first = router.submit(r);
  std::future<Response> second = router.submit(r);
  try {
    second.get();
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::QueueFull);
  }
  EXPECT_NO_THROW(first.get());
  EXPECT_EQ(router.stats().retryHops, 0u);
  EXPECT_EQ(router.stats().exhausted, 1u);
}

TEST(RouterTest, NonRetryableRejectionsPassThrough) {
  RouterOptions o;
  o.shards = 2;
  o.maxRetryHops = 1;
  Router router(o);
  Request r;
  r.workload = "lstm";
  r.config = smallConfig();
  r.deadlineUs = -1;  // already expired: Deadline, not QueueFull
  try {
    router.submit(r).get();
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::Deadline);
  }
  // Deadline is shard-independent: no hop was spent trying elsewhere.
  EXPECT_EQ(router.stats().retryHops, 0u);

  // So is a request that breaks its workload's pattern (an lstm input of
  // hidden width 64, not 128): refused synchronously by its home shard,
  // never compiled anywhere.
  Request bad;
  bad.workload = "lstm";
  bad.config = smallConfig();
  bad.inputs = Engine::defaultInputs("lstm", bad.config);
  bad.inputs[0] = RtValue(Tensor::zeros({2, 8, 64}));
  try {
    router.submit(bad);
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::BadRequest);
  }
  EXPECT_EQ(router.stats().retryHops, 0u);
  for (const auto& snap : router.shardMetrics())
    EXPECT_EQ(snap.cacheCompiles, 0u);

  // An unknown workload has no program key; its home shard still refuses
  // it with a typed, counted BadRequest, as a standalone Engine does.
  const std::uint64_t badBefore =
      router.mergedMetrics().rejectedFor(RejectReason::BadRequest);
  Request unknown;
  unknown.workload = "resnet";
  unknown.config = smallConfig();
  try {
    router.submit(unknown);
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::BadRequest);
  }
  EXPECT_EQ(router.mergedMetrics().rejectedFor(RejectReason::BadRequest),
            badBefore + 1);
  EXPECT_EQ(router.stats().retryHops, 0u);
  for (const auto& snap : router.shardMetrics())
    EXPECT_EQ(snap.cacheCompiles, 0u);
}

// ---- (d) drain / restart ---------------------------------------------------

TEST(RouterTest, DrainedShardIsSkippedWithoutRetryBudget) {
  RouterOptions o;
  o.shards = 2;
  o.maxRetryHops = 0;  // skipping a draining shard must not need a hop
  Router router(o);
  Request r;
  r.workload = "attention";
  r.config = smallConfig();
  const int home = router.homeShard(r);
  const int other = 1 - home;

  EXPECT_NO_THROW(router.submit(r).get());  // compiles on the home shard
  router.drainShard(home);
  EXPECT_EQ(router.shardState(home), Router::ShardState::Drained);

  Response viaOther = router.submit(r).get();
  EXPECT_FALSE(viaOther.outputs.empty());
  EXPECT_GT(router.stats().drainSkips, 0u);
  EXPECT_EQ(router.stats().retryHops, 0u);
  EXPECT_GT(router.shardMetrics()[static_cast<std::size_t>(other)].requests,
            0u);
}

TEST(RouterTest, RestartedShardServesAgainWithFreshCache) {
  RouterOptions o;
  o.shards = 2;
  Router router(o);
  Request r;
  r.workload = "yolact";
  r.config = smallConfig(1, 8);
  const int home = router.homeShard(r);

  router.submit(r).get();
  EXPECT_EQ(
      router.shardMetrics()[static_cast<std::size_t>(home)].cacheCompiles,
      1u);

  router.drainShard(home);
  router.restartShard(home);
  EXPECT_EQ(router.shardState(home), Router::ShardState::Serving);

  // Served by the home shard again, through a fresh cache (recompiled).
  router.submit(r).get();
  const serve::MetricsSnapshot snap =
      router.shardMetrics()[static_cast<std::size_t>(home)];
  EXPECT_EQ(snap.requests, 1u);       // fresh engine, fresh metrics
  EXPECT_EQ(snap.cacheCompiles, 1u);  // fresh cache, one recompile
  EXPECT_EQ(router.stats().drains, 1u);
  EXPECT_EQ(router.stats().restarts, 1u);
}

TEST(RouterTest, DrainingEverythingRejectsCleanly) {
  RouterOptions o;
  o.shards = 2;
  Router router(o);
  router.drainShard(0);
  router.drainShard(1);
  Request r;
  r.workload = "lstm";
  r.config = smallConfig();
  try {
    router.submit(r).get();
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::ShuttingDown);
  }
}

// ---- (e) decode routing ----------------------------------------------------

TEST(RouterTest, DecodeSessionsShareOneHomeShard) {
  RouterOptions o;
  o.shards = 2;
  o.enableDecode = true;
  o.decode.maxActiveSessions = 4;
  Router router(o);

  std::vector<std::future<serve::DecodeResult>> futures;
  for (int i = 0; i < 3; ++i) {
    DecodeRequest d;
    d.prompt = DecodeScheduler::randomPrompt(4, 100 + i);
    d.generate = 3;
    futures.push_back(router.submitDecode(d));
  }
  for (auto& f : futures) EXPECT_NO_THROW(f.get());

  const int home = router.decodeHomeShard();
  const std::vector<serve::DecodeMetricsSnapshot> snaps =
      router.shardDecodeMetrics();
  EXPECT_EQ(snaps[static_cast<std::size_t>(home)].sessionsSubmitted, 3u);
  EXPECT_EQ(snaps[static_cast<std::size_t>(1 - home)].sessionsSubmitted, 0u);
}

}  // namespace
}  // namespace tssa
