// Decode serving subsystem: the paged KV cache, the iteration-level
// continuous-batching scheduler, and the differential contract that a
// session's output is bitwise-identical however it is scheduled —
// coalesced with strangers, padded to any bucket, at any thread count.
#include <cmath>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/serve/decode.h"
#include "src/tensor/kv_cache.h"
#include "src/workloads/workload.h"

namespace tssa {
namespace {

using serve::DecodeOptions;
using serve::DecodeRequest;
using serve::DecodeResult;
using serve::DecodeScheduler;
using serve::RejectedError;
using serve::RejectReason;
using workloads::kDecodeDim;

// ---- KvCache ---------------------------------------------------------------

TEST(KvCacheTest, ReserveAppendGatherRelease) {
  KvCache cache({.pageTokens = 4, .tokenFloats = 8, .maxPages = 0});
  ASSERT_TRUE(cache.tryReserve("s1", 10));  // 3 pages worst case
  EXPECT_EQ(cache.stats().pagesReserved, 3);
  EXPECT_EQ(cache.stats().pagesInUse, 0);  // allocation happens on append

  std::vector<float> k(4), v(4);
  for (int t = 0; t < 10; ++t) {
    for (int i = 0; i < 4; ++i) {
      k[static_cast<std::size_t>(i)] = static_cast<float>(100 * t + i);
      v[static_cast<std::size_t>(i)] = static_cast<float>(-100 * t - i);
    }
    cache.append("s1", k, v);
  }
  EXPECT_EQ(cache.tokens("s1"), 10);
  EXPECT_EQ(cache.stats().pagesInUse, 3);  // ceil(10/4)
  EXPECT_EQ(cache.stats().appendedTokens, 10);

  // Gather into a bucket of 12: ten real rows, two zero rows.
  std::vector<float> kOut(12 * 4, -1.0f), vOut(12 * 4, -1.0f);
  cache.gather("s1", 12, kOut.data(), vOut.data());
  for (int t = 0; t < 10; ++t)
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(kOut[static_cast<std::size_t>(4 * t + i)],
                static_cast<float>(100 * t + i));
      EXPECT_EQ(vOut[static_cast<std::size_t>(4 * t + i)],
                static_cast<float>(-100 * t - i));
    }
  for (std::size_t i = 40; i < kOut.size(); ++i) {
    EXPECT_EQ(kOut[i], 0.0f);
    EXPECT_EQ(vOut[i], 0.0f);
  }

  cache.release("s1");
  const KvCache::Stats s = cache.stats();
  EXPECT_EQ(s.pagesInUse, 0);
  EXPECT_EQ(s.pagesReserved, 0);
  EXPECT_EQ(s.pageFrees, 3);
  EXPECT_EQ(s.activeSessions, 0);
  EXPECT_EQ(s.pagesHighWater, 3);
}

TEST(KvCacheTest, ReservationExhaustionIsCounted) {
  KvCache cache({.pageTokens = 4, .tokenFloats = 8, .maxPages = 4});
  ASSERT_TRUE(cache.tryReserve("a", 16));  // takes all 4 pages
  EXPECT_FALSE(cache.tryReserve("b", 1));  // no room left
  EXPECT_EQ(cache.stats().exhaustedReservations, 1);
  cache.release("a");
  EXPECT_TRUE(cache.tryReserve("b", 1));  // bulk free made room
}

TEST(KvCacheTest, PagesAreReusedAcrossSessions) {
  KvCache cache({.pageTokens = 2, .tokenFloats = 4, .maxPages = 0,
                 .slabPages = 8});
  std::vector<float> row(2, 1.0f);
  for (int round = 0; round < 5; ++round) {
    const std::string id = std::string("s") + std::to_string(round);
    ASSERT_TRUE(cache.tryReserve(id, 16));  // 8 pages = one whole slab
    for (int t = 0; t < 16; ++t) cache.append(id, row, row);
    cache.release(id);
  }
  // Every round reused the first slab's pages: one slab, no growth.
  const KvCache::Stats s = cache.stats();
  EXPECT_EQ(s.slabBytes, 8 * 2 * 4 * static_cast<std::int64_t>(sizeof(float)));
  EXPECT_EQ(s.pagesHighWater, 8);
  EXPECT_EQ(s.pageAllocs, 40);
  EXPECT_EQ(s.pageFrees, 40);
}

TEST(KvCacheTest, MisuseThrows) {
  KvCache cache({.pageTokens = 2, .tokenFloats = 4});
  std::vector<float> row(2, 0.0f);
  EXPECT_THROW(cache.append("ghost", row, row), Error);
  EXPECT_THROW(cache.tokens("ghost"), Error);
  ASSERT_TRUE(cache.tryReserve("s", 2));
  EXPECT_THROW(cache.tryReserve("s", 2), Error);  // double reserve
  cache.append("s", row, row);
  cache.append("s", row, row);
  EXPECT_THROW(cache.append("s", row, row), Error);  // reservation overrun
  std::vector<float> pad(4);
  EXPECT_THROW(cache.gather("s", 1, pad.data(), pad.data()), Error);
  cache.release("s");
  cache.release("s");  // releasing twice is a no-op
}

// ---- Scheduler basics ------------------------------------------------------

DecodeOptions smallOptions() {
  DecodeOptions o;
  o.ctxBuckets = {4, 8, 16};
  o.kvPageTokens = 4;
  o.maxStepBatch = 4;
  o.maxActiveSessions = 4;
  return o;
}

TEST(DecodeSchedulerTest, SingleSessionCompletes) {
  DecodeScheduler sched(smallOptions());
  DecodeRequest req;
  req.prompt = DecodeScheduler::randomPrompt(3, 1);
  req.generate = 4;
  DecodeResult result = sched.submit(std::move(req)).get();
  EXPECT_EQ(result.steps, 3 + 4 - 1);
  ASSERT_TRUE(result.generated.defined());
  EXPECT_EQ(result.generated.sizes(), (Shape{4, kDecodeDim}));
  // tanh keeps every generated value in (-1, 1) and a real computation never
  // lands exactly on 0 for all coordinates.
  const float* g = result.generated.data<float>();
  bool anyNonZero = false;
  for (int i = 0; i < 4 * kDecodeDim; ++i) {
    EXPECT_LE(std::abs(g[i]), 1.0f);
    anyNonZero |= g[i] != 0.0f;
  }
  EXPECT_TRUE(anyNonZero);

  const serve::DecodeMetricsSnapshot snap = sched.metrics();
  EXPECT_EQ(snap.sessionsSubmitted, 1u);
  EXPECT_EQ(snap.sessionsCompleted, 1u);
  EXPECT_EQ(snap.joins, 1u);
  EXPECT_EQ(snap.leaves, 1u);
  EXPECT_EQ(snap.steps, 6u);
  EXPECT_EQ(snap.kv.pagesInUse, 0);
  EXPECT_EQ(snap.kv.activeSessions, 0);
}

TEST(DecodeSchedulerTest, ContinuousBatchingJoinsAndLeaves) {
  DecodeOptions options = smallOptions();
  options.maxActiveSessions = 2;
  DecodeScheduler sched(options);
  std::vector<std::future<DecodeResult>> futures;
  const std::int64_t gens[] = {2, 9, 4, 6};
  for (int i = 0; i < 4; ++i) {
    DecodeRequest req;
    req.prompt =
        DecodeScheduler::randomPrompt(2 + i % 2, static_cast<unsigned>(i));
    req.generate = gens[i];
    futures.push_back(sched.submit(std::move(req)));
  }
  std::int64_t batchedSteps = 0;
  for (auto& f : futures) batchedSteps += f.get().batchedSteps;
  // With two slots and mixed generation lengths some steps must have shared
  // their batch — that sharing is the entire point of iteration-level
  // scheduling.
  EXPECT_GT(batchedSteps, 0);

  const serve::DecodeMetricsSnapshot snap = sched.metrics();
  EXPECT_EQ(snap.sessionsCompleted, 4u);
  EXPECT_EQ(snap.joins, 4u);
  EXPECT_EQ(snap.leaves, 4u);
  EXPECT_GT(snap.meanOccupancy, 1.0);
  EXPECT_EQ(snap.kv.pagesInUse, 0);
  // KV pages never exceeded (active sessions × pages per max context).
  EXPECT_LE(snap.kv.pagesHighWater,
            static_cast<std::int64_t>(options.maxActiveSessions) *
                ((options.ctxBuckets.back() + options.kvPageTokens - 1) /
                 options.kvPageTokens));

  const serve::MetricsSnapshot engine = sched.engineMetrics();
  EXPECT_GT(engine.meanBatchSize, 1.0);  // steps actually coalesced
  EXPECT_EQ(engine.errors, 0u);
}

TEST(DecodeSchedulerTest, RunToCompletionBaselineStillCompletes) {
  DecodeOptions options = smallOptions();
  options.continuous = false;
  options.maxActiveSessions = 2;
  DecodeScheduler sched(options);
  std::vector<std::future<DecodeResult>> futures;
  for (int i = 0; i < 4; ++i) {
    DecodeRequest req;
    req.prompt = DecodeScheduler::randomPrompt(2, static_cast<unsigned>(i));
    req.generate = 3 + i;
    futures.push_back(sched.submit(std::move(req)));
  }
  for (auto& f : futures) f.get();
  const serve::DecodeMetricsSnapshot snap = sched.metrics();
  EXPECT_EQ(snap.sessionsCompleted, 4u);
  EXPECT_EQ(snap.kv.pagesInUse, 0);
}

TEST(DecodeSchedulerTest, OversizedSessionIsShedAtSubmit) {
  DecodeScheduler sched(smallOptions());
  DecodeRequest req;
  req.prompt = DecodeScheduler::randomPrompt(2, 7);
  req.generate = 100;  // needs 100+2-2 = 100 context tokens > bucket 16
  auto future = sched.submit(std::move(req));
  try {
    future.get();
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::KvExhausted);
  }
  EXPECT_EQ(sched.metrics().rejectedFor(RejectReason::KvExhausted), 1u);
}

// Bucket-boundary cases. A session's last step reads totalSteps-1 context
// tokens; admission allows exactly ctxBuckets.back() and sheds one past it.
TEST(DecodeSchedulerTest, ContextExactlyAtBucketEdgeMatchesSoloBitwise) {
  // promptLen 3 + generate 15 ⇒ 17 steps, final context 16 == largest
  // bucket: the edge itself is admitted and runs with zero padded rows.
  auto makeRequest = [] {
    DecodeRequest req;
    req.prompt = DecodeScheduler::randomPrompt(3, 606);
    req.generate = 15;
    return req;
  };

  Tensor solo;
  {
    DecodeScheduler sched(smallOptions());
    solo = sched.submit(makeRequest()).get().generated;
  }

  // Same session co-scheduled with a shorter one: crossing every bucket up
  // to and including the exact edge must stay bitwise identical.
  DecodeOptions options = smallOptions();
  options.maxActiveSessions = 4;
  DecodeScheduler sched(options);
  auto edge = sched.submit(makeRequest());
  DecodeRequest other;
  other.prompt = DecodeScheduler::randomPrompt(2, 707);
  other.generate = 5;
  auto companion = sched.submit(std::move(other));
  const Tensor batched = edge.get().generated;
  companion.get();

  ASSERT_EQ(batched.sizes(), solo.sizes());
  EXPECT_EQ(std::memcmp(batched.data<float>(), solo.data<float>(),
                        sizeof(float) *
                            static_cast<std::size_t>(batched.numel())),
            0);
  // One polymorphic step program served every bucket the two sessions
  // crossed (the old per-bucket specialization would have compiled one
  // program per context bucket).
  EXPECT_EQ(sched.engineMetrics().cacheCompiles, 1u);
}

TEST(DecodeSchedulerTest, ContextOnePastLargestBucketIsShed) {
  DecodeScheduler sched(smallOptions());
  DecodeRequest req;
  req.prompt = DecodeScheduler::randomPrompt(3, 808);
  req.generate = 16;  // 18 steps ⇒ final context 17 == bucket 16 + 1
  auto future = sched.submit(std::move(req));
  try {
    future.get();
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::KvExhausted);
  }
  EXPECT_EQ(sched.metrics().rejectedFor(RejectReason::KvExhausted), 1u);
  EXPECT_EQ(sched.metrics().sessionsCompleted, 0u);
}

TEST(DecodeSchedulerTest, KvExhaustionShedsInsteadOfWedging) {
  DecodeOptions options = smallOptions();
  options.maxActiveSessions = 8;
  options.kvMaxPages = 4;  // one 16-token session fills the cache alone
  DecodeScheduler sched(options);
  std::vector<std::future<DecodeResult>> futures;
  for (int i = 0; i < 3; ++i) {
    DecodeRequest req;
    req.prompt = DecodeScheduler::randomPrompt(8, static_cast<unsigned>(i));
    req.generate = 9;  // 16 steps -> 4 pages of 4 tokens
    futures.push_back(sched.submit(std::move(req)));
  }
  int completed = 0, shed = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++completed;
    } catch (const RejectedError& e) {
      EXPECT_EQ(e.reason(), RejectReason::KvExhausted);
      ++shed;
    }
  }
  // At least one session fits and finishes; whoever could not reserve pages
  // was shed with the typed reason rather than deadlocking the scheduler.
  EXPECT_GE(completed, 1);
  EXPECT_EQ(completed + shed, 3);
  const serve::DecodeMetricsSnapshot snap = sched.metrics();
  EXPECT_EQ(snap.rejectedFor(RejectReason::KvExhausted),
            static_cast<std::uint64_t>(shed));
  EXPECT_EQ(snap.kv.exhaustedReservations,
            static_cast<std::int64_t>(shed));
  EXPECT_EQ(snap.kv.pagesInUse, 0);
}

TEST(DecodeSchedulerTest, ExpiredSessionDeadlineIsRejected) {
  DecodeScheduler sched(smallOptions());
  DecodeRequest req;
  req.prompt = DecodeScheduler::randomPrompt(2, 3);
  req.generate = 4;
  req.deadlineUs = -1;  // expired before admission
  try {
    sched.submit(std::move(req)).get();
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::Deadline);
  }
  // deadlineUs = 0 must mean "no deadline" for sessions exactly as it does
  // for requests (the unified sentinel), not "expired at epoch".
  DecodeRequest ok;
  ok.prompt = DecodeScheduler::randomPrompt(2, 3);
  ok.generate = 4;
  ok.deadlineUs = 0;
  EXPECT_EQ(sched.submit(std::move(ok)).get().steps, 5);
}

TEST(DecodeSchedulerTest, ShutdownShedsQueuedSessions) {
  DecodeScheduler sched(smallOptions());
  sched.shutdown();
  DecodeRequest req;
  req.prompt = DecodeScheduler::randomPrompt(2, 3);
  req.generate = 2;
  try {
    sched.submit(std::move(req)).get();
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::ShuttingDown);
  }
}

TEST(DecodeSchedulerTest, ExportsCanonicalMetricNames) {
  DecodeScheduler sched(smallOptions());
  DecodeRequest req;
  req.prompt = DecodeScheduler::randomPrompt(2, 5);
  req.generate = 3;
  sched.submit(std::move(req)).get();
  obs::MetricsRegistry registry;
  sched.exportMetrics(registry);
  const obs::MetricsRegistry::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("tssa_decode_steps_total"), 4);
  EXPECT_EQ(snap.counter("tssa_decode_sessions_completed_total"), 1);
  EXPECT_EQ(snap.counter("tssa_decode_joins_total"), 1);
  EXPECT_EQ(snap.counter("tssa_decode_leaves_total"), 1);
  EXPECT_EQ(snap.counter("tssa_decode_rejected_total{reason=\"kv_exhausted\"}"),
            0);
  EXPECT_EQ(snap.gauge("tssa_decode_kv_pages_in_use"), 0.0);
  EXPECT_GT(snap.histogram("tssa_decode_step_occupancy").count, 0u);
}

// ---- Differential: batched == solo, bitwise --------------------------------

/// The pipeline thread count: 1 or 0 (= hardware concurrency).
class DecodeDifferentialTest : public ::testing::TestWithParam<int> {};

/// Sessions chosen so generation crosses every configured bucket (4, 8, 16):
/// the longest runs through all three specializations, the shortest stays in
/// the first, and the staggered lengths force joins/leaves mid-wave.
struct SessionSpec {
  std::int64_t promptLen;
  std::int64_t generate;
  std::uint64_t seed;
};

const std::vector<SessionSpec>& diffSessions() {
  static const std::vector<SessionSpec> specs = {
      {2, 3, 101},   // max context 3  -> bucket 4 only
      {3, 7, 202},   // max context 8  -> buckets 4, 8
      {5, 11, 303},  // max context 14 -> buckets 4, 8, 16
      {1, 9, 404},   // starts with an empty context
      {4, 13, 505},  // a second long one so the tail still batches
  };
  return specs;
}

DecodeOptions diffOptions(int threads) {
  DecodeOptions o;
  o.ctxBuckets = {4, 8, 16};
  o.kvPageTokens = 4;
  o.maxStepBatch = 8;
  o.maxActiveSessions = 8;
  o.pipeline.threads = threads;
  return o;
}

TEST_P(DecodeDifferentialTest, BatchedSessionMatchesSoloBitwise) {
  const int threads = GetParam();

  // Batched: every session in flight together, joining and leaving freely.
  std::vector<Tensor> batched;
  std::int64_t batchedSteps = 0;
  {
    DecodeScheduler sched(diffOptions(threads));
    std::vector<std::future<DecodeResult>> futures;
    for (const SessionSpec& spec : diffSessions()) {
      DecodeRequest req;
      req.prompt = DecodeScheduler::randomPrompt(spec.promptLen, spec.seed);
      req.generate = spec.generate;
      futures.push_back(sched.submit(std::move(req)));
    }
    for (auto& f : futures) {
      DecodeResult r = f.get();
      batchedSteps += r.batchedSteps;
      batched.push_back(std::move(r.generated));
    }
  }
  // The run must actually have exercised coalesced steps, or the test
  // compares solo against solo.
  EXPECT_GT(batchedSteps, 0);

  // Solo: each session alone in its own scheduler — batches of one, same
  // buckets, same weights (same seed).
  for (std::size_t i = 0; i < diffSessions().size(); ++i) {
    const SessionSpec& spec = diffSessions()[i];
    DecodeScheduler solo(diffOptions(threads));
    DecodeRequest req;
    req.prompt = DecodeScheduler::randomPrompt(spec.promptLen, spec.seed);
    req.generate = spec.generate;
    const DecodeResult r = solo.submit(std::move(req)).get();
    ASSERT_EQ(r.generated.sizes(), batched[i].sizes());
    EXPECT_EQ(std::memcmp(r.generated.data<float>(),
                          batched[i].data<float>(),
                          sizeof(float) *
                              static_cast<std::size_t>(r.generated.numel())),
              0)
        << "session " << i << " diverged (threads=" << threads << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Threads, DecodeDifferentialTest, ::testing::Values(1, 0),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string("threads_") + (info.param == 0 ? "hw" : "1");
    });

}  // namespace
}  // namespace tssa
