// Serving soak test (ctest label `soak`, excluded from the tier-1 suite):
// multi-session churn over randomized shapes and deadlines for ~30 s of
// wall-clock, with scripted compile faults mixed in, asserting the engine's
// ground rules hold under sustained load:
//   * no future is ever abandoned — every submit resolves or rejects,
//   * the outcome counters are consistent — completions + errors +
//     rejections add up to exactly the number of submits,
//   * per-session in-flight accounting returns to zero.
//
// Gated twice so a plain `ctest` stays fast: the binary is only run by
// `ctest -L soak`, and the test body SKIPs unless TSSA_SOAK=1 is set.
// TSSA_SOAK_SECONDS overrides the churn duration (default 30).
// CI runs this under TSan on a schedule (.github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/decode.h"
#include "src/serve/engine.h"
#include "src/serve/fault_injector.h"
#include "src/tensor/random.h"

namespace tssa {
namespace {

using serve::Engine;
using serve::EngineOptions;
using serve::FaultInjector;
using serve::ProgramCache;
using serve::RejectedError;
using serve::Request;
using serve::Response;
using serve::Session;
using workloads::WorkloadConfig;

int soakSeconds() {
  const char* value = std::getenv("TSSA_SOAK_SECONDS");
  if (value == nullptr) return 30;
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : 30;
}

bool soakEnabled() {
  const char* value = std::getenv("TSSA_SOAK");
  return value != nullptr && std::string(value) == "1";
}

/// A small fixed menu of (workload, batch, seqLen, seed) points. Shapes of
/// one workload share its polymorphic program, but the weight seed is part
/// of the program key, so the menu spans 8 keys: more than the engine's
/// cacheCapacity, enough churn to exercise eviction and recompiles, bounded
/// so the run spends its time serving rather than compiling.
struct ShapePoint {
  const char* workload;
  std::int64_t batch;
  std::int64_t seqLen;
  std::uint64_t seed;
};
constexpr ShapePoint kShapes[] = {
    {"lstm", 1, 4, 1},      {"lstm", 2, 4, 2},      {"lstm", 1, 6, 3},
    {"nasrnn", 1, 4, 1},    {"nasrnn", 2, 4, 2},    {"attention", 1, 4, 1},
    {"attention", 2, 4, 2}, {"seq2seq", 1, 4, 1},
};
constexpr std::size_t kShapeCount = std::size(kShapes);

WorkloadConfig configOf(const ShapePoint& shape) {
  WorkloadConfig config;
  config.batch = shape.batch;
  config.seqLen = shape.seqLen;
  config.seed = shape.seed;
  return config;
}

/// Fresh random payload shaped like `sample` (the registry's example tuple
/// for the shape point); non-float entries are carried over verbatim.
std::vector<runtime::RtValue> randomizedInputs(
    const std::vector<runtime::RtValue>& sample, Rng& rng) {
  std::vector<runtime::RtValue> inputs = sample;
  for (runtime::RtValue& v : inputs) {
    if (!v.isTensor() || v.tensor().dtype() != DType::Float32) continue;
    v = runtime::RtValue(rng.normal(v.tensor().sizes(), 0.0, 0.5));
  }
  return inputs;
}

TEST(ServeSoakTest, MultiSessionChurnLosesNoFutureAndBalancesCounters) {
  if (!soakEnabled())
    GTEST_SKIP() << "soak disabled; set TSSA_SOAK=1 (and optionally "
                    "TSSA_SOAK_SECONDS) to run";

  // Scripted faults sprinkled through the run: a handful of compile
  // failures (exercising negative cache + fallback) at fixed indices.
  FaultInjector injector;
  for (std::uint64_t n : {3u, 11u, 19u, 31u, 53u}) injector.failNthCompile(n);

  EngineOptions options;
  options.maxBatch = 4;
  options.maxWaitUs = 200;
  options.cacheCapacity = 6;  // below the menu's 8 keys: eviction churn
  options.maxQueueDepth = 256;
  options.maxInFlightPerSession = 64;
  options.compileFailureTtlUs = 100'000;  // failures expire mid-run
  options.faultInjector = &injector;
  Engine engine(options);

  constexpr int kClients = 4;
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> abandoned{0};
  std::atomic<std::uint64_t> fallbacks{0};

  // Example input tuples for every shape point, built once up front
  // (Engine::defaultInputs builds the workload — too heavy for the loop).
  std::vector<std::vector<runtime::RtValue>> samples;
  samples.reserve(kShapeCount);
  for (const ShapePoint& shape : kShapes)
    samples.push_back(Engine::defaultInputs(shape.workload, configOf(shape)));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(soakSeconds());

  std::vector<Session> sessions;
  sessions.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    sessions.push_back(engine.openSession("soak-" + std::to_string(c)));

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Session& session = sessions[static_cast<std::size_t>(c)];
      Rng rng(1000 + static_cast<std::uint64_t>(c));
      std::vector<std::future<Response>> inflight;
      auto settle = [&](std::future<Response>& future) {
        // "Resolves or rejects" with a hard bound: a future still pending
        // after 60 s of grace is an abandoned promise — the exact bug this
        // soak exists to catch.
        if (future.wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready) {
          ++abandoned;
          return;
        }
        try {
          const Response resp = future.get();
          ++completed;
          if (resp.fallback) ++fallbacks;
        } catch (const RejectedError&) {
          ++rejected;
        } catch (...) {
          ++failed;
        }
      };

      while (std::chrono::steady_clock::now() < deadline) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.nextInt(0, static_cast<std::int64_t>(kShapeCount) - 1));
        const ShapePoint& shape = kShapes[pick];
        Request r;
        r.workload = shape.workload;
        r.config = configOf(shape);
        r.inputs = randomizedInputs(samples[pick], rng);
        // A third of the traffic carries deadlines, from "hopeless" (often
        // shed in the batcher or queue) to comfortable.
        const std::int64_t dice = rng.nextInt(0, 5);
        if (dice == 0) r.deadlineUs = rng.nextInt(50, 2'000);
        if (dice == 1) r.deadlineUs = rng.nextInt(100'000, 2'000'000);
        ++submitted;
        inflight.push_back(session.submit(std::move(r)));
        // Settle in waves so the in-flight set keeps breathing without
        // lock-stepping submit → get.
        if (inflight.size() >= 16) {
          for (auto& f : inflight) settle(f);
          inflight.clear();
        }
      }
      for (auto& f : inflight) settle(f);
    });
  }
  for (auto& t : clients) t.join();
  engine.drain();

  EXPECT_EQ(abandoned.load(), 0u);
  const std::uint64_t settledTotal =
      completed.load() + rejected.load() + failed.load();
  EXPECT_EQ(settledTotal, submitted.load());

  // Engine-side counters agree with the client-side tallies.
  const serve::MetricsSnapshot snap = engine.metrics();
  EXPECT_EQ(snap.requests, completed.load());
  EXPECT_EQ(snap.rejectedTotal(), rejected.load());
  EXPECT_EQ(snap.errors, failed.load());
  EXPECT_EQ(snap.fallbackRequests, fallbacks.load());
  for (const Session& session : sessions) EXPECT_EQ(session.inFlight(), 0);

  // The cache churned, and more than one scripted compile fault fired (the
  // evictions keep recompiles coming), so the negative cache and the
  // fallback path saw soak traffic too.
  const ProgramCache::Stats cs = engine.cacheStats();
  EXPECT_GE(cs.evictions, 1u);
  EXPECT_GE(injector.faultsInjected(), 2u);

  std::printf("soak: %llu submitted, %llu ok (%llu fallback), %llu rejected, "
              "%llu errors; cache: %llu compiles, %llu failures, %llu "
              "evictions\n",
              static_cast<unsigned long long>(submitted.load()),
              static_cast<unsigned long long>(completed.load()),
              static_cast<unsigned long long>(fallbacks.load()),
              static_cast<unsigned long long>(rejected.load()),
              static_cast<unsigned long long>(failed.load()),
              static_cast<unsigned long long>(cs.compiles),
              static_cast<unsigned long long>(cs.compileFailures),
              static_cast<unsigned long long>(cs.evictions));
}

TEST(ServeSoakTest, DecodeSessionChurnBalancesKvAndCounters) {
  if (!soakEnabled())
    GTEST_SKIP() << "soak disabled; set TSSA_SOAK=1 (and optionally "
                    "TSSA_SOAK_SECONDS) to run";

  // Decode churn: sessions of randomized prompt/generation lengths joining
  // and leaving the continuous step batch for the soak duration, under a
  // deliberately tight KV budget and admission queue so every shedding path
  // (KvExhausted, QueueFull, Deadline) sees sustained traffic. The
  // invariants mirror the engine soak: every future settles, the outcome
  // tallies balance, and the paged KV cache returns to exactly zero.
  serve::DecodeOptions options;
  options.maxStepBatch = 4;
  options.maxActiveSessions = 6;
  options.maxQueuedSessions = 32;
  options.ctxBuckets = {8, 16, 32};
  options.kvPageTokens = 8;
  options.kvMaxPages = 20;  // < maxActive x worst case: admission shedding
  serve::DecodeScheduler sched(options);

  constexpr int kClients = 3;
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> abandoned{0};
  std::atomic<std::uint64_t> kvShed{0};

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(soakSeconds());

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(2000 + static_cast<std::uint64_t>(c));
      std::vector<std::future<serve::DecodeResult>> inflight;
      auto settle = [&](std::future<serve::DecodeResult>& future) {
        if (future.wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready) {
          ++abandoned;
          return;
        }
        try {
          (void)future.get();
          ++completed;
        } catch (const RejectedError& e) {
          ++rejected;
          if (e.reason() == serve::RejectReason::KvExhausted) ++kvShed;
        } catch (...) {
          ++failed;
        }
      };

      while (std::chrono::steady_clock::now() < deadline) {
        serve::DecodeRequest r;
        const std::int64_t promptLen = rng.nextInt(1, 5);
        // Mostly fits; the tail exceeds the largest bucket so submit-time
        // KV shedding fires throughout the run, not just at startup.
        r.generate = rng.nextInt(1, 5) == 5 ? rng.nextInt(30, 40)
                                            : rng.nextInt(1, 20);
        r.prompt = serve::DecodeScheduler::randomPrompt(
            promptLen, 3000 + static_cast<std::uint64_t>(c));
        const std::int64_t dice = rng.nextInt(0, 5);
        if (dice == 0) r.deadlineUs = rng.nextInt(50, 2'000);
        if (dice == 1) r.deadlineUs = rng.nextInt(500'000, 5'000'000);
        ++submitted;
        inflight.push_back(sched.submit(std::move(r)));
        if (inflight.size() >= 8) {
          for (auto& f : inflight) settle(f);
          inflight.clear();
        }
      }
      for (auto& f : inflight) settle(f);
    });
  }
  for (auto& t : clients) t.join();
  sched.drain();

  EXPECT_EQ(abandoned.load(), 0u);
  const std::uint64_t settledTotal =
      completed.load() + rejected.load() + failed.load();
  EXPECT_EQ(settledTotal, submitted.load());

  const serve::DecodeMetricsSnapshot snap = sched.metrics();
  EXPECT_EQ(snap.sessionsSubmitted, submitted.load());
  EXPECT_EQ(snap.sessionsCompleted, completed.load());
  EXPECT_EQ(snap.rejectedTotal(), rejected.load());
  EXPECT_EQ(snap.joins, snap.leaves);  // every joiner left again

  // The paged KV cache drained to exactly zero: no leaked pages, no stale
  // reservations, every alloc matched by a free.
  EXPECT_EQ(snap.kv.pagesInUse, 0);
  EXPECT_EQ(snap.kv.pagesReserved, 0);
  EXPECT_EQ(snap.kv.activeSessions, 0);
  EXPECT_EQ(snap.kv.pageAllocs, snap.kv.pageFrees);
  EXPECT_LE(snap.kv.pagesHighWater, options.kvMaxPages);

  std::printf("decode soak: %llu submitted, %llu ok, %llu rejected "
              "(%llu kv_exhausted), %llu errors; %llu steps over %llu "
              "iterations, occupancy %.2f, kv high water %lld pages\n",
              static_cast<unsigned long long>(submitted.load()),
              static_cast<unsigned long long>(completed.load()),
              static_cast<unsigned long long>(rejected.load()),
              static_cast<unsigned long long>(kvShed.load()),
              static_cast<unsigned long long>(failed.load()),
              static_cast<unsigned long long>(snap.steps),
              static_cast<unsigned long long>(snap.iterations),
              snap.meanOccupancy,
              static_cast<long long>(snap.kv.pagesHighWater));
}

}  // namespace
}  // namespace tssa
