// Shard-scaling bench: the Router tier (src/serve/router.h) under a
// deterministic bursty open-loop trace (bench/trace_gen.h), 1 vs 2 vs 4
// shards. Four sections, each a tssa-bench-v1 record gated in CI:
//
//   * scaling — the same overload trace against 1/2/4 shards. Each Engine
//     models ONE simulated device (DESIGN.md §1: kernels are costed
//     analytically; numerics run on host), so tier throughput is measured
//     over the SIMULATED clock: a shard's busy time is its accumulated
//     profiler sim time (MetricsSnapshot::simBusyUs), and the tier's
//     makespan is the busiest shard — work-conserving shards under
//     overload retire their queues back-to-back. This is deterministic and
//     machine-independent, unlike wall clock on a host with fewer cores
//     than shards (this bench must hold on a 1-core CI runner, where four
//     shards' host work serializes and wall time cannot scale). Wall-clock
//     rps/p99 are still recorded as trend data. Meanwhile the tier-wide
//     compile count stays EXACTLY flat (cache-affinity routing — every
//     program key compiles once, on its home shard, whatever the shard
//     count). extra.compiles is exact-gated; the bench itself exits
//     nonzero unless the 4-shard run clears 2.5x the 1-shard simulated
//     throughput.
//   * decode mix — one-shot traffic plus decode sessions on a 2-shard
//     tier with decode enabled: all sessions share the polymorphic
//     decode_step key's home shard, compiles stay exact, no KV page leaks,
//     nothing shed.
//   * shed burst — a same-key burst into bounded queues with one retry
//     hop: the home shard sheds, the ring neighbor absorbs, the rest is
//     refused. Rejections are expected here (the record's rejected count
//     is nonzero in the baseline, so the stays-zero gate does not apply).
//   * drain + roll — serial rolling-restart walkthrough: drain the home
//     shard (traffic hops over without consuming retry budget), restart it
//     fresh, traffic returns. Deterministic compile arithmetic, zero
//     errors.
//
// Usage: shard_scaling [--reps=N] [--json=PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/trace_gen.h"
#include "src/serve/router.h"

namespace {

using namespace tssa;
using serve::DecodeRequest;
using serve::DecodeResult;
using serve::DecodeScheduler;
using serve::Request;
using serve::Response;
using serve::Router;
using serve::RouterOptions;

using Clock = std::chrono::steady_clock;

/// The distinct program keys a trace touches — with cache-affine routing
/// and no retries, this is the exact tier-wide compile count at any shard
/// count.
std::set<std::string> distinctKeys(const std::vector<bench::TraceRequest>& t) {
  std::set<std::string> keys;
  for (const bench::TraceRequest& r : t)
    keys.insert(r.workload + "|" + std::to_string(r.config.seed));
  return keys;
}

/// Pre-materialized request payloads, one per trace entry, deduped by
/// (workload, batch, seqLen, seed). Building a workload's example inputs
/// walks the whole graph builder — leaving it to Engine::submit's
/// default-filling would serialize ~40ms per request on the submitting
/// thread and cap the open-loop rate far below what the shards can absorb.
/// Real clients send concrete tensors; the bench does the same.
class PayloadSet {
 public:
  explicit PayloadSet(const std::vector<bench::TraceRequest>& trace) {
    payloads_.reserve(trace.size());
    std::map<std::string, std::vector<runtime::RtValue>> cache;
    for (const bench::TraceRequest& r : trace) {
      const std::string key = r.workload + "|" + std::to_string(r.config.batch) +
                              "|" + std::to_string(r.config.seqLen) + "|" +
                              std::to_string(r.config.seed);
      auto it = cache.find(key);
      if (it == cache.end())
        it = cache.emplace(key, serve::Engine::defaultInputs(r.workload,
                                                             r.config)).first;
      payloads_.push_back(it->second);  // tensors share storage; copies are cheap
    }
  }
  Request request(const std::vector<bench::TraceRequest>& trace,
                  std::size_t i) const {
    Request req;
    req.workload = trace[i].workload;
    req.config = trace[i].config;
    req.inputs = payloads_[i];
    return req;
  }

 private:
  std::vector<std::vector<runtime::RtValue>> payloads_;
};

/// Sleep until `atUs` past `t0` (open-loop: the schedule never waits for
/// completions).
void holdUntil(Clock::time_point t0, double atUs) {
  std::this_thread::sleep_until(
      t0 + std::chrono::microseconds(static_cast<std::int64_t>(atUs)));
}

struct TraceRun {
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  double elapsedUs = 0;  ///< first submit -> every future settled + drained
};

/// Plays the whole trace open-loop against `router` and settles every
/// future.
TraceRun playTrace(Router& router, const std::vector<bench::TraceRequest>& trace,
                   const PayloadSet& payloads) {
  std::vector<std::future<Response>> futures;
  futures.reserve(trace.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    holdUntil(t0, trace[i].atUs);
    futures.push_back(router.submit(payloads.request(trace, i)));
  }
  TraceRun run;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++run.served;
    } catch (const serve::RejectedError&) {
      ++run.rejected;
    } catch (const std::exception&) {
      ++run.errors;
    }
  }
  router.drain();
  run.elapsedUs =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  return run;
}

/// Shard-tier engine options shared by every section: one worker per
/// shard (scaling must come from shard count, not intra-shard
/// parallelism), a cache big enough that no key is ever evicted.
serve::EngineOptions shardEngineOptions() {
  serve::EngineOptions o;
  o.pipeline.threads = 1;
  o.executeConcurrency = 1;
  o.maxBatch = 4;
  o.maxWaitUs = 200;
  o.cacheCapacity = 64;
  return o;
}

// ---- Section 1: throughput scaling, compile flatness ----------------------

bool printScaling(const bench::BenchFlags& flags, bench::BenchReport& report) {
  bench::TraceOptions to;
  to.seed = 40;
  to.requests = 64 * flags.reps;
  // Six weight seeds x 8 workloads = 48 possible program keys: per-request
  // device cost varies ~50x across workloads (seq2seq dwarfs attention), so
  // the trace needs enough distinct ring points that no shard inherits an
  // outsized share of the expensive keys. Placement is deterministic, so
  // balance is a property of the trace, fixed once here.
  to.seeds = {42, 43, 44, 45, 46, 47};
  to.meanGapUs = 150;  // arrivals far outpace one serial shard: overload
  const std::vector<bench::TraceRequest> trace = bench::generateTrace(to);
  const PayloadSet payloads(trace);
  const std::size_t keys = distinctKeys(trace).size();

  std::printf("=== Shard scaling: %zu requests over %zu program keys "
              "(8 workloads x %zu seeds), open-loop bursty arrivals ===\n",
              trace.size(), keys, to.seeds.size());
  std::printf("(throughput over the simulated device clock: one modelled "
              "device per shard,\n tier makespan = busiest shard; wall "
              "columns are host-dependent trend data)\n");
  std::printf("%7s %9s %12s %10s %11s %9s %10s %14s\n", "shards", "served",
              "sim-busy-ms", "sim-rps", "wall-rps", "p99-ms", "compiles",
              "per-shard");
  bench::printRule(7 + 10 + 13 + 11 + 12 + 10 + 11 + 15);

  double makespan1 = 0;
  double makespan4 = 0;
  for (int shards : {1, 2, 4}) {
    RouterOptions ro;
    ro.shards = shards;
    // Retries trade a duplicate compile for availability; the queues here
    // are unbounded, so zero hops keeps the compile count exact.
    ro.maxRetryHops = 0;
    ro.engine = shardEngineOptions();
    // One request per executed batch: coalescing depends on arrival races,
    // and a batched run's sim time differs from the sum of its members'
    // solo runs — maxBatch=1 makes each shard's sim busy time a pure
    // function of routing, identical on every host.
    ro.engine.maxBatch = 1;
    Router router(ro);
    const TraceRun run = playTrace(router, trace, payloads);

    const std::vector<serve::MetricsSnapshot> perShard = router.shardMetrics();
    std::uint64_t compiles = 0;
    std::uint64_t fallbacks = 0;
    double simTotalUs = 0;
    double simMakespanUs = 0;  // busiest simulated device
    std::string spread;
    for (const serve::MetricsSnapshot& m : perShard) {
      compiles += m.cacheCompiles;
      fallbacks += m.fallbackRequests;
      simTotalUs += m.simBusyUs;
      simMakespanUs = std::max(simMakespanUs, m.simBusyUs);
      spread += (spread.empty() ? "" : "/") + std::to_string(m.cacheCompiles);
    }
    const serve::MetricsSnapshot merged = router.mergedMetrics();
    const double wallRps = 1e6 * static_cast<double>(run.served) / run.elapsedUs;
    const double simRps =
        simMakespanUs > 0
            ? 1e6 * static_cast<double>(run.served) / simMakespanUs
            : 0;
    if (shards == 1) makespan1 = simMakespanUs;
    if (shards == 4) makespan4 = simMakespanUs;

    std::printf("%7d %9llu %12.1f %10.0f %11.0f %9.1f %10llu %14s\n", shards,
                static_cast<unsigned long long>(run.served),
                simMakespanUs * 1e-3, simRps, wallRps,
                merged.total.p99Us * 1e-3,
                static_cast<unsigned long long>(compiles), spread.c_str());

    bench::BenchRecord rec;
    rec.name = "shard/scale_s" + std::to_string(shards);
    rec.workload = "mix8";
    rec.pipeline = "tensor-ssa";
    rec.extra.emplace_back("shards", static_cast<double>(shards));
    rec.extra.emplace_back("served", static_cast<double>(run.served));
    // The headline scaling metric: simulated-device makespan and the
    // throughput it implies. simTotalUs is the same at every shard count
    // (the same requests run the same programs); only its split across
    // devices changes — that invariant is visible across the three records.
    rec.extra.emplace_back("sim_makespan_us", simMakespanUs);
    rec.extra.emplace_back("sim_total_us", simTotalUs);
    rec.extra.emplace_back("sim_rps", simRps);
    // Host-dependent trend data (not meaningful on a 1-core runner).
    rec.extra.emplace_back("wall_rps", wallRps);
    rec.extra.emplace_back("p99_us", merged.total.p99Us);
    // Exact-gated: cache-affinity means the tier compiles each key once,
    // so this number is `keys` at EVERY shard count — if routing stops
    // being affine (or retries sneak in) it grows and CI fails.
    rec.extra.emplace_back("compiles", static_cast<double>(compiles));
    // Deterministically zero (unbounded queues, no deadlines, no retry
    // hops): gated to stay zero.
    rec.extra.emplace_back("rejected", static_cast<double>(run.rejected));
    rec.extra.emplace_back("errors", static_cast<double>(run.errors));
    rec.extra.emplace_back("fallback", static_cast<double>(fallbacks));
    report.add(std::move(rec));
  }

  const double speedup = makespan4 > 0 ? makespan1 / makespan4 : 0;
  const bool ok = speedup >= 2.5;
  std::printf("(4-shard simulated throughput = %.2fx 1-shard on the same "
              "trace%s; compile total identical at every shard count)\n",
              speedup, ok ? "" : " — BELOW the 2.5x floor, FAILING");
  bench::BenchRecord rec;
  rec.name = "shard/speedup_4v1";
  rec.workload = "mix8";
  rec.pipeline = "tensor-ssa";
  rec.extra.emplace_back("speedup_sim", speedup);
  report.add(std::move(rec));
  return ok;
}

// ---- Section 2: one-shot + decode mix on a decode-enabled tier ------------

void printDecodeMix(const bench::BenchFlags& flags,
                    bench::BenchReport& report) {
  bench::TraceOptions to;
  to.seed = 11;
  to.requests = 16 * flags.reps;
  to.meanGapUs = 300;
  to.decodeSessions = 6;
  to.decodeGapUs = 500;
  const std::vector<bench::TraceRequest> trace = bench::generateTrace(to);
  const PayloadSet payloads(trace);
  const std::vector<bench::TraceSession> sessions =
      bench::generateSessions(to);
  const std::size_t keys = distinctKeys(trace).size();

  RouterOptions ro;
  ro.shards = 2;
  ro.maxRetryHops = 0;
  ro.engine = shardEngineOptions();
  ro.enableDecode = true;
  ro.decode.maxStepBatch = 4;
  ro.decode.maxActiveSessions = 4;
  ro.decode.ctxBuckets = {16, 32};
  ro.decode.kvPageTokens = 16;
  Router router(ro);
  const int decodeHome = router.decodeHomeShard();

  // Interleave both open-loop schedules on one clock.
  std::vector<std::future<Response>> oneShot;
  std::vector<std::future<DecodeResult>> decodes;
  std::size_t ri = 0;
  std::size_t si = 0;
  const auto t0 = Clock::now();
  while (ri < trace.size() || si < sessions.size()) {
    const bool takeRequest =
        si >= sessions.size() ||
        (ri < trace.size() && trace[ri].atUs <= sessions[si].atUs);
    if (takeRequest) {
      holdUntil(t0, trace[ri].atUs);
      oneShot.push_back(router.submit(payloads.request(trace, ri)));
      ++ri;
    } else {
      holdUntil(t0, sessions[si].atUs);
      DecodeRequest d;
      d.prompt = DecodeScheduler::randomPrompt(sessions[si].promptLen,
                                               sessions[si].promptSeed);
      d.generate = sessions[si].generate;
      decodes.push_back(router.submitDecode(std::move(d)));
      ++si;
    }
  }
  std::uint64_t served = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  for (auto& f : oneShot) {
    try {
      (void)f.get();
      ++served;
    } catch (const std::exception&) {
      ++errors;
    }
  }
  for (auto& f : decodes) {
    try {
      (void)f.get();
      ++completed;
    } catch (const std::exception&) {
      ++errors;
    }
  }
  router.drain();

  std::uint64_t compiles = 0;
  std::uint64_t rejected = 0;
  for (const serve::MetricsSnapshot& m : router.shardMetrics()) {
    compiles += m.cacheCompiles;
    rejected += m.rejectedTotal();
  }
  std::int64_t kvLeaked = 0;
  std::uint64_t steps = 0;
  for (const serve::DecodeMetricsSnapshot& m : router.shardDecodeMetrics()) {
    kvLeaked += m.kv.pagesInUse;
    steps += m.steps;
    rejected += m.rejectedTotal();
  }
  // The polymorphic decode_step programs compile on the inner engines;
  // every session routes to one home shard, so exactly one shard pays
  // exactly one compile.
  for (int s = 0; s < router.shards(); ++s)
    if (DecodeScheduler* d = router.decode(s))
      compiles += d->engineMetrics().cacheCompiles;

  std::printf("\n=== Decode mix: %zu one-shot requests (%zu keys) + %zu "
              "decode sessions on 2 shards (decode home: shard %d) ===\n",
              trace.size(), keys, sessions.size(), decodeHome);
  std::printf("served %llu, sessions %llu (%llu steps), errors %llu; "
              "compiles %llu, kv leaked %lld, rejected %llu\n",
              static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(steps),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(compiles),
              static_cast<long long>(kvLeaked),
              static_cast<unsigned long long>(rejected));

  bench::BenchRecord rec;
  rec.name = "shard/decode_mix_s2";
  rec.workload = "mix8+decode";
  rec.pipeline = "tensor-ssa";
  rec.extra.emplace_back("served", static_cast<double>(served));
  rec.extra.emplace_back("sessions", static_cast<double>(completed));
  rec.extra.emplace_back("steps", static_cast<double>(steps));
  // Exact-gated: one-shot keys + exactly one decode_step compile tier-wide.
  rec.extra.emplace_back("compiles", static_cast<double>(compiles));
  // Deterministically zero; gated to stay zero.
  rec.extra.emplace_back("kv_leaked", static_cast<double>(kvLeaked));
  rec.extra.emplace_back("rejected", static_cast<double>(rejected));
  rec.extra.emplace_back("errors", static_cast<double>(errors));
  report.add(std::move(rec));
}

// ---- Section 3: shed-and-retry under a same-key burst ---------------------

void printShedBurst(const bench::BenchFlags& flags,
                    bench::BenchReport& report) {
  const int burst = 32 * flags.reps;

  RouterOptions ro;
  ro.shards = 2;
  ro.maxRetryHops = 1;
  ro.engine = shardEngineOptions();
  ro.engine.maxQueueDepth = 2;
  ro.engine.maxBatch = 2;
  // A long window parks admitted requests in the open batch, so the burst
  // sees full queues instead of racing executions.
  ro.engine.maxWaitUs = 100'000;
  Router router(ro);

  Request burstKey;
  burstKey.workload = "lstm";
  burstKey.config.batch = 1;
  burstKey.config.seqLen = 16;
  burstKey.inputs = serve::Engine::defaultInputs("lstm", burstKey.config);

  // Pre-warm the burst key on EVERY shard: the section measures admission
  // and retry behavior, not compilation on the overflow shard.
  for (int s = 0; s < router.shards(); ++s)
    (void)router.engine(s).submit(burstKey).get();

  std::vector<std::future<Response>> futures;
  futures.reserve(static_cast<std::size_t>(burst));
  for (int i = 0; i < burst; ++i) futures.push_back(router.submit(burstKey));
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++served;
    } catch (const serve::RejectedError&) {
      ++shed;
    } catch (const std::exception&) {
      ++errors;
    }
  }
  router.drain();
  const Router::Stats stats = router.stats();

  std::printf("\n=== Shed burst: %d same-key submits, 2 shards, queue depth "
              "2, 1 retry hop ===\n", burst);
  std::printf("served %llu, shed %llu, errors %llu; retry hops %llu "
              "(home shard full -> ring neighbor -> refuse)\n",
              static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(stats.retryHops));

  bench::BenchRecord rec;
  rec.name = "shard/shed_burst_s2";
  rec.workload = "lstm";
  rec.pipeline = "tensor-ssa";
  rec.extra.emplace_back("offered", static_cast<double>(burst));
  rec.extra.emplace_back("served", static_cast<double>(served));
  // Nonzero by construction (the burst dwarfs both queues), so the
  // stays-zero gate does not bind; recorded for trend inspection.
  rec.extra.emplace_back("rejected", static_cast<double>(shed));
  rec.extra.emplace_back("retry_hops", static_cast<double>(stats.retryHops));
  rec.extra.emplace_back("errors", static_cast<double>(errors));
  report.add(std::move(rec));
}

// ---- Section 4: rolling restart -------------------------------------------

void printDrainRoll(bench::BenchReport& report) {
  RouterOptions ro;
  ro.shards = 2;
  ro.maxRetryHops = 0;
  ro.engine = shardEngineOptions();
  ro.engine.maxWaitUs = 0;  // serial walkthrough: no batching window
  Router router(ro);

  Request probe;
  probe.workload = "lstm";
  probe.config.batch = 1;
  probe.config.seqLen = 16;
  const int home = router.homeShard(probe);

  std::uint64_t served = 0;
  std::uint64_t errors = 0;
  const auto sendOne = [&] {
    Request r = probe;
    try {
      (void)router.submit(std::move(r)).get();
      ++served;
    } catch (const std::exception&) {
      ++errors;
    }
  };

  sendOne();                  // compiles on the home shard
  router.drainShard(home);    // Serving -> Draining -> Drained
  sendOne();                  // hops over the drained shard (no retry
                              // budget needed), compiles on the neighbor
  router.restartShard(home);  // fresh engine, empty cache, same warm pool
  sendOne();                  // back home; the fresh cache compiles again

  router.drain();
  const Router::Stats stats = router.stats();
  std::uint64_t compiles = 0;
  for (const serve::MetricsSnapshot& m : router.shardMetrics())
    compiles += m.cacheCompiles;

  std::printf("\n=== Drain + roll: home shard %d drained, hopped over, "
              "restarted fresh ===\n", home);
  std::printf("served %llu, errors %llu; drains %llu, restarts %llu, drain "
              "skips %llu; compiles now visible: %llu (neighbor 1 + fresh "
              "home 1; the pre-drain compile retired with its engine)\n",
              static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(stats.drains),
              static_cast<unsigned long long>(stats.restarts),
              static_cast<unsigned long long>(stats.drainSkips),
              static_cast<unsigned long long>(compiles));

  bench::BenchRecord rec;
  rec.name = "shard/drain_roll_s2";
  rec.workload = "lstm";
  rec.pipeline = "tensor-ssa";
  rec.extra.emplace_back("served", static_cast<double>(served));
  // Exact-gated: neighbor compile + fresh-home compile, nothing else.
  rec.extra.emplace_back("compiles", static_cast<double>(compiles));
  rec.extra.emplace_back("drains", static_cast<double>(stats.drains));
  rec.extra.emplace_back("restarts", static_cast<double>(stats.restarts));
  rec.extra.emplace_back("drain_skips",
                         static_cast<double>(stats.drainSkips));
  // Deterministically zero; gated to stay zero.
  rec.extra.emplace_back("errors", static_cast<double>(errors));
  rec.extra.emplace_back("retry_hops", static_cast<double>(stats.retryHops));
  report.add(std::move(rec));
}

}  // namespace

int main(int argc, char** argv) {
  tssa::bench::BenchFlags flags = tssa::bench::BenchFlags::parse(argc, argv);
  tssa::bench::BenchReport report("shard_scaling", flags);
  const bool scalingOk = printScaling(flags, report);
  printDecodeMix(flags, report);
  printShedBurst(flags, report);
  printDrainRoll(report);
  report.finish();
  // Self-gating: CI runs this binary, so the 2.5x simulated-scaling floor
  // is enforced by the exit code (check_bench.py gates the counters).
  return scalingOk ? 0 : 1;
}
