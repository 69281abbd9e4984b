// Serving-engine throughput bench: drives the src/serve Engine with
// closed-loop concurrent clients over a mixed workload set and prints, per
// sweep point, the achieved requests/sec, latency percentiles, program-cache
// hit rate, and micro-batch occupancy. The interesting shapes:
//
//   * hit rate → 1 after the first request per workload: every later
//     request reuses the workload's polymorphic compiled program
//     (DESIGN.md §13), whatever its concrete shape;
//   * mean batch size grows with client count (more same-key arrivals per
//     window) and with the window itself;
//   * p50 stays near the single-run execution time while p99 absorbs the
//     batching window + compile spikes.
//
// Usage: serve_throughput [--threads=N] [--reps=N] [--pipeline=NAME]
//   --threads   client threads at the largest sweep point (default 4)
//   --reps      requests issued per client (default 3, scaled ×8 here since
//               serving wants more samples than a wall-clock rep)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/engine.h"

namespace {

using namespace tssa;
using serve::Engine;
using serve::EngineOptions;
using serve::MetricsSnapshot;
using serve::Request;
using serve::Response;
using serve::Session;

struct SweepPoint {
  int clients;
  std::int64_t maxWaitUs;
  int maxBatch;
};

/// One closed-loop run: `clients` threads, each submitting `perClient`
/// requests back-to-back over a fixed workload mix.
MetricsSnapshot runSweep(const SweepPoint& point, int perClient,
                         runtime::PipelineKind kind) {
  EngineOptions options;
  options.kind = kind;
  options.maxBatch = point.maxBatch;
  options.maxWaitUs = point.maxWaitUs;
  options.cacheCapacity = 32;
  Engine engine(options);

  const std::vector<std::string> mix = {"lstm", "attention", "seq2seq",
                                        "nasrnn"};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(point.clients));
  for (int c = 0; c < point.clients; ++c) {
    threads.emplace_back([&, c] {
      Session session = engine.openSession("client-" + std::to_string(c));
      for (int i = 0; i < perClient; ++i) {
        Request r;
        r.workload = mix[static_cast<std::size_t>((c + i) % mix.size())];
        r.config.batch = 1;
        r.config.seqLen = 16;
        try {
          Response resp = session.infer(std::move(r));
          (void)resp;
        } catch (const std::exception&) {
          ++failed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  engine.drain();

  MetricsSnapshot snap = engine.metrics();
  if (failed > 0)
    std::fprintf(stderr, "WARNING: %llu requests failed\n",
                 static_cast<unsigned long long>(failed.load()));
  return snap;
}

void printSweep(const bench::BenchFlags& flags, runtime::PipelineKind kind,
                bench::BenchReport& report) {
  const int perClient = flags.reps * 8;
  std::printf("\n=== Serving throughput: %s pipeline, %d requests/client, "
              "4-workload mix ===\n",
              std::string(runtime::pipelineName(kind)).c_str(), perClient);
  std::printf("%8s %9s %9s %9s %9s %9s %9s %9s %9s %10s\n", "clients",
              "window", "maxbatch", "rps", "p50-us", "p95-us", "p99-us",
              "hit-rate", "batch-sz", "compiles");
  bench::printRule(8 + 10 * 9 + 1);

  std::vector<SweepPoint> points = {
      {1, 0, 1},                    // no batching: per-request baseline
      {2, 200, 4},                  // light concurrency, short window
      {flags.threads, 200, 4},      // full client load, short window
      {flags.threads, 2000, 8},     // full load, long window: batch growth
  };
  // --threads=2 collapses the second and third point into one; drop the
  // duplicate (it would also collide in the --json record keys).
  points.erase(std::unique(points.begin(), points.end(),
                           [](const SweepPoint& a, const SweepPoint& b) {
                             return a.clients == b.clients &&
                                    a.maxWaitUs == b.maxWaitUs &&
                                    a.maxBatch == b.maxBatch;
                           }),
               points.end());
  for (const SweepPoint& p : points) {
    const MetricsSnapshot m = runSweep(p, perClient, kind);
    std::printf(
        "%8d %8lldus %9d %9.0f %9.0f %9.0f %9.0f %8.0f%% %9.2f %9llu\n",
        p.clients, static_cast<long long>(p.maxWaitUs), p.maxBatch,
        m.throughputRps, m.total.p50Us, m.total.p95Us, m.total.p99Us,
        100.0 * m.cacheHitRate(), m.meanBatchSize,
        static_cast<unsigned long long>(m.cacheCompiles));

    // Serving latencies are scheduling-noisy (closed-loop clients, batching
    // windows), so the record is NOT time-gated — CI keeps the numbers for
    // trend inspection but only hard-fails on deterministic counters.
    bench::BenchRecord rec;
    rec.name = "serve/" + std::string(runtime::pipelineName(kind)) + "/c" +
               std::to_string(p.clients) + "_w" + std::to_string(p.maxWaitUs) +
               "_b" + std::to_string(p.maxBatch);
    rec.workload = "mix4";
    rec.pipeline = std::string(runtime::pipelineName(kind));
    rec.extra.emplace_back("rps", m.throughputRps);
    rec.extra.emplace_back("p50_us", m.total.p50Us);
    rec.extra.emplace_back("p95_us", m.total.p95Us);
    rec.extra.emplace_back("p99_us", m.total.p99Us);
    rec.extra.emplace_back("hit_rate", m.cacheHitRate());
    rec.extra.emplace_back("mean_batch", m.meanBatchSize);
    rec.extra.emplace_back("requests", static_cast<double>(m.requests));
    rec.extra.emplace_back("errors", static_cast<double>(m.errors));
    rec.extra.emplace_back("compiles", static_cast<double>(m.cacheCompiles));
    // Deterministically zero in this closed-loop sweep (no deadlines, no
    // admission caps): scripts/check_bench.py fails the gate if a bench run
    // starts silently shedding or degrading where the baseline had none.
    rec.extra.emplace_back("rejected", static_cast<double>(m.rejectedTotal()));
    rec.extra.emplace_back("fallback",
                           static_cast<double>(m.fallbackRequests));
    report.add(std::move(rec));
  }
  std::printf("(hit-rate counts batched executions; every workload compiles "
              "one polymorphic program, then all later requests hit)\n");
}

/// Shape-storm run: one client sweeps 100 distinct sequence lengths over a
/// single workload. The engine keys programs on the workload's symbolic
/// pattern (DESIGN.md §13), so the whole storm runs through ONE polymorphic
/// program. The compile count is deterministic and CI-gates it exactly — a
/// change that lets any concrete extent into the program key makes every
/// length a new compile (and, past cacheCapacity=32, re-compiles of evicted
/// ones), so this record jumps from 1 to ~100 and the gate fails.
void printShapeStorm(runtime::PipelineKind kind, bench::BenchReport& report) {
  constexpr int kShapes = 100;
  EngineOptions options;
  options.kind = kind;
  options.maxBatch = 1;  // measure caching, not coalescing
  options.cacheCapacity = 32;
  Engine engine(options);

  std::uint64_t failed = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kShapes; ++i) {
    Request r;
    r.workload = "attention";
    r.config.batch = 1 + i % 3;    // 100 distinct (batch, seqLen) pairs
    r.config.seqLen = 4 + i;       // ...with 100 distinct sequence lengths
    try {
      (void)engine.submit(std::move(r)).get();
    } catch (const std::exception&) {
      ++failed;
    }
  }
  engine.drain();
  const double elapsedUs = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

  const MetricsSnapshot m = engine.metrics();
  std::printf("\n=== Shape storm: %s pipeline, %d distinct shapes, "
              "1 workload ===\n",
              std::string(runtime::pipelineName(kind)).c_str(), kShapes);
  std::printf("%d shapes -> %llu compiles, %zu cached programs, hit rate "
              "%.0f%% (p50 %.0fus p99 %.0fus)\n",
              kShapes,
              static_cast<unsigned long long>(m.cacheCompiles),
              engine.cacheStats().size, 100.0 * m.cacheHitRate(),
              m.total.p50Us, m.total.p99Us);
  std::printf("(polymorphic program keys: compile count stays flat while "
              "shape diversity grows)\n");

  bench::BenchRecord rec;
  rec.name = "serve/" + std::string(runtime::pipelineName(kind)) +
             "/shape_storm" + std::to_string(kShapes);
  rec.workload = "attention";
  rec.pipeline = std::string(runtime::pipelineName(kind));
  rec.extra.emplace_back("shapes", static_cast<double>(kShapes));
  // Deterministic; gated EXACTLY by scripts/check_bench.py.
  rec.extra.emplace_back("compiles", static_cast<double>(m.cacheCompiles));
  rec.extra.emplace_back("cache_size",
                         static_cast<double>(engine.cacheStats().size));
  rec.extra.emplace_back("rps", m.throughputRps);
  rec.extra.emplace_back("p50_us", m.total.p50Us);
  rec.extra.emplace_back("p99_us", m.total.p99Us);
  rec.extra.emplace_back("elapsed_us", elapsedUs);
  rec.extra.emplace_back("requests", static_cast<double>(m.requests));
  rec.extra.emplace_back("errors",
                         static_cast<double>(m.errors + failed));
  rec.extra.emplace_back("rejected", static_cast<double>(m.rejectedTotal()));
  rec.extra.emplace_back("fallback", static_cast<double>(m.fallbackRequests));
  report.add(std::move(rec));
}

/// Open-burst overload run: every client fires its whole burst of async
/// submits before settling any of them, so admission sees far more
/// outstanding work than maxQueueDepth allows. The engine sheds the excess
/// at admission (RejectedError, reason queue_full) instead of queueing it,
/// so the latency of *served* requests is bounded by the queue cap — it
/// does not grow with the burst size (DESIGN.md §10).
void printOverload(const bench::BenchFlags& flags, runtime::PipelineKind kind,
                   bench::BenchReport& report) {
  const int clients = std::max(2, flags.threads);
  const int burst = flags.reps * 32;  // per client, far beyond the queue cap
  const std::size_t queueDepth = 8;

  EngineOptions options;
  options.kind = kind;
  options.maxBatch = 4;
  options.maxWaitUs = 200;
  options.cacheCapacity = 32;
  options.maxQueueDepth = queueDepth;
  Engine engine(options);

  // Warm the solo program so the burst measures admission, not compilation.
  {
    Request warm;
    warm.workload = "lstm";
    warm.config.batch = 1;
    warm.config.seqLen = 16;
    engine.submit(std::move(warm)).get();
  }

  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Session session = engine.openSession("burst-" + std::to_string(c));
      std::vector<std::future<Response>> futures;
      futures.reserve(static_cast<std::size_t>(burst));
      for (int i = 0; i < burst; ++i) {
        Request r;
        r.workload = "lstm";
        r.config.batch = 1;
        r.config.seqLen = 16;
        futures.push_back(session.submit(std::move(r)));
      }
      for (auto& f : futures) {
        try {
          (void)f.get();
          ++served;
        } catch (const serve::RejectedError&) {
          ++shed;
        } catch (const std::exception&) {
          ++failed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  engine.drain();

  const MetricsSnapshot m = engine.metrics();
  const std::uint64_t offered =
      static_cast<std::uint64_t>(clients) * static_cast<std::uint64_t>(burst);
  std::printf("\n=== Overload (open burst): %s pipeline, %d clients x %d "
              "requests, maxQueueDepth=%zu ===\n",
              std::string(runtime::pipelineName(kind)).c_str(), clients,
              burst, queueDepth);
  std::printf("offered %llu: served %llu, shed %llu (%.0f%%), errors %llu; "
              "served p50 %.0fus p99 %.0fus\n",
              static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(served.load()),
              static_cast<unsigned long long>(shed.load()),
              offered ? 100.0 * static_cast<double>(shed.load()) /
                            static_cast<double>(offered)
                      : 0.0,
              static_cast<unsigned long long>(failed.load()), m.total.p50Us,
              m.total.p99Us);
  std::printf("(excess is refused at admission — served latency is bounded "
              "by the queue cap, not the burst size)\n");

  bench::BenchRecord rec;
  rec.name = "serve/" + std::string(runtime::pipelineName(kind)) +
             "/overload_q" + std::to_string(queueDepth);
  rec.workload = "lstm";
  rec.pipeline = std::string(runtime::pipelineName(kind));
  rec.extra.emplace_back("offered", static_cast<double>(offered));
  rec.extra.emplace_back("rps", m.throughputRps);
  rec.extra.emplace_back("p50_us", m.total.p50Us);
  rec.extra.emplace_back("p99_us", m.total.p99Us);
  rec.extra.emplace_back("requests", static_cast<double>(m.requests));
  rec.extra.emplace_back("rejected", static_cast<double>(m.rejectedTotal()));
  rec.extra.emplace_back("fallback", static_cast<double>(m.fallbackRequests));
  rec.extra.emplace_back("errors", static_cast<double>(failed.load()));
  report.add(std::move(rec));
}

}  // namespace

int main(int argc, char** argv) {
  tssa::bench::BenchFlags flags = tssa::bench::BenchFlags::parse(argc, argv);
  tssa::bench::BenchReport report("serve_throughput", flags);
  for (runtime::PipelineKind kind :
       {runtime::PipelineKind::Eager, runtime::PipelineKind::TensorSsa}) {
    if (!flags.enabled(kind)) continue;
    printSweep(flags, kind, report);
    printShapeStorm(kind, report);
    printOverload(flags, kind, report);
  }
  report.finish();
  return 0;
}
