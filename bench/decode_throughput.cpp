// Decode-serving throughput bench: iteration-level continuous batching vs
// the naive run-to-completion baseline over the same open-loop arrival
// trace of mixed-length decode sessions.
//
// The trace is deterministic: session i has promptLen 2 + (3i mod 4) and
// generate 4 + (7i mod 21), submitted open-loop (fixed inter-arrival gap,
// independent of completions). Run-to-completion admits a wave and refuses
// new arrivals until the wave fully drains, so mixed generation lengths
// leave it stepping a lone straggler at occupancy 1; continuous batching
// back-fills the freed slots the very next iteration. The headline number
// is session-steps/sec — same work, same arrivals, only the scheduling
// policy differs.
//
// The second section is a deterministic KV-footprint run: N identical
// sessions admitted together, so the paged KV cache's high-water mark is
// exactly N x ceil(tokens/pageTokens) pages. That count is recorded as
// extra.kv_pages and gated EXACTLY by scripts/check_bench.py (like
// kernel_launches): any increase means the allocator started holding more
// pages for the same traffic. extra.kv_leaked (pages still in use after
// drain) is likewise gated at 0.
//
// Usage: decode_throughput [--reps=N] [--json=PATH]
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/decode.h"

namespace {

using namespace tssa;
using serve::DecodeMetricsSnapshot;
using serve::DecodeOptions;
using serve::DecodeRequest;
using serve::DecodeResult;
using serve::DecodeScheduler;

struct SessionSpec {
  std::int64_t promptLen;
  std::int64_t generate;
};

/// Deterministic mixed-length trace (no RNG: the bench gate wants the same
/// session mix on every machine).
std::vector<SessionSpec> mixedTrace(int n) {
  std::vector<SessionSpec> specs;
  specs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    specs.push_back({2 + (3 * i) % 4, 4 + (7 * i) % 21});
  return specs;
}

struct RunResult {
  DecodeMetricsSnapshot decode;
  serve::MetricsSnapshot engine;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
};

/// Submits `specs` open-loop (one session every `arrivalGapUs`, regardless
/// of completions) and drains.
RunResult runTrace(const DecodeOptions& options,
                   const std::vector<SessionSpec>& specs,
                   std::int64_t arrivalGapUs) {
  DecodeScheduler sched(options);
  std::vector<std::future<DecodeResult>> futures;
  futures.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    DecodeRequest r;
    r.prompt = DecodeScheduler::randomPrompt(specs[i].promptLen,
                                             1000 + static_cast<std::uint64_t>(i));
    r.generate = specs[i].generate;
    futures.push_back(sched.submit(std::move(r)));
    if (arrivalGapUs > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(arrivalGapUs));
  }
  RunResult out;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++out.completed;
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  sched.drain();
  out.decode = sched.metrics();
  out.engine = sched.engineMetrics();
  return out;
}

DecodeOptions traceOptions(bool continuous) {
  DecodeOptions o;
  o.maxStepBatch = 4;
  o.maxActiveSessions = 4;
  o.ctxBuckets = {8, 16, 32};
  o.kvPageTokens = 16;
  o.continuous = continuous;
  return o;
}

void printComparison(const bench::BenchFlags& flags,
                     bench::BenchReport& report) {
  const int sessions = 8 + 4 * flags.reps;
  const std::vector<SessionSpec> specs = mixedTrace(sessions);
  std::int64_t totalSteps = 0;
  for (const SessionSpec& s : specs) totalSteps += s.promptLen + s.generate - 1;

  std::printf("=== Decode serving: %d mixed-length sessions "
              "(prompt 2..5, generate 4..24), open-loop arrivals, "
              "maxActive=4, maxStepBatch=4 ===\n",
              sessions);
  std::printf("%-14s %9s %10s %10s %10s %10s %10s\n", "policy", "steps",
              "steps/s", "occupancy", "batch-sz", "completed", "rejected");
  bench::printRule(14 + 6 * 11 + 10);

  double continuousRate = 0;
  double r2cRate = 0;
  for (bool continuous : {false, true}) {
    const RunResult run =
        runTrace(traceOptions(continuous), specs, /*arrivalGapUs=*/500);
    const DecodeMetricsSnapshot& m = run.decode;
    std::printf("%-14s %9llu %10.1f %10.2f %10.2f %10llu %10llu\n",
                continuous ? "continuous" : "run-to-compl",
                static_cast<unsigned long long>(m.steps), m.stepsPerSec,
                m.meanOccupancy, run.engine.meanBatchSize,
                static_cast<unsigned long long>(run.completed),
                static_cast<unsigned long long>(m.rejectedTotal()));
    (continuous ? continuousRate : r2cRate) = m.stepsPerSec;

    bench::BenchRecord rec;
    rec.name = std::string("decode/") + (continuous ? "continuous" : "r2c");
    rec.workload = "decode_step";
    rec.pipeline = "tensor-ssa";
    rec.extra.emplace_back("steps", static_cast<double>(m.steps));
    rec.extra.emplace_back("steps_per_s", m.stepsPerSec);
    rec.extra.emplace_back("mean_occupancy", m.meanOccupancy);
    rec.extra.emplace_back("mean_batch", run.engine.meanBatchSize);
    rec.extra.emplace_back("completed", static_cast<double>(run.completed));
    rec.extra.emplace_back("errors", static_cast<double>(run.failed));
    // Deterministically zero (no deadlines, unbounded queue and KV): the
    // gate fails if decode serving starts silently shedding.
    rec.extra.emplace_back("rejected",
                           static_cast<double>(m.rejectedTotal()));
    report.add(std::move(rec));
  }
  if (r2cRate > 0)
    std::printf("(continuous batching: %.2fx the run-to-completion "
                "steps/s over %lld total session-steps)\n",
                continuousRate / r2cRate,
                static_cast<long long>(totalSteps));
}

void printKvFootprint(bench::BenchReport& report) {
  // N identical sessions admitted together: every session appends exactly
  // promptLen + generate - 1 = 28 tokens, so with 16-token pages the cache
  // must peak at exactly N x 2 pages — deterministically, independent of
  // scheduling, because equal-length sessions retire in lockstep. Gated
  // exactly in CI.
  constexpr int kSessions = 6;
  constexpr std::int64_t kPromptLen = 4;
  constexpr std::int64_t kGenerate = 25;

  DecodeOptions options;
  options.maxStepBatch = kSessions;
  options.maxActiveSessions = kSessions;
  options.ctxBuckets = {32};
  options.kvPageTokens = 16;

  const std::vector<SessionSpec> specs(
      kSessions, SessionSpec{kPromptLen, kGenerate});
  const RunResult run = runTrace(options, specs, /*arrivalGapUs=*/0);
  const KvCache::Stats& kv = run.decode.kv;

  std::printf("\n=== KV footprint: %d identical sessions x %lld tokens, "
              "16-token pages ===\n",
              kSessions, static_cast<long long>(kPromptLen + kGenerate - 1));
  std::printf("high water %lld pages (%lld expected), in use after drain "
              "%lld, allocs %lld, frees %lld, slab bytes %lld\n",
              static_cast<long long>(kv.pagesHighWater),
              static_cast<long long>(kSessions * 2),
              static_cast<long long>(kv.pagesInUse),
              static_cast<long long>(kv.pageAllocs),
              static_cast<long long>(kv.pageFrees),
              static_cast<long long>(kv.slabBytes));

  bench::BenchRecord rec;
  rec.name = "decode/kv_footprint";
  rec.workload = "decode_step";
  rec.pipeline = "tensor-ssa";
  rec.extra.emplace_back("kv_pages", static_cast<double>(kv.pagesHighWater));
  rec.extra.emplace_back("kv_leaked", static_cast<double>(kv.pagesInUse));
  rec.extra.emplace_back("completed", static_cast<double>(run.completed));
  rec.extra.emplace_back("rejected",
                         static_cast<double>(run.decode.rejectedTotal()));
  report.add(std::move(rec));
}

}  // namespace

int main(int argc, char** argv) {
  tssa::bench::BenchFlags flags = tssa::bench::BenchFlags::parse(argc, argv);
  tssa::bench::BenchReport report("decode_throughput", flags);
  printComparison(flags, report);
  printKvFootprint(report);
  report.finish();
  return 0;
}
