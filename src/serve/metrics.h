// Engine-wide serving metrics: per-request latency decomposition (queue /
// compile / exec), latency percentiles, throughput, and micro-batch
// occupancy. Cache statistics live in ProgramCache and are merged into the
// snapshot by the Engine.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace tssa::serve {

/// Why the engine refused to serve a request. Delivered to the client as a
/// typed RejectedError (src/serve/request.h) on the submit future, and
/// counted per reason in `tssa_serve_rejected_total{reason=...}`.
/// DESIGN.md §10 has the full request state machine.
enum class RejectReason : int {
  Deadline = 0,    ///< the request's deadline expired before execution
  QueueFull,       ///< admission control: engine or session at capacity
  ShuttingDown,    ///< submitted after Engine::shutdown() began
  CompileFailed,   ///< program compile failed and the fallback path did too
  KvExhausted,     ///< decode session shed: KV cache could not reserve pages
  BadRequest,      ///< malformed at submit: unknown workload, bad inputs
};
inline constexpr int kNumRejectReasons = 6;

/// Stable metric-label name: "deadline", "queue_full", "shutting_down",
/// "compile_failed", "kv_exhausted", "bad_request".
std::string_view rejectReasonName(RejectReason reason);

/// Latency decomposition of one served request, all in microseconds.
struct RequestTiming {
  double queueUs = 0;    ///< submit → the batch actually starts executing
  /// Time this request spent blocked on program compilation (its own batch's
  /// compile or a concurrent single-flight one); 0 on a cache hit. Shared by
  /// every request of a coalesced batch — the engine-wide compile wall-clock
  /// is MetricsSnapshot::compileUsTotal, which counts each compile once.
  double compileUs = 0;
  double execUs = 0;     ///< batched run + response de-interleave
  double totalUs() const { return queueUs + compileUs + execUs; }
};

struct LatencyStats {
  double p50Us = 0;
  double p95Us = 0;
  double p99Us = 0;
  double meanUs = 0;
  double maxUs = 0;
};

/// Percentile semantics (nearest-rank) live in obs::Histogram; this just
/// renames the fields into the serving vocabulary.
LatencyStats toLatencyStats(const obs::HistogramStats& stats);

/// Point-in-time view of everything the engine measures.
struct MetricsSnapshot {
  std::uint64_t requests = 0;  ///< completed successfully
  std::uint64_t errors = 0;    ///< completed with an exception
  std::uint64_t batches = 0;   ///< executed micro-batches
  double meanBatchSize = 0;    ///< requests per executed batch
  LatencyStats total;          ///< end-to-end request latency
  LatencyStats queue;          ///< queueing component only
  LatencyStats exec;           ///< execution component only
  double throughputRps = 0;    ///< completions / wall-clock completion span

  // Program-cache counters (filled by the Engine from ProgramCache::stats).
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheEvictions = 0;
  std::uint64_t cacheCompiles = 0;
  std::uint64_t cacheCompileFailures = 0;  ///< compiles that threw
  std::uint64_t cacheNegativeHits = 0;  ///< lookups served a cached failure
  std::size_t cacheSize = 0;
  double compileUsTotal = 0;
  double cacheHitRate() const {
    const std::uint64_t n = cacheHits + cacheMisses;
    return n == 0 ? 0.0 : static_cast<double>(cacheHits) / static_cast<double>(n);
  }

  std::uint64_t sessionsOpened = 0;

  // Robustness counters (DESIGN.md §10). `rejected[r]` counts requests
  // refused with RejectReason r — load shedding and deadline misses are
  // first-class outcomes, not errors. `fallbackRequests` counts requests
  // served through the reference (eager, unbatched) pipeline after their
  // specialized compile failed; `decoalescedBatches` counts micro-batches
  // that were re-executed request-by-request after the batched run threw,
  // so one poisoned request cannot fail its co-batched peers.
  std::uint64_t rejected[kNumRejectReasons] = {};
  std::uint64_t fallbackRequests = 0;
  std::uint64_t decoalescedBatches = 0;
  std::uint64_t rejectedTotal() const {
    std::uint64_t n = 0;
    for (int r = 0; r < kNumRejectReasons; ++r) n += rejected[r];
    return n;
  }
  std::uint64_t rejectedFor(RejectReason reason) const {
    return rejected[static_cast<int>(reason)];
  }

  // Simulated device-busy time accumulated across executed batches: the sum
  // of each run's Profiler::simTimeUs(), i.e. total occupancy of the
  // engine's modelled device (DESIGN.md §1 — kernels are costed analytically,
  // numerics run on host). Each Engine models ONE device, so in a sharded
  // tier this is the per-device makespan contribution: deterministic,
  // machine-independent, and the honest basis for shard-scaling claims on
  // hosts whose physical core count cannot reflect N simulated devices.
  // Fallback (reference-pipeline) executions are not counted — they bypass
  // the device model's specialized path.
  double simBusyUs = 0;

  // Always zero; kept only because perfbench/perfbench.cpp reads them.
  std::uint64_t arenaFreshAllocs = 0;
  std::uint64_t arenaReusedAllocs = 0;

  /// One-line human-readable summary (used by bench/serve_throughput).
  std::string toString() const;
};

/// Exports the snapshot's scalar counters/gauges into `registry` under the
/// canonical `tssa_serve_*` names (DESIGN.md §9). The
/// latency histograms need the raw samples and are exported by
/// MetricsCollector::exportTo / Engine::exportMetrics.
///
/// `labels` is a rendered Prometheus label set (e.g. `shard="0"`) spliced
/// into every exported name via obs::withLabels. Two exporters writing the
/// same registry MUST use disjoint label sets: the canonical names are
/// engine-scoped, so two unlabeled Engines would silently overwrite each
/// other's counterSet values (the multi-shard collision DESIGN.md §14 fixes).
void exportSnapshot(const MetricsSnapshot& snapshot,
                    obs::MetricsRegistry& registry,
                    std::string_view labels = {});

/// Thread-safe recorder. All recording methods may be called from pool
/// workers; snapshots may be taken concurrently. Latency aggregation
/// (percentiles, mean, max) is delegated to obs::Histogram — this class
/// only owns the serving-specific scalar counters.
class MetricsCollector {
 public:
  /// Records one completed request and its batch context.
  void recordRequest(const RequestTiming& timing);
  /// Records one executed micro-batch of `size` requests.
  void recordBatch(int size);
  void recordError(int count);
  void recordSessionOpened();
  /// Records one rejected request (admission shed, deadline miss, ...).
  void recordRejected(RejectReason reason);
  /// Records one request served via the reference (fallback) pipeline.
  void recordFallback();
  /// Records one batch re-executed de-coalesced after its batched run threw.
  void recordDecoalesced();
  /// Records one executed batch's simulated device time (the program
  /// profiler's simTimeUs, read under the program's exec lock — run()
  /// resets the profiler).
  void recordSimBusy(double simUs);

  /// Fills the latency / throughput / batching part of `out` (the engine
  /// adds cache stats on top).
  void fill(MetricsSnapshot& out) const;

  /// Copies the latency samples into `registry` as
  /// tssa_serve_{request,queue,exec}_latency_us histograms, with `labels`
  /// spliced into the names (see exportSnapshot). Histograms accumulate, so
  /// several collectors exporting *unlabeled* into one registry merge their
  /// samples — that is how a Router builds the tier-wide latency view.
  void exportTo(obs::MetricsRegistry& registry,
                std::string_view labels = {}) const;

 private:
  obs::Histogram totalUs_;
  obs::Histogram queueUs_;
  obs::Histogram execUs_;
  mutable std::mutex mutex_;  ///< guards the scalars + completion span below
  std::uint64_t errors_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batchedRequests_ = 0;
  std::uint64_t sessions_ = 0;
  double simBusyUs_ = 0;
  std::uint64_t rejected_[kNumRejectReasons] = {};
  std::uint64_t fallbacks_ = 0;
  std::uint64_t decoalesced_ = 0;
  bool haveSpan_ = false;
  std::chrono::steady_clock::time_point firstComplete_;
  std::chrono::steady_clock::time_point lastComplete_;
};

}  // namespace tssa::serve
