#include "src/serve/metrics.h"

#include <cstdio>

namespace tssa::serve {

// The percentile/aggregation code that used to live here moved to
// src/obs/metrics.h (obs::Histogram, obs::percentileNearestRank): the
// serving engine and the runtime profiler now share one implementation and
// one set of canonical metric names instead of two divergent copies.

std::string_view rejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::Deadline: return "deadline";
    case RejectReason::QueueFull: return "queue_full";
    case RejectReason::ShuttingDown: return "shutting_down";
    case RejectReason::CompileFailed: return "compile_failed";
    case RejectReason::KvExhausted: return "kv_exhausted";
    case RejectReason::BadRequest: return "bad_request";
  }
  return "unknown";
}

LatencyStats toLatencyStats(const obs::HistogramStats& stats) {
  LatencyStats s;
  s.p50Us = stats.p50;
  s.p95Us = stats.p95;
  s.p99Us = stats.p99;
  s.meanUs = stats.mean;
  s.maxUs = stats.max;
  return s;
}

void MetricsCollector::recordRequest(const RequestTiming& timing) {
  const auto now = std::chrono::steady_clock::now();
  totalUs_.observe(timing.totalUs());
  queueUs_.observe(timing.queueUs);
  execUs_.observe(timing.execUs);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!haveSpan_) {
    firstComplete_ = now;
    haveSpan_ = true;
  }
  lastComplete_ = now;
}

void MetricsCollector::recordBatch(int size) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++batches_;
  batchedRequests_ += static_cast<std::uint64_t>(size);
}

void MetricsCollector::recordError(int count) {
  std::lock_guard<std::mutex> lock(mutex_);
  errors_ += static_cast<std::uint64_t>(count);
}

void MetricsCollector::recordSessionOpened() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++sessions_;
}

void MetricsCollector::recordRejected(RejectReason reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++rejected_[static_cast<int>(reason)];
}

void MetricsCollector::recordFallback() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++fallbacks_;
}

void MetricsCollector::recordDecoalesced() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++decoalesced_;
}

void MetricsCollector::recordSimBusy(double simUs) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (simUs > 0) simBusyUs_ += simUs;
}

void MetricsCollector::fill(MetricsSnapshot& out) const {
  const obs::HistogramStats total = totalUs_.stats();
  out.requests = total.count;
  out.total = toLatencyStats(total);
  out.queue = toLatencyStats(queueUs_.stats());
  out.exec = toLatencyStats(execUs_.stats());

  std::lock_guard<std::mutex> lock(mutex_);
  out.errors = errors_;
  out.batches = batches_;
  out.meanBatchSize =
      batches_ == 0 ? 0.0
                    : static_cast<double>(batchedRequests_) /
                          static_cast<double>(batches_);
  out.sessionsOpened = sessions_;
  out.simBusyUs = simBusyUs_;
  for (int r = 0; r < kNumRejectReasons; ++r) out.rejected[r] = rejected_[r];
  out.fallbackRequests = fallbacks_;
  out.decoalescedBatches = decoalesced_;
  out.throughputRps = 0;
  if (haveSpan_ && total.count > 1) {
    const double spanUs = std::chrono::duration<double, std::micro>(
                              lastComplete_ - firstComplete_)
                              .count();
    if (spanUs > 0)
      out.throughputRps =
          static_cast<double>(total.count - 1) / (spanUs * 1e-6);
  }
}

void MetricsCollector::exportTo(obs::MetricsRegistry& registry,
                                std::string_view labels) const {
  const std::vector<double> total = totalUs_.samples();
  const std::vector<double> queue = queueUs_.samples();
  const std::vector<double> exec = execUs_.samples();
  registry.observeMany(
      obs::withLabels("tssa_serve_request_latency_us", labels), total);
  registry.observeMany(obs::withLabels("tssa_serve_queue_latency_us", labels),
                       queue);
  registry.observeMany(obs::withLabels("tssa_serve_exec_latency_us", labels),
                       exec);
}

void exportSnapshot(const MetricsSnapshot& snapshot,
                    obs::MetricsRegistry& registry, std::string_view labels) {
  const auto counter = [&](const char* name, std::uint64_t value) {
    registry.counterSet(obs::withLabels(name, labels),
                        static_cast<std::int64_t>(value));
  };
  const auto gauge = [&](const char* name, double value) {
    registry.gaugeSet(obs::withLabels(name, labels), value);
  };
  counter("tssa_serve_requests_total", snapshot.requests);
  counter("tssa_serve_errors_total", snapshot.errors);
  counter("tssa_serve_batches_total", snapshot.batches);
  counter("tssa_serve_sessions_total", snapshot.sessionsOpened);
  counter("tssa_serve_cache_hits_total", snapshot.cacheHits);
  counter("tssa_serve_cache_misses_total", snapshot.cacheMisses);
  counter("tssa_serve_cache_evictions_total", snapshot.cacheEvictions);
  counter("tssa_serve_cache_compiles_total", snapshot.cacheCompiles);
  counter("tssa_serve_cache_compile_failures_total",
          snapshot.cacheCompileFailures);
  counter("tssa_serve_cache_negative_hits_total", snapshot.cacheNegativeHits);
  gauge("tssa_serve_cache_size", static_cast<double>(snapshot.cacheSize));
  gauge("tssa_serve_compile_us_total", snapshot.compileUsTotal);
  gauge("tssa_serve_mean_batch_size", snapshot.meanBatchSize);
  gauge("tssa_serve_throughput_rps", snapshot.throughputRps);
  gauge("tssa_serve_sim_busy_us_total", snapshot.simBusyUs);
  for (int r = 0; r < kNumRejectReasons; ++r) {
    const RejectReason reason = static_cast<RejectReason>(r);
    registry.counterSet(
        obs::withLabels("tssa_serve_rejected_total{reason=\"" +
                            std::string(rejectReasonName(reason)) + "\"}",
                        labels),
        static_cast<std::int64_t>(snapshot.rejected[r]));
  }
  counter("tssa_serve_fallback_total", snapshot.fallbackRequests);
  counter("tssa_serve_decoalesced_total", snapshot.decoalescedBatches);
}

std::string MetricsSnapshot::toString() const {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "requests=%llu errors=%llu rejected=%llu fallback=%llu rps=%.1f "
      "p50=%.0fus p95=%.0fus p99=%.0fus "
      "batches=%llu mean_batch=%.2f cache_hit_rate=%.1f%% (hits=%llu "
      "misses=%llu evictions=%llu) compile_total=%.0fus",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(rejectedTotal()),
      static_cast<unsigned long long>(fallbackRequests), throughputRps,
      total.p50Us,
      total.p95Us, total.p99Us, static_cast<unsigned long long>(batches),
      meanBatchSize, cacheHitRate() * 100.0,
      static_cast<unsigned long long>(cacheHits),
      static_cast<unsigned long long>(cacheMisses),
      static_cast<unsigned long long>(cacheEvictions), compileUsTotal);
  return buf;
}

}  // namespace tssa::serve
