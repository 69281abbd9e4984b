// Unified metrics: one named-counter/gauge/histogram registry for everything
// the stack measures — the runtime Profiler's launch/byte counters,
// the serving engine's request latencies and cache statistics — with a
// consistent snapshot exportable as JSON and as Prometheus text exposition
// format (version 0.0.4).
//
// Naming convention (reconciles the historically divergent Profiler /
// serve::MetricsSnapshot names — see DESIGN.md §9 for the full table):
//   * counters end in `_total`; time is microseconds (`_us`), sizes bytes;
//   * one logical metric keeps ONE name everywhere: rejections are
//     `tssa_serve_rejected_total{reason=...}` whether they are read from
//     one Engine or merged across a Router's shards;
//   * a `{key="value"}` suffix on the registry key is emitted verbatim as a
//     Prometheus label set (keys sharing a base name share one # TYPE line).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace tssa::obs {

/// Nearest-rank percentile: the smallest sample x such that at least q·n
/// samples are <= x, i.e. 1-based rank ceil(q·n). (A floor would be off by
/// one: p50 of 2 samples must be the lower one, and p99 of 100 samples the
/// 99th, not the maximum.) Takes the samples by value: it sorts its copy.
double percentileNearestRank(std::vector<double> samples, double q);

/// Quotes `v` as a Prometheus label value (escapes backslash, double quote,
/// and newline — the only escapes the exposition format defines).
std::string promLabelValue(std::string_view v);

/// Splices a rendered label set (e.g. `shard="2"` or `a="x",b="y"`) into a
/// possibly-already-labeled metric key:
///   withLabels("m", "shard=\"2\"")            == "m{shard=\"2\"}"
///   withLabels("m{k=\"v\"}", "shard=\"2\"")   == "m{k=\"v\",shard=\"2\"}"
/// Empty labels return the key unchanged. This is how one exporter instance
/// (an Engine shard, a per-shard DecodeScheduler) registers its series
/// without colliding with its siblings on the canonical names: same base
/// name, disjoint label sets (DESIGN.md §14).
std::string withLabels(const std::string& key, std::string_view labels);

struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Thread-safe sample accumulator. Percentiles are computed at stats() time
/// over the full sample set (exact, not sketched — serving runs here are
/// bounded; a streaming sketch can replace the storage behind the same
/// interface if that changes).
class Histogram {
 public:
  void observe(double value);
  void observeMany(std::span<const double> values);
  HistogramStats stats() const;
  std::vector<double> samples() const;
  std::uint64_t count() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
};

class MetricsRegistry {
 public:
  /// A process-global registry for ambient exporters; subsystems that want
  /// isolation (tests, per-engine snapshots) construct their own.
  static MetricsRegistry& global();

  void counterAdd(const std::string& name, std::int64_t delta);
  void counterSet(const std::string& name, std::int64_t value);
  void gaugeSet(const std::string& name, double value);
  void observe(const std::string& name, double value);
  void observeMany(const std::string& name, std::span<const double> values);
  void clear();

  struct Snapshot {
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramStats> histograms;

    std::int64_t counter(const std::string& name) const {
      auto it = counters.find(name);
      return it == counters.end() ? 0 : it->second;
    }
    double gauge(const std::string& name) const {
      auto it = gauges.find(name);
      return it == gauges.end() ? 0.0 : it->second;
    }
    HistogramStats histogram(const std::string& name) const {
      auto it = histograms.find(name);
      return it == histograms.end() ? HistogramStats{} : it->second;
    }

    std::string toJson() const;
    /// Prometheus text exposition: counters/gauges as single samples,
    /// histograms as summaries (quantile labels + _sum + _count).
    std::string toPrometheus() const;
  };

  Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  // unique_ptr: Histogram owns a mutex and must stay address-stable while
  // observe() runs outside the registry lock.
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;

  Histogram& histogramSlot(const std::string& name);
};

}  // namespace tssa::obs
