#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/obs/json.h"

namespace tssa::obs {

double percentileNearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = rank == 0 ? 0 : rank - 1;
  if (rank >= samples.size()) rank = samples.size() - 1;
  return samples[rank];
}

std::string promLabelValue(std::string_view v) {
  std::string out;
  out.reserve(v.size() + 2);
  out.push_back('"');
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string withLabels(const std::string& key, std::string_view labels) {
  if (labels.empty()) return key;
  // Appended piecewise: GCC 12's -Wrestrict misfires at -O3 on
  // `"," + std::string(...)`.
  const bool labelled = key.find('{') != std::string::npos;
  std::string out = labelled ? key.substr(0, key.size() - 1) : key;
  out += labelled ? ',' : '{';
  out += labels;
  out += '}';
  return out;
}

void Histogram::observe(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back(value);
}

void Histogram::observeMany(std::span<const double> values) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.insert(samples_.end(), values.begin(), values.end());
}

std::vector<double> Histogram::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_.size();
}

HistogramStats Histogram::stats() const {
  std::vector<double> xs = samples();
  HistogramStats s;
  if (xs.empty()) return s;
  s.count = xs.size();
  s.min = xs.front();
  s.max = xs.front();
  for (double x : xs) {
    s.sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = s.sum / static_cast<double>(xs.size());
  s.p50 = percentileNearestRank(xs, 0.50);
  s.p95 = percentileNearestRank(xs, 0.95);
  s.p99 = percentileNearestRank(xs, 0.99);
  return s;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::counterAdd(const std::string& name, std::int64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += delta;
}

void MetricsRegistry::counterSet(const std::string& name, std::int64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] = value;
}

void MetricsRegistry::gaugeSet(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] = value;
}

Histogram& MetricsRegistry::histogramSlot(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  histogramSlot(name).observe(value);
}

void MetricsRegistry::observeMany(const std::string& name,
                                  std::span<const double> values) {
  histogramSlot(name).observeMany(values);
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  // Copy the histogram pointers under the lock, compute stats outside it
  // (stats() takes each histogram's own mutex).
  std::vector<std::pair<std::string, const Histogram*>> hists;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.counters = counters_;
    snap.gauges = gauges_;
    hists.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) hists.emplace_back(name, h.get());
  }
  for (const auto& [name, h] : hists) snap.histograms[name] = h->stats();
  return snap;
}

namespace {

/// `name{labels}` → base metric name (what the # TYPE line advertises).
std::string_view baseName(std::string_view key) {
  const std::size_t brace = key.find('{');
  return brace == std::string_view::npos ? key : key.substr(0, brace);
}

/// Quantile-label splicing for the summary exposition (same semantics as
/// the public obs::withLabels).
std::string withLabel(const std::string& key, const std::string& label) {
  return withLabels(key, label);
}

}  // namespace

std::string MetricsRegistry::Snapshot::toJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ",";
    first = false;
    out += jsonQuote(name) + ":" + jsonNumber(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ",";
    first = false;
    out += jsonQuote(name) + ":" + jsonNumber(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, s] : histograms) {
    if (!first) out += ",";
    first = false;
    out += jsonQuote(name) + ":{";
    out += "\"count\":" + jsonNumber(static_cast<std::int64_t>(s.count));
    out += ",\"sum\":" + jsonNumber(s.sum);
    out += ",\"min\":" + jsonNumber(s.min);
    out += ",\"max\":" + jsonNumber(s.max);
    out += ",\"mean\":" + jsonNumber(s.mean);
    out += ",\"p50\":" + jsonNumber(s.p50);
    out += ",\"p95\":" + jsonNumber(s.p95);
    out += ",\"p99\":" + jsonNumber(s.p99);
    out += "}";
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::Snapshot::toPrometheus() const {
  std::string out;
  std::string lastType;  // base name of the last # TYPE emitted
  auto typeLine = [&](std::string_view base, const char* type) {
    if (lastType == base) return;  // labeled series share one TYPE line
    lastType = base;
    out += "# TYPE " + std::string(base) + " " + type + "\n";
  };
  for (const auto& [name, v] : counters) {
    typeLine(baseName(name), "counter");
    out += name + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : gauges) {
    typeLine(baseName(name), "gauge");
    out += name + " " + jsonNumber(v) + "\n";
  }
  for (const auto& [name, s] : histograms) {
    typeLine(baseName(name), "summary");
    out += withLabel(name, "quantile=\"0.5\"") + " " + jsonNumber(s.p50) + "\n";
    out += withLabel(name, "quantile=\"0.95\"") + " " + jsonNumber(s.p95) + "\n";
    out += withLabel(name, "quantile=\"0.99\"") + " " + jsonNumber(s.p99) + "\n";
    out += std::string(baseName(name)) + "_sum " + jsonNumber(s.sum) + "\n";
    out += std::string(baseName(name)) + "_count " +
           std::to_string(s.count) + "\n";
  }
  return out;
}

}  // namespace tssa::obs
