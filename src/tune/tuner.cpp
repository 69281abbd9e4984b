#include "src/tune/tuner.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <vector>

#include "src/analysis/cost.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/thread_pool.h"
#include "src/serve/fault_injector.h"
#include "src/support/error.h"

namespace tssa::tune {

namespace {

double nowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TunedConfig TunedConfig::defaults(const runtime::PipelineOptions& base) {
  TunedConfig c;
  c.fusionMaxOps = base.fusionMaxOps;
  c.parallelize = base.parallelize;
  c.threads = base.threads;
  return c;
}

runtime::PipelineOptions TunedConfig::applyTo(
    runtime::PipelineOptions base) const {
  base.fusionMaxOps = fusionMaxOps;
  base.parallelize = parallelize;
  base.threads = threads;
  return base;
}

std::string TunedConfig::toString() const {
  std::ostringstream os;
  os << "fuse=" << fusionMaxOps << "|par=" << parallelize
     << "|threads=" << threads << "|mb=" << maxBatch
     << "|wait=" << maxWaitUs;
  return os.str();
}

Autotuner::Autotuner(TunerOptions options) : options_(options) {}

std::string Autotuner::entryKey(const std::string& workload,
                                runtime::PipelineKind kind) {
  return workload + "|" + std::string(runtime::pipelineName(kind));
}

TuneResult Autotuner::tune(const std::string& workload,
                           const workloads::WorkloadConfig& config,
                           runtime::PipelineKind kind,
                           const runtime::PipelineOptions& base) {
  obs::TraceSpan span("tune", "search");
  span.arg("workload", workload);
  span.arg("pipeline", runtime::pipelineName(kind));
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counterAdd("tssa_tune_searches_total", 1);

  workloads::Workload w = workloads::buildWorkload(workload, config);
  const std::vector<analysis::CostValue> costIn =
      analysis::costInputs(w.inputs);
  analysis::CostOptions costOpts;
  costOpts.device = base.device;
  costOpts.host = runtime::hostSpecFor(kind);

  // Analytic price: compile the config, price it on input metadata.
  auto price = [&](const TunedConfig& c) {
    std::unique_ptr<ir::Graph> clone = ir::cloneGraph(*w.graph);
    runtime::compileGraph(kind, *clone, c.applyTo(base));
    return analysis::estimateCost(*clone, costIn, costOpts);
  };

  TuneResult result;
  const TunedConfig defaults = TunedConfig::defaults(base);
  const analysis::CostReport defaultReport = price(defaults);
  result.defaultSimUs = defaultReport.simUs;
  result.unknownOps = defaultReport.unknownOps;

  // Every knob is settled by measuring a shortlist that starts with the
  // default: the pick can displace the default only by actually beating it
  // on this machine. The analytic clock cannot rank these candidates: it is
  // thread-count invariant by design, and it never prices a fusion cap or
  // serial loops below the default (more launches and bytes, same flops),
  // while on the host fused bodies vs. plain kernels and the ParallelMap
  // merge machinery on a low-core box can go either way.
  TunedConfig winner = defaults;
  if (options_.measure) {
    std::vector<TunedConfig> shortlist{defaults};
    TunedConfig t = defaults;
    t.threads = runtime::ThreadPool::hardwareThreads();
    shortlist.push_back(t);
    t = defaults;
    t.parallelize = false;
    shortlist.push_back(t);
    for (const std::size_t cap : {std::size_t{2}, std::size_t{4}}) {
      t = defaults;
      t.fusionMaxOps = cap;
      shortlist.push_back(t);
    }

    serve::FaultInjector* const injector = options_.faultInjector;
    auto measureNs = [&](const TunedConfig& c) {
      runtime::Pipeline pipeline(kind, *w.graph, c.applyTo(base));
      if (injector != nullptr)
        pipeline.setLaunchProbe([injector] { injector->onKernelLaunch(); });
      double bestNs = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < std::max(1, options_.measureReps); ++rep) {
        if (injector != nullptr) injector->beginRun();
        const double t0 = nowNs();
        pipeline.run(w.inputs);
        bestNs = std::min(bestNs, nowNs() - t0);
      }
      return bestNs;
    };

    try {
      double winnerNs = std::numeric_limits<double>::infinity();
      for (auto it = shortlist.begin(); it != shortlist.end(); ++it) {
        // A candidate equal to an earlier one (e.g. hardware threads ==
        // the default's) is measured once.
        if (std::find(shortlist.begin(), it, *it) != it) continue;
        const TunedConfig& c = *it;
        const double ns = measureNs(c);
        if (c == defaults) result.defaultNsPerIter = ns;
        // Strict <: on a tie the earlier candidate (the default first)
        // keeps the win, so tuning never churns configs for nothing.
        if (ns < winnerNs) {
          winnerNs = ns;
          winner = c;
        }
      }
      result.tunedNsPerIter = winnerNs;
    } catch (const Error&) {
      // A measurement failure (injected or real) must never install a
      // config whose shortlist did not finish measuring: keep the defaults.
      reg.counterAdd("tssa_tune_measure_failures_total", 1);
      winner = defaults;
      result.defaultNsPerIter = 0;
      result.tunedNsPerIter = 0;
      result.measurementFailed = true;
    }
  }

  // The installed config's own analytic score, for transparency: a
  // wall-clock explorer may measure faster while modelling slower (more
  // launches on the hypothetical device), and the report must not hide that.
  result.installedSimUs =
      winner == defaults ? result.defaultSimUs : price(winner).simUs;

  // Micro-batch knobs: a host-bound program amortizes per-request dispatch
  // across a bigger window; a device-bound one gains nothing from waiting.
  // Deterministic, from the analytic report — no measurement involved.
  if (!result.measurementFailed &&
      workloads::workloadBatchTraits(workload).batchable() &&
      defaultReport.hostUs > defaultReport.gpuUs) {
    winner.maxBatch = 16;
    winner.maxWaitUs = 400;
  }
  result.config = winner;

  if (result.tunedNsPerIter < result.defaultNsPerIter)
    reg.counterAdd("tssa_tune_wins_total", 1);
  span.arg("sim_us_default", result.defaultSimUs);
  span.arg("sim_us_installed", result.installedSimUs);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& entry = entries_[entryKey(workload, kind)];
    entry.result = result;
    entry.rejected = false;
    entry.samples.clear();
  }
  return result;
}

runtime::PipelineOptions Autotuner::pipelineFor(
    const std::string& workload, runtime::PipelineKind kind,
    runtime::PipelineOptions base) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(entryKey(workload, kind));
  if (it == entries_.end() || it->second.rejected) return base;
  return it->second.result.config.applyTo(base);
}

Autotuner::BatchOverride Autotuner::batchOverride(
    const std::string& workload, runtime::PipelineKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(entryKey(workload, kind));
  if (it == entries_.end() || it->second.rejected) return {};
  return {it->second.result.config.maxBatch,
          it->second.result.config.maxWaitUs};
}

void Autotuner::recordMeasurement(const std::string& workload,
                                  runtime::PipelineKind kind,
                                  double nsPerIter) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(entryKey(workload, kind));
  if (it == entries_.end() || it->second.rejected) return;
  Entry& entry = it->second;
  entry.samples.push_back(nsPerIter);
  while (entry.samples.size() > 64) entry.samples.pop_front();
  // Rejection needs a measured baseline to compare against; an
  // analytic-only entry (defaultNsPerIter == 0) is never auto-rejected.
  if (entry.result.defaultNsPerIter <= 0) return;
  if (entry.samples.size() < options_.minOnlineSamples) return;
  double sum = 0;
  for (double s : entry.samples) sum += s;
  const double mean = sum / static_cast<double>(entry.samples.size());
  if (mean > options_.rejectRatio * entry.result.defaultNsPerIter) {
    entry.rejected = true;
    obs::MetricsRegistry::global().counterAdd("tssa_tune_rejected_total", 1);
  }
}

void Autotuner::recordFailure(const std::string& workload,
                              runtime::PipelineKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(entryKey(workload, kind));
  if (it == entries_.end() || it->second.rejected) return;
  it->second.rejected = true;
  obs::MetricsRegistry::global().counterAdd("tssa_tune_rejected_total", 1);
}

Autotuner::OnlineStats Autotuner::onlineStats(
    const std::string& workload, runtime::PipelineKind kind) const {
  // Snapshot under the lock: serving threads append samples concurrently,
  // and a torn deque read here was the race this API exists to prevent.
  std::lock_guard<std::mutex> lock(mutex_);
  OnlineStats stats;
  auto it = entries_.find(entryKey(workload, kind));
  if (it == entries_.end()) return stats;
  stats.hasEntry = true;
  stats.rejected = it->second.rejected;
  stats.samples = it->second.samples.size();
  if (!it->second.samples.empty()) {
    double sum = 0;
    for (double s : it->second.samples) sum += s;
    stats.meanNsPerIter =
        sum / static_cast<double>(it->second.samples.size());
  }
  return stats;
}

std::optional<TuneResult> Autotuner::result(const std::string& workload,
                                            runtime::PipelineKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(entryKey(workload, kind));
  if (it == entries_.end()) return std::nullopt;
  return it->second.result;
}

}  // namespace tssa::tune
