#include "src/tune/tuner.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "src/analysis/cost.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/thread_pool.h"
#include "src/serve/fault_injector.h"
#include "src/support/error.h"

namespace tssa::tune {

namespace {

/// Deterministic search RNG (xorshift64): the whole analytic phase must
/// replay bit-for-bit from TunerOptions::seed.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

std::uint64_t mixSeed(std::uint64_t seed, const std::string& salt) {
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ULL;
  for (char c : salt) h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
  return h == 0 ? 1 : h;
}

std::size_t countParallelMaps(const ir::Graph& graph) {
  std::size_t n = 0;
  std::vector<const ir::Block*> stack{graph.topBlock()};
  while (!stack.empty()) {
    const ir::Block* b = stack.back();
    stack.pop_back();
    for (const ir::Node* node : *b) {
      if (node->kind() == ir::OpKind::ParallelMap) ++n;
      for (const ir::Block* inner : node->blocks()) stack.push_back(inner);
    }
  }
  return n;
}

constexpr std::size_t kFusionCaps[] = {0, 2, 3, 4, 6, 8, 12, 16};

double nowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TunedConfig TunedConfig::defaults(const runtime::PipelineOptions& base) {
  TunedConfig c;
  c.fusionMaxOps = base.fusionMaxOps;
  c.parallelizeMask = base.parallelizeMask;
  c.threads = base.threads;
  return c;
}

runtime::PipelineOptions TunedConfig::applyTo(
    runtime::PipelineOptions base) const {
  base.fusionMaxOps = fusionMaxOps;
  base.parallelizeMask = parallelizeMask;
  base.threads = threads;
  return base;
}

std::string TunedConfig::toString() const {
  std::ostringstream os;
  os << "fuse=" << fusionMaxOps << "|mask=" << std::hex << parallelizeMask
     << std::dec << "|threads=" << threads << "|mb=" << maxBatch
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

  // Analytic oracle: compile the candidate pipeline, price it on metadata.
  // Memoized per config — the Markov walk revisits points freely.
  std::unordered_map<std::string, analysis::CostReport> memo;
  auto score = [&](const TunedConfig& c) -> const analysis::CostReport& {
    auto [it, fresh] = memo.try_emplace(c.toString());
    if (fresh) {
      std::unique_ptr<ir::Graph> clone = ir::cloneGraph(*w.graph);
      runtime::compileGraph(kind, *clone, c.applyTo(base));
      it->second = analysis::estimateCost(*clone, costIn, costOpts);
    }
    return it->second;
  };

  TuneResult result;
  const TunedConfig defaults = TunedConfig::defaults(base);
  const analysis::CostReport& defaultReport = score(defaults);
  result.defaultSimUs = defaultReport.simUs;
  result.unknownOps = defaultReport.unknownOps;

  // How many loops the mask can gate: count what the
  // parallelize-everything default converted.
  std::size_t parCandidates = 0;
  {
    std::unique_ptr<ir::Graph> clone = ir::cloneGraph(*w.graph);
    runtime::compileGraph(kind, *clone, defaults.applyTo(base));
    parCandidates = std::min<std::size_t>(countParallelMaps(*clone), 64);
  }

  // Markov walk over the simulated-clock-visible knobs. Greedy with an
  // occasional uphill move; best-seen starts at the default, so the analytic
  // winner can never be worse than the heuristics it replaces.
  Rng rng{mixSeed(options_.seed, entryKey(workload, kind))};
  TunedConfig current = defaults;
  TunedConfig best = defaults;
  double currentUs = defaultReport.simUs;
  double bestUs = defaultReport.simUs;
  for (int step = 0; step < options_.searchSteps; ++step) {
    TunedConfig cand = current;
    const bool moveMask = parCandidates > 0 && (rng.next() & 1) != 0;
    obs::TraceSpan move("tune", "move");
    if (moveMask) {
      const std::size_t bit = rng.next() % parCandidates;
      cand.parallelizeMask ^= std::uint64_t{1} << bit;
      move.arg("knob", "parallelize_mask");
      move.arg("bit", static_cast<std::int64_t>(bit));
    } else {
      cand.fusionMaxOps =
          kFusionCaps[rng.next() % std::size(kFusionCaps)];
      move.arg("knob", "fusion_max_ops");
      move.arg("cap", static_cast<std::int64_t>(cand.fusionMaxOps));
    }
    const double candUs = score(cand).simUs;
    move.arg("sim_us", candUs);
    reg.counterAdd("tssa_tune_moves_total", 1);
    // Accept improvements; accept a worse point 1 time in 8 to escape local
    // minima (deterministic — the "temperature" is just the RNG stream).
    if (candUs <= currentUs || (rng.next() & 7) == 0) {
      current = cand;
      currentUs = candUs;
      reg.counterAdd("tssa_tune_accepts_total", 1);
    }
    if (candUs < bestUs) {
      best = cand;
      bestUs = candUs;
    }
  }
  result.tunedSimUs = bestUs;
  result.evaluated = static_cast<int>(memo.size());
  span.arg("evaluated", static_cast<std::int64_t>(memo.size()));

  // Wall-clock-only knobs (thread count; the analytic clock is invariant to
  // them by design) are settled by measuring a shortlist that always
  // includes the default: the pick can lose to the default only by actually
  // beating it on this machine.
  TunedConfig winner = best;
  if (options_.measure) {
    const int hw = runtime::ThreadPool::hardwareThreads();
    std::vector<TunedConfig> shortlist{defaults, best};
    if (hw != defaults.threads) {
      TunedConfig t = defaults;
      t.threads = hw;
      shortlist.push_back(t);
      t = best;
      t.threads = hw;
      shortlist.push_back(t);
    }
    // Wall-clock-only explorers. The analytic clock models a hypothetical
    // accelerator, so it is structurally blind to (or inverted on) host-side
    // effects: fused bodies vs. plain kernels under a fusion cap, the
    // ParallelMap merge machinery on a low-core box.
    // These candidates can only be justified by measuring; each one
    // displaces the default only by beating it for real.
    {
      TunedConfig t = defaults;
      t.parallelizeMask = 0;
      shortlist.push_back(t);
      for (const std::size_t cap : {std::size_t{2}, std::size_t{4}}) {
        t = defaults;
        t.fusionMaxOps = cap;
        shortlist.push_back(t);
      }
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
      std::vector<std::string> seen;
      double winnerNs = std::numeric_limits<double>::infinity();
      for (const TunedConfig& c : shortlist) {
        const std::string id = c.toString();
        if (std::find(seen.begin(), seen.end(), id) != seen.end()) continue;
        seen.push_back(id);
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
      // config that was only ever priced on paper: keep the defaults.
      reg.counterAdd("tssa_tune_measure_failures_total", 1);
      winner = defaults;
      result.tunedSimUs = result.defaultSimUs;
      result.defaultNsPerIter = 0;
      result.tunedNsPerIter = 0;
      result.measurementFailed = true;
    }
  }

  // The installed config's own analytic score, for transparency: a
  // wall-clock explorer may measure faster while modelling slower (more
  // launches on the hypothetical device), and the report must not hide that.
  result.installedSimUs =
      result.measurementFailed ? result.defaultSimUs : score(winner).simUs;

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

  if (result.tunedSimUs < result.defaultSimUs ||
      (result.tunedNsPerIter > 0 &&
       result.tunedNsPerIter < result.defaultNsPerIter))
    reg.counterAdd("tssa_tune_wins_total", 1);
  span.arg("sim_us_default", result.defaultSimUs);
  span.arg("sim_us_tuned", result.tunedSimUs);

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
