// Cost-model-guided autotuning of pass and batching decisions (ROADMAP
// item 5).
//
// The pass pipeline and the serving engine expose knobs that have always run
// on fixed heuristics: fusion group size (unlimited), per-loop
// parallelization (always on), interpreter thread count, and the
// micro-batcher's window. The Autotuner searches that
// config space per (workload × pipeline kind), in two phases:
//
//  * Offline, analytic: candidate configs are compiled with
//    runtime::compileGraph and priced by the analytic device model over the
//    cost pass's flops/bytes (analysis::estimateCost) — no execution, but
//    on the kernels' own shape rules (src/tensor). The
//    search is Gensor-style Markov moves over single knobs (cap the fusion
//    group size, drop one loop from parallelization), greedy-with-jitter,
//    deterministic under TunerOptions::seed. Only knobs the simulated clock
//    can see are searched here: simUs is thread-count invariant by design,
//    so threads are NOT differentiated analytically.
//  * Measured shortlist: the analytic winner and the default, crossed with
//    hardware threads, plus wall-clock-only explorers the analytic clock is
//    structurally blind to (parallelization off, small fusion caps —
//    host-side effects a modelled accelerator cannot see),
//    are executed for real and the best measured
//    ns/iter wins. The default is always in the shortlist and measured
//    first, so the installed config is never worse than the default on the
//    machine that tuned it. A measurement failure (including an injected
//    fault from TunerOptions::faultInjector) discards the candidate config
//    entirely: serving stays on defaults.
//
// Tuned entries live in a mutex-protected map keyed by (workload, kind).
// The serving engine consults pipelineFor() when it builds a program-cache
// key, so the tuned config is hashed into the key's config guard — distinct
// configs can never collide in the ProgramCache, and a Router hashing the
// rendered key keeps shards cache-affine per config. Online, every served
// run of a tuned program reports its measured ns/iter back through
// recordMeasurement(); once minOnlineSamples accumulate, a mean worse than
// rejectRatio × the offline default measurement rejects the entry (sticky),
// and pipelineFor falls back to the default heuristics. recordFailure()
// (a kernel fault under a tuned config) rejects immediately.
//
// Observability: tssa_tune_* counters in obs::MetricsRegistry::global() and
// a "tune" trace span per search plus one per move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "src/runtime/pipeline.h"
#include "src/workloads/workload.h"

namespace tssa::serve {
class FaultInjector;
}

namespace tssa::tune {

/// One point of the search space. Pipeline-level knobs are concrete values;
/// the batching knobs keep "engine default" sentinels (0 / -1) because their
/// defaults live in serve::EngineOptions, not here.
struct TunedConfig {
  std::size_t fusionMaxOps = 0;        ///< 0 = unlimited (heuristic)
  std::uint64_t parallelizeMask = ~std::uint64_t{0};
  int threads = 1;
  int maxBatch = 0;             ///< micro-batch cap; 0 = engine default
  std::int64_t maxWaitUs = -1;  ///< micro-batch window; < 0 = engine default

  /// The config equivalent to `base`'s heuristics (what an untuned engine
  /// runs).
  static TunedConfig defaults(const runtime::PipelineOptions& base);
  /// `base` with this config's pipeline knobs applied (the device and
  /// everything else non-tunable stay `base`'s).
  runtime::PipelineOptions applyTo(runtime::PipelineOptions base) const;

  friend bool operator==(const TunedConfig&, const TunedConfig&) = default;
  std::string toString() const;
};

struct TunerOptions {
  std::uint64_t seed = 1;  ///< search determinism: same seed ⇒ same config
  int searchSteps = 48;    ///< Markov moves in the analytic phase
  int measureReps = 3;     ///< wall-clock reps per shortlist candidate
  /// Skip the measured-shortlist phase (analytic only): the installed config
  /// is the analytic winner with default wall-clock knobs. Used by tests
  /// that need full determinism without timing noise.
  bool measure = true;
  /// Online refinement: reject a tuned entry once this many served-run
  /// samples average worse than rejectRatio × the default's offline
  /// measurement.
  std::size_t minOnlineSamples = 8;
  double rejectRatio = 1.10;
  /// Measurement fault seam: when set, every measurement run reports its
  /// kernel launches to the injector exactly like an engine-run program, so
  /// tests can script a tuner-measurement failure. Not owned.
  serve::FaultInjector* faultInjector = nullptr;
};

struct TuneResult {
  TunedConfig config;        ///< the installed (winning) config
  double defaultSimUs = 0;   ///< analytic score of the default heuristics
  /// Best analytic score the search found (≤ defaultSimUs by construction:
  /// the search seeds at the default). This is the analytic *winner's*
  /// score; the installed `config` may differ when a wall-clock explorer
  /// measured faster.
  double tunedSimUs = 0;
  /// Analytic score of the installed `config` itself. May exceed
  /// defaultSimUs for a measured wall-clock winner (e.g. a fusion cap: more
  /// modelled launches, less host dispatch) — reported so nothing hides it.
  double installedSimUs = 0;
  double defaultNsPerIter = 0;  ///< measured; 0 when measure == false
  double tunedNsPerIter = 0;    ///< measured; 0 when measure == false
  int evaluated = 0;            ///< distinct configs scored analytically
  /// Cost-model residue on the default compile: > 0 means the analytic
  /// scores are lower bounds (estimateCost could not resolve every op).
  std::int64_t unknownOps = 0;
  /// The measured shortlist threw (e.g. an injected fault): `config` is the
  /// default and serving stays on the default heuristics.
  bool measurementFailed = false;
};

class Autotuner {
 public:
  explicit Autotuner(TunerOptions options = {});

  /// Searches configs for (workload, kind), installs the winner, returns
  /// the result. Deterministic for a given (options.seed, workload, kind)
  /// when measure == false; with measurement on, the *shortlist* is
  /// deterministic and the pick depends on this machine's timings. Builds
  /// and (when measuring) executes the workload — offline cost, not for the
  /// request path.
  TuneResult tune(const std::string& workload,
                  const workloads::WorkloadConfig& config,
                  runtime::PipelineKind kind,
                  const runtime::PipelineOptions& base);

  /// The pipeline options serving should compile and key programs with:
  /// the tuned config applied to `base`, or `base` unchanged when no entry
  /// exists for (workload, kind) or its entry was rejected online.
  runtime::PipelineOptions pipelineFor(const std::string& workload,
                                       runtime::PipelineKind kind,
                                       runtime::PipelineOptions base) const;

  /// Micro-batching overrides for `workload` (any kind): maxBatch == 0 /
  /// maxWaitUs < 0 mean "keep the engine default".
  struct BatchOverride {
    int maxBatch = 0;
    std::int64_t maxWaitUs = -1;
  };
  BatchOverride batchOverride(const std::string& workload,
                              runtime::PipelineKind kind) const;

  /// Online refinement: one served run of `workload` under its tuned config
  /// took `nsPerIter` nanoseconds per request. See class comment for the
  /// rejection policy.
  void recordMeasurement(const std::string& workload,
                         runtime::PipelineKind kind, double nsPerIter);
  /// A run under the tuned config failed: reject the entry immediately.
  void recordFailure(const std::string& workload, runtime::PipelineKind kind);

  /// Snapshot of one entry's online state, copied under the lock (safe to
  /// call while serving threads are recording).
  struct OnlineStats {
    bool hasEntry = false;
    bool rejected = false;
    std::size_t samples = 0;
    double meanNsPerIter = 0;
  };
  OnlineStats onlineStats(const std::string& workload,
                          runtime::PipelineKind kind) const;

  /// The offline result for (workload, kind), if tuned.
  std::optional<TuneResult> result(const std::string& workload,
                                   runtime::PipelineKind kind) const;

  const TunerOptions& options() const { return options_; }

 private:
  struct Entry {
    TuneResult result;
    bool rejected = false;
    std::deque<double> samples;  ///< bounded window of served ns/iter
  };

  static std::string entryKey(const std::string& workload,
                              runtime::PipelineKind kind);

  TunerOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace tssa::tune
