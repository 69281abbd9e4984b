// Measured autotuning of pass and batching decisions (ROADMAP item 5).
//
// The pass pipeline and the serving engine expose knobs that have always run
// on fixed heuristics: fusion group size (unlimited), loop parallelization
// (on), interpreter thread count, and the micro-batcher's window. The
// Autotuner settles them per (workload × pipeline kind) by measuring:
//
//  * The default is compiled with runtime::compileGraph and priced once by
//    the analytic device model (analysis::estimateCost). That price is the
//    reported defaultSimUs, and a host-bound batchable program gets a wider
//    micro-batch window (hostUs > gpuUs in that price). There is
//    no analytic search: the device model is monotone in both compile knobs
//    (a fusion cap or serial loops add launches and bytes at the same
//    flops), so no config ever prices below the default.
//    CostModelPropertyTest.LessFusionOrParallelismNeverPricesLower pins that.
//  * A shortlist of wall-clock candidates is executed for real and the best
//    measured ns/iter wins: the default, the default at hardware threads,
//    parallelization off, and fusion caps 2 and 4 — host-side effects a
//    modelled accelerator cannot see. The default is measured first and a
//    candidate must be strictly faster, so the installed config is never
//    worse than the default on the machine that tuned it. A measurement
//    failure (including an injected fault from TunerOptions::faultInjector)
//    discards the candidate configs entirely: serving stays on defaults.
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
// Observability: tssa_tune_{searches,wins,measure_failures,rejected}_total
// counters in obs::MetricsRegistry::global() and one "tune" trace span per
// tune() call.
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

/// One tunable configuration. Pipeline-level knobs are concrete values;
/// the batching knobs keep "engine default" sentinels (0 / -1) because their
/// defaults live in serve::EngineOptions, not here.
struct TunedConfig {
  std::size_t fusionMaxOps = 0;  ///< 0 = unlimited (heuristic)
  bool parallelize = true;       ///< TensorSSA loop parallelization
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
  int measureReps = 3;     ///< wall-clock reps per shortlist candidate
  /// Skip the measured shortlist (analytic only): the installed config is
  /// the default pipeline knobs plus the batch-window rule. Used by tests
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
  /// Analytic score of the installed `config` itself. May exceed
  /// defaultSimUs for a measured wall-clock winner (e.g. a fusion cap: more
  /// modelled launches, less host dispatch) — reported so nothing hides it.
  double installedSimUs = 0;
  double defaultNsPerIter = 0;  ///< measured; 0 when measure == false
  double tunedNsPerIter = 0;    ///< measured; 0 when measure == false
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

  /// Tunes (workload, kind), installs the winner, returns the result.
  /// Deterministic when measure == false; with measurement on, the
  /// shortlist is fixed and the pick depends on this machine's timings. Builds
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
