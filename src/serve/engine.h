// Shape-polymorphic inference serving engine.
//
// The traffic-facing subsystem over the PR-1 execution engine: an Engine
// accepts typed requests for any registered workload, amortizes compilation
// through a ProgramCache, coalesces same-key requests arriving within a
// bounded window into micro-batches along the workload's batch dimension,
// and executes them concurrently on the shared runtime::ThreadPool. Clients
// talk to the engine through lightweight Session handles; every response
// carries its latency decomposition (queue / compile / exec), and the engine
// exports an aggregate MetricsSnapshot (p50/p95/p99, throughput, cache
// stats).
//
// Specialization unit (DESIGN.md §13): every request is keyed on its
// workload's symbolic pattern (workloadSymbolicPattern) plus the weight
// seed — one compiled polymorphic program serves every batch size and
// sequence length, so the compile count stays flat while shape diversity
// grows. A request whose inputs do not instantiate the pattern is refused at
// submit with RejectedError(BadRequest); it never reaches the compiler.
//
// Batching contract: a micro-batched execution of K compatible requests is
// bitwise identical to the K individual executions (tests/serve_test.cpp,
// tests/serve_symbolic_test.cpp assert it). This holds because every
// registered workload computes batch rows independently (BatchTraits in the
// registry) and because the executor itself is deterministic at any thread
// count (DESIGN.md §6). Requests may be *ragged* along the batch dimension —
// requests differing only in batch size coalesce padding-free; the batcher
// seals on any shape difference along a non-batch dimension.
//
// Robustness contract (DESIGN.md §10): admission is bounded (maxQueueDepth,
// per-session in-flight caps), deadlines are enforced at admission, in the
// batcher, and before execution, and failures degrade per request — a
// failed compile is negatively cached and its traffic served through the
// reference pipeline; a kernel throw mid-batch fails only the faulty
// request (the batch is re-executed de-coalesced). Every refusal is
// a typed RejectedError on the future and a reason-labelled counter in
// tssa_serve_rejected_total; a submit future is always fulfilled, whatever
// happens (tests/serve_faults_test.cpp, tests/serve_soak_test.cpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/serve/batcher.h"
#include "src/serve/fault_injector.h"
#include "src/serve/metrics.h"
#include "src/serve/program_cache.h"
#include "src/serve/request.h"

namespace tssa::obs {
class TraceSpan;
}

namespace tssa::runtime {
class ThreadPool;
}

namespace tssa::tune {
class Autotuner;
}

namespace tssa::serve {

struct EngineOptions {
  runtime::PipelineKind kind = runtime::PipelineKind::TensorSsa;
  /// Device model, per-program interpreter thread cap, fusion cap and
  /// loop parallelization — part of the program cache key.
  runtime::PipelineOptions pipeline{};
  std::size_t cacheCapacity = 32;      ///< compiled programs kept (LRU)
  int maxBatch = 8;                    ///< micro-batch request cap
  std::int64_t maxWaitUs = 200;        ///< micro-batch window; <= 0 disables
  /// Worker threads guaranteed on the shared pool for batch execution
  /// (0 = hardware concurrency). Distinct cached programs execute
  /// concurrently; runs of one program are serialized.
  int executeConcurrency = 0;
  /// Pool that executes sealed batches. Null (the default) uses the shared
  /// process-wide runtime::ThreadPool; a Router gives each shard its own
  /// pool so one shard's queue cannot starve another's workers. Not owned;
  /// must outlive the Engine.
  runtime::ThreadPool* executePool = nullptr;
  /// Shard identity for observability: when >= 0, every trace span this
  /// engine emits carries a `shard` arg, so one Chrome trace shows the
  /// whole tier. Metric label scoping is chosen at export time instead
  /// (the `labels` argument of exportMetrics).
  int shardId = -1;

  // ---- Admission control & graceful degradation (DESIGN.md §10) ----------

  /// Engine-wide cap on requests admitted but not yet delivered; a submit
  /// beyond it is shed with RejectReason::QueueFull instead of growing the
  /// queue (and its latency) without bound. 0 = unbounded.
  std::size_t maxQueueDepth = 0;
  /// Per-session cap on in-flight requests (admitted, not yet delivered);
  /// one runaway client sheds its own traffic before it can exhaust
  /// maxQueueDepth for everyone. 0 = unbounded.
  std::size_t maxInFlightPerSession = 0;
  /// How long a failed compile is remembered (negative cache): traffic for
  /// a broken key pays one compile attempt per TTL window, then is degraded
  /// or rejected straight away. <= 0 retries the
  /// compile on every batch.
  std::int64_t compileFailureTtlUs = 5'000'000;
  /// When the program's compile fails, serve the request through the
  /// reference (eager, unbatched) pipeline instead of rejecting it —
  /// degraded throughput, correct results. When false, such requests are
  /// rejected with RejectReason::CompileFailed.
  bool fallbackOnCompileFailure = true;
  /// Deterministic fault seam for tests (src/serve/fault_injector.h):
  /// scripted compile failures, kernel throws, and batch-seal stalls.
  /// Not owned; must outlive the Engine. Null (production) costs a pointer
  /// check on the compile/run/seal paths and nothing on the request path.
  FaultInjector* faultInjector = nullptr;
  /// Cost-model-guided autotuner (src/tune/tuner.h). When set, programs are
  /// keyed and compiled with tuner->pipelineFor(workload, kind, pipeline)
  /// instead of `pipeline` — the tuned config is part of the cache key, so
  /// distinct configs never collide and a Router hashing the key keeps
  /// shards cache-affine per config. Micro-batching honors the
  /// tuned window overrides, and every run under a tuned config reports its
  /// measured ns/iter back for online refinement (a rejected entry falls
  /// back to `pipeline`'s heuristics). Not owned; must outlive the Engine.
  /// Null = the fixed heuristics.
  tune::Autotuner* tuner = nullptr;
};

class Engine;

/// A client handle. Sessions are cheap, movable, and thread-compatible (one
/// session per client thread is the intended pattern; the engine itself is
/// fully thread-safe). The Engine must outlive its sessions.
class Session {
 public:
  /// Asynchronous submit. The future throws RejectedError when the engine
  /// refuses the request (load shed, deadline miss, shutdown, unrecoverable
  /// compile failure) and plain tssa::Error when execution itself fails;
  /// malformed requests (unknown workload, inputs that do not instantiate
  /// the workload's symbolic pattern, batch-dim mismatch) throw
  /// RejectedError(BadRequest) synchronously from submit, counted in
  /// tssa_serve_rejected_total{reason="bad_request"}.
  std::future<Response> submit(Request request);
  /// Blocking convenience: submit + get.
  Response infer(Request request);

  const std::string& id() const { return id_; }
  std::uint64_t requestsSubmitted() const { return *submitted_; }
  /// Requests admitted for this session and not yet delivered (bounded by
  /// EngineOptions::maxInFlightPerSession when that is set).
  std::int64_t inFlight() const { return *inFlight_; }

 private:
  friend class Engine;
  Session(Engine* engine, std::string id)
      : engine_(engine),
        id_(std::move(id)),
        submitted_(std::make_shared<std::atomic<std::uint64_t>>(0)),
        inFlight_(std::make_shared<std::atomic<std::int64_t>>(0)) {}

  Engine* engine_;
  std::string id_;
  std::shared_ptr<std::atomic<std::uint64_t>> submitted_;
  std::shared_ptr<std::atomic<std::int64_t>> inFlight_;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  /// Seals every open micro-batch, waits for all in-flight requests, then
  /// tears down. Outstanding futures are fulfilled before this returns.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Session openSession(std::string id = "");

  /// Session-less submit (uses an implicit anonymous session).
  std::future<Response> submit(Request request);

  /// Blocks until every submitted request has completed (open batches are
  /// sealed immediately rather than waiting out their window).
  void drain();

  /// Stops admitting: every subsequent submit is rejected with
  /// RejectReason::ShuttingDown; then drains what was already admitted.
  /// Idempotent. The destructor implies it.
  void shutdown();

  MetricsSnapshot metrics() const;
  /// Unified export: the snapshot's counters/gauges plus the full latency
  /// histograms (tssa_serve_request/queue/exec_latency_us) under the
  /// canonical names shared with obs::exportProfiler. The registry can then
  /// be serialized as JSON or Prometheus text (obs::MetricsRegistry).
  void exportMetrics(obs::MetricsRegistry& registry,
                     std::string_view labels = {}) const;
  ProgramCache::Stats cacheStats() const { return cache_.stats(); }
  const EngineOptions& options() const { return options_; }

  /// The registry's example input tuple for (workload, config) — a valid
  /// payload for Request::inputs. Builds the workload; not cheap, intended
  /// for client setup, not the request path.
  static std::vector<runtime::RtValue> defaultInputs(
      const std::string& workload, const workloads::WorkloadConfig& config);

  /// The program-cache key that an engine built with `options` resolves
  /// `request` to: the workload's pattern signature plus the weight seed,
  /// under the (possibly tuned) pipeline options. Static so a Router can
  /// compute routing keys without an Engine (cache-affinity routing hashes
  /// exactly this key); it reads no inputs, so routing never has to
  /// materialize tensors. Throws on unknown workloads.
  static ProgramKey keyFor(const EngineOptions& options,
                           const Request& request);

 private:
  friend class Session;

  using InFlightCounter = std::shared_ptr<std::atomic<std::int64_t>>;

  std::future<Response> submitInternal(const std::string& sessionId,
                                       InFlightCounter inFlight,
                                       Request request);
  /// Runs one sealed batch: trace its queue waits, shed requests whose
  /// deadline passed, then runBatch the rest. Executes on a pool worker.
  void executeBatch(SealedBatch batch);
  void onBatchDispatched(SealedBatch batch);
  /// Concat inputs → cached compile → execute → de-interleave → fulfill
  /// promises. Degrades per request on compile failure; on a mid-batch
  /// throw re-runs each request as a one-request batch. `batchSpan` is the
  /// sealed batch's trace span, closed before any promise is fulfilled;
  /// null for such a de-coalesced re-run, which is not counted as a batch.
  void runBatch(std::vector<std::unique_ptr<PendingRequest>> live,
                std::chrono::steady_clock::time_point execStart,
                obs::TraceSpan* batchSpan);
  /// Compile failed for `request`'s program: serve it through the reference
  /// pipeline (fallbackOnCompileFailure) or reject it (CompileFailed).
  void degradeOrReject(std::unique_ptr<PendingRequest> request,
                       std::chrono::steady_clock::time_point execStart,
                       const std::exception_ptr& compileError);

  /// The engine's one compile step: looks `key` up, building the workload
  /// polymorphically at `config` and compiling it on a miss. A `fallback`
  /// compile uses the engine's base pipeline options and bypasses the fault
  /// injector (no compile fault, no launch probe): the recovery path must
  /// stay recoverable.
  ProgramCache::Lookup lookupProgram(const ProgramKey& key,
                                     workloads::WorkloadConfig config,
                                     bool fallback);
  /// What one locked run of a cached program produced.
  struct RunResult {
    std::vector<runtime::RtValue> outputs;
    double simUs = 0;   ///< modelled device time of the run
    double execUs = 0;  ///< wall-clock time of the run
    std::exception_ptr error;  ///< set when the run threw
  };
  /// The engine's one run step: executes `program` on `inputs` under its
  /// exec lock inside an "exec" trace span. Never throws.
  RunResult runProgram(const ProgramKey& key, CachedProgram& program,
                       const std::vector<runtime::RtValue>& inputs,
                       int batchSize, bool fallback);

  // ---- Per-request terminal transitions (each touches the promise once,
  // ---- then releases the request's admission accounting) -----------------
  void deliver(std::unique_ptr<PendingRequest> request, Response response);
  void deliverError(std::unique_ptr<PendingRequest> request,
                    std::exception_ptr error);
  void rejectRequest(std::unique_ptr<PendingRequest> request,
                     RejectReason reason, const std::string& detail);
  void finishOne(PendingRequest& request);

  const EngineOptions options_;
  ProgramCache cache_;
  MetricsCollector metrics_;
  std::atomic<bool> shuttingDown_{false};
  std::atomic<std::uint64_t> pendingRequests_{0};
  std::mutex drainMutex_;
  std::condition_variable drainCv_;
  std::atomic<std::uint64_t> sessionCounter_{0};
  /// In-flight counter for session-less Engine::submit calls.
  InFlightCounter anonymousInFlight_;
  /// Last member: destroyed first, so its flush-on-destroy happens while
  /// cache/metrics are still alive.
  std::unique_ptr<MicroBatcher> batcher_;
};

}  // namespace tssa::serve
