#include "src/serve/engine.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/runtime/thread_pool.h"
#include "src/support/error.h"
#include "src/tensor/ops.h"
#include "src/tune/tuner.h"

namespace tssa::serve {

using Clock = std::chrono::steady_clock;

namespace {

double usSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double usBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// The graph-structure guard of the cache key: config parameters that are
/// baked into the built graph (output buffer shapes, loop trip counts,
/// constant weights) beyond what the input shapes already pin down.
std::string configGuard(const workloads::WorkloadConfig& config) {
  std::ostringstream os;
  os << "|b=" << config.batch << "|t=" << config.seqLen
     << "|seed=" << config.seed;
  return os.str();
}

/// The key of `workload`'s program with `signature` under `options`. The
/// tuned config (when a tuner is installed and has an entry for this
/// workload × kind) replaces the fixed heuristics *in the key*: programs are
/// compiled with key.options, so a config change is a different key —
/// distinct tuned configs can never collide in the cache, and routing on the
/// rendered key stays cache-affine per config.
ProgramKey programKey(const EngineOptions& options, const std::string& workload,
                      std::string signature) {
  ProgramKey key;
  key.workload = workload;
  key.kind = options.kind;
  key.options = options.tuner != nullptr
                    ? options.tuner->pipelineFor(workload, options.kind,
                                                 options.pipeline)
                    : options.pipeline;
  key.signature = std::move(signature);
  return key;
}

/// The shape-specialized key: `inputs`' signature plus the config guard.
ProgramKey exactKey(const EngineOptions& options, const std::string& workload,
                    std::span<const runtime::RtValue> inputs,
                    const workloads::WorkloadConfig& config) {
  return programKey(options, workload,
                    workloads::inputSignature(inputs) + configGuard(config));
}

std::string describeError(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown error";
  }
}

/// Tags a span with the engine's shard identity (EngineOptions::shardId);
/// no-op for standalone (shardId < 0) engines, so solo traces stay clean.
void tagShard(obs::TraceSpan& span, int shardId) {
  if (shardId >= 0) span.arg("shard", static_cast<std::int64_t>(shardId));
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options),
      cache_(options.cacheCapacity, options.compileFailureTtlUs),
      anonymousInFlight_(std::make_shared<std::atomic<std::int64_t>>(0)) {
  MicroBatcher::Options batcherOptions;
  batcherOptions.maxBatch = options_.maxBatch;
  batcherOptions.maxWaitUs = options_.maxWaitUs;
  batcherOptions.injector = options_.faultInjector;
  batcher_ = std::make_unique<MicroBatcher>(
      batcherOptions,
      [this](SealedBatch batch) { onBatchDispatched(std::move(batch)); });
}

Engine::~Engine() {
  shuttingDown_.store(true, std::memory_order_relaxed);
  batcher_.reset();  // seal + dispatch everything still open, join the timer
  std::unique_lock<std::mutex> lock(drainMutex_);
  drainCv_.wait(lock, [this] { return pendingRequests_.load() == 0; });
}

Session Engine::openSession(std::string id) {
  const std::uint64_t n = ++sessionCounter_;
  if (id.empty()) id = "session-" + std::to_string(n);
  metrics_.recordSessionOpened();
  return Session(this, std::move(id));
}

std::future<Response> Engine::submit(Request request) {
  return submitInternal("anonymous", anonymousInFlight_, std::move(request));
}

std::future<Response> Session::submit(Request request) {
  ++*submitted_;
  return engine_->submitInternal(id_, inFlight_, std::move(request));
}

Response Session::infer(Request request) {
  return submit(std::move(request)).get();
}

ProgramKey Engine::keyFor(const EngineOptions& options, const Request& request,
                          bool* polymorphic) {
  if (options.symbolicShapes) {
    const workloads::SymbolicPattern& pattern =
        workloads::workloadSymbolicPattern(request.workload);
    // Empty inputs mean "use the defaults" (filled at admission); those
    // instantiate the pattern by construction, so the polymorphic key can be
    // decided without building the workload — a Router routes on it without
    // materializing tensors.
    if (request.inputs.empty() ||
        workloads::matchesSymbolicPattern(pattern, request.inputs)) {
      // Polymorphic guard: the pattern plus the one config parameter that is
      // still baked into the graph (the constant weights' seed). batch and
      // seqLen are runtime extents of a polymorphic program — they no longer
      // split the key, so the compile count stays flat as shape diversity
      // grows.
      if (polymorphic != nullptr) *polymorphic = true;
      return programKey(options, request.workload,
                        pattern.signature + "|seed=" +
                            std::to_string(request.config.seed));
    }
  }
  if (polymorphic != nullptr) *polymorphic = false;
  return exactKey(options, request.workload, request.inputs, request.config);
}

ProgramKey Engine::keyFor(const Request& request, bool* polymorphic) const {
  return keyFor(options_, request, polymorphic);
}

std::vector<runtime::RtValue> Engine::defaultInputs(
    const std::string& workload, const workloads::WorkloadConfig& config) {
  return workloads::buildWorkload(workload, config).inputs;
}

std::future<Response> Engine::submitInternal(const std::string& sessionId,
                                             InFlightCounter inFlight,
                                             Request request) {
  obs::TraceSpan span("serve", "submit");
  span.arg("workload", request.workload);
  span.arg("session", sessionId);
  tagShard(span, options_.shardId);
  // Validation happens here, synchronously: a malformed request throws a
  // typed RejectedError(BadRequest) on the submitting thread — counted like
  // every other refusal — rather than escaping as a raw registry error or
  // poisoning a shared batch later.
  const workloads::BatchTraits* traits = nullptr;
  try {
    traits = &workloads::workloadBatchTraits(request.workload);
    if (request.inputs.empty())
      request.inputs = defaultInputs(request.workload, request.config);
    TSSA_CHECK(request.inputs.size() == traits->inputDims.size(),
               "workload '" << request.workload << "' takes "
                            << traits->inputDims.size() << " inputs, got "
                            << request.inputs.size());
    for (std::size_t i = 0; i < request.inputs.size(); ++i) {
      const int d = traits->inputDims[i];
      if (d < 0) continue;
      TSSA_CHECK(request.inputs[i].isTensor(),
                 "input " << i << " of '" << request.workload
                          << "' must be a tensor");
      const Tensor& t = request.inputs[i].tensor();
      TSSA_CHECK(t.dim() > d && t.size(d) == request.config.batch,
                 "input " << i << " of '" << request.workload
                          << "': batch dim " << d
                          << " must equal config.batch="
                          << request.config.batch);
    }
  } catch (const RejectedError&) {
    throw;  // already typed (should not happen; keep it intact regardless)
  } catch (const std::exception& ex) {
    span.arg("rejected", rejectReasonName(RejectReason::BadRequest));
    metrics_.recordRejected(RejectReason::BadRequest);
    throw RejectedError(RejectReason::BadRequest, ex.what());
  }

  auto pending = std::make_unique<PendingRequest>();
  pending->key = keyFor(request, &pending->polymorphic);
  if (options_.tuner != nullptr) {
    const tune::Autotuner::BatchOverride bo =
        options_.tuner->batchOverride(request.workload, options_.kind);
    pending->maxBatchOverride = bo.maxBatch;
    pending->maxWaitUsOverride = bo.maxWaitUs;
  }
  pending->enqueueTime = Clock::now();
  pending->deadline =
      absoluteDeadline(pending->enqueueTime, request.deadlineUs);
  pending->request = std::move(request);
  pending->traits = *traits;
  pending->sessionId = sessionId;
  pending->sessionInFlight = inFlight;
  std::future<Response> future = pending->promise.get_future();

  // Admission control: every refusal is a typed RejectedError on the future
  // plus a reason-labelled counter — never a silently dropped promise.
  // Nothing below has touched pendingRequests_ or the session counter yet,
  // so a rejection here releases nothing.
  auto rejectNow = [&](RejectReason reason, const std::string& detail) {
    span.arg("rejected", rejectReasonName(reason));
    metrics_.recordRejected(reason);
    pending->promise.set_exception(
        std::make_exception_ptr(RejectedError(reason, detail)));
    return std::move(future);
  };

  if (shuttingDown_.load(std::memory_order_relaxed))
    return rejectNow(RejectReason::ShuttingDown, "engine is shutting down");
  if (pending->deadline <= pending->enqueueTime)
    return rejectNow(RejectReason::Deadline,
                     "deadline expired before admission");
  if (options_.maxInFlightPerSession > 0 &&
      inFlight->load() >=
          static_cast<std::int64_t>(options_.maxInFlightPerSession))
    return rejectNow(RejectReason::QueueFull,
                     "session '" + sessionId + "' at its in-flight cap (" +
                         std::to_string(options_.maxInFlightPerSession) + ")");

  // Claim the engine-wide queue slot atomically: the increment itself is the
  // reservation, so concurrent submits cannot overshoot maxQueueDepth.
  const std::uint64_t depth = ++pendingRequests_;
  if (options_.maxQueueDepth > 0 && depth > options_.maxQueueDepth) {
    {
      std::lock_guard<std::mutex> lock(drainMutex_);
      --pendingRequests_;
      drainCv_.notify_all();
    }
    return rejectNow(RejectReason::QueueFull,
                     "engine queue full (maxQueueDepth=" +
                         std::to_string(options_.maxQueueDepth) + ")");
  }

  ++*inFlight;
  batcher_->enqueue(std::move(pending));
  return future;
}

void Engine::onBatchDispatched(SealedBatch batch) {
  // Hand the sealed batch to the shared pool. The wrapper owns the batch;
  // executeBatch itself never throws (errors go through the promises).
  auto shared = std::make_shared<SealedBatch>(std::move(batch));
  const int workers = options_.executeConcurrency > 0
                          ? options_.executeConcurrency
                          : runtime::ThreadPool::hardwareThreads();
  runtime::ThreadPool& pool = options_.executePool != nullptr
                                  ? *options_.executePool
                                  : runtime::ThreadPool::shared();
  pool.submit([this, shared] { executeBatch(std::move(*shared)); }, workers);
}

void Engine::drain() {
  batcher_->flush();
  std::unique_lock<std::mutex> lock(drainMutex_);
  drainCv_.wait(lock, [this] { return pendingRequests_.load() == 0; });
}

void Engine::shutdown() {
  shuttingDown_.store(true, std::memory_order_relaxed);
  drain();
}

// ---- Per-request terminal transitions --------------------------------------
// Each fulfills the promise exactly once, then releases the request's
// admission accounting (session in-flight, engine queue slot). The release
// is the very last engine-state access on behalf of this request: once
// pendingRequests_ hits zero the destructor may tear the engine down.

void Engine::finishOne(PendingRequest& request) {
  if (request.sessionInFlight) --*request.sessionInFlight;
  // Notify under the mutex: the destructor destroys drainCv_ as soon as
  // its wait observes pending == 0, so the notify must complete before
  // the waiter can reacquire the lock and return.
  std::lock_guard<std::mutex> lock(drainMutex_);
  --pendingRequests_;
  drainCv_.notify_all();
}

void Engine::deliver(std::unique_ptr<PendingRequest> request,
                     Response response) {
  metrics_.recordRequest(response.timing);
  PendingRequest& r = *request;
  r.promise.set_value(std::move(response));
  finishOne(r);
}

void Engine::deliverError(std::unique_ptr<PendingRequest> request,
                          std::exception_ptr error) {
  metrics_.recordError(1);
  PendingRequest& r = *request;
  r.promise.set_exception(std::move(error));
  finishOne(r);
}

void Engine::rejectRequest(std::unique_ptr<PendingRequest> request,
                           RejectReason reason, const std::string& detail) {
  metrics_.recordRejected(reason);
  PendingRequest& r = *request;
  r.promise.set_exception(
      std::make_exception_ptr(RejectedError(reason, detail)));
  finishOne(r);
}

// ---- Batch execution -------------------------------------------------------

void Engine::executeBatch(SealedBatch sealed) {
  std::vector<std::unique_ptr<PendingRequest>> batch =
      std::move(sealed.requests);
  const auto execStart = Clock::now();
  const PendingRequest& head = *batch.front();

  obs::TraceSpan batchSpan("serve", "batch");
  batchSpan.arg("workload", head.request.workload);
  batchSpan.arg("batch_size", static_cast<std::int64_t>(batch.size()));
  tagShard(batchSpan, options_.shardId);
  // Queue spans, recorded retroactively: a request's wait is only known once
  // its batch starts. One "X" event per request, anchored at its enqueue
  // time on this (executing) thread's timeline, so queue → exec reads as a
  // contiguous lifecycle in the trace.
  if (obs::Tracer::instance().enabled()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    for (const auto& r : batch) {
      obs::TraceEvent ev;
      ev.name = "queue";
      ev.cat = "serve";
      ev.startNs = tracer.sinceEpochNs(r->enqueueTime);
      ev.durNs = tracer.sinceEpochNs(execStart) - ev.startNs;
      ev.tid = obs::Tracer::currentThreadId();
      ev.args.emplace_back("session", obs::jsonQuote(r->sessionId));
      ev.args.emplace_back("workload",
                           obs::jsonQuote(r->request.workload));
      if (options_.shardId >= 0)
        ev.args.emplace_back("shard", std::to_string(options_.shardId));
      tracer.record(std::move(ev));
    }
  }

  // Pre-execution deadline check. `sealed.virtualDelayUs` is the injected
  // stall between seal and execution (0 in production): the check treats
  // "now + stall" as the effective clock, which makes queue-side deadline
  // expiry deterministic in tests without real sleeps.
  const auto effectiveNow =
      execStart + std::chrono::microseconds(sealed.virtualDelayUs);
  std::vector<std::unique_ptr<PendingRequest>> live;
  live.reserve(batch.size());
  for (auto& r : batch) {
    if (r->deadline <= effectiveNow)
      rejectRequest(std::move(r), RejectReason::Deadline,
                    "deadline expired before execution");
    else
      live.push_back(std::move(r));
  }
  if (live.empty()) return;

  const int k = static_cast<int>(live.size());
  const PendingRequest& first = *live.front();
  const workloads::BatchTraits& traits = first.traits;
  FaultInjector* const injector = options_.faultInjector;

  std::vector<Response> responses;
  std::exception_ptr failure;
  try {
    // 1. Coalesce inputs along the workload's batch dimension. Same program
    //    key + batcher compatibility ⇒ per-request shapes agree on every
    //    non-batch dimension; the batch extents themselves may be ragged
    //    (polymorphic keys coalesce requests of different batch sizes).
    std::vector<std::int64_t> rows(live.size());
    std::int64_t totalRows = 0;
    for (std::size_t j = 0; j < live.size(); ++j) {
      rows[j] = live[j]->request.config.batch;  // validated at admission
      totalRows += rows[j];
    }
    std::vector<runtime::RtValue> inputs;
    inputs.reserve(first.request.inputs.size());
    for (std::size_t i = 0; i < first.request.inputs.size(); ++i) {
      const int d = i < traits.inputDims.size() ? traits.inputDims[i] : -1;
      if (k == 1 || d < 0) {
        inputs.push_back(first.request.inputs[i]);
        continue;
      }
      std::vector<Tensor> parts;
      parts.reserve(live.size());
      for (const auto& r : live)
        parts.push_back(r->request.inputs[i].tensor());
      inputs.emplace_back(ops::cat(parts, d));
    }

    // 2. Look up (or compile) the program for the *batched* shapes. A
    //    polymorphic batch keeps the head request's pattern key —
    //    concatenating along a symbolic dim cannot leave the pattern, so the
    //    same compiled program serves solo and coalesced runs alike. A
    //    shape-specialized batch re-keys on the concatenated signature (a
    //    solo request at batch=N and a coalesced run of N batch-1 requests
    //    share the same program).
    workloads::WorkloadConfig compileConfig = first.request.config;
    ProgramKey key;
    if (first.polymorphic) {
      key = first.key;
      compileConfig.symbolicDims = true;
    } else {
      compileConfig.batch = totalRows;
      key = exactKey(options_, first.request.workload, inputs, compileConfig);
    }

    ProgramCache::Lookup lookup = cache_.getOrCompile(key, [&] {
      if (injector != nullptr) injector->onCompile(key.toString());
      // This span contains the whole compilation — the nested "pipeline"
      // pass spans (functionalize, fusion, parallelize, ...) land inside it
      // on the same thread.
      obs::TraceSpan compileSpan("serve", "compile");
      compileSpan.arg("workload", key.workload);
      compileSpan.arg("signature", key.signature);
      tagShard(compileSpan, options_.shardId);
      workloads::Workload w =
          workloads::buildWorkload(key.workload, compileConfig);
      // Compile with the key's options, not the engine defaults: the key IS
      // the config contract (a tuned key must yield a tuned program).
      auto pipeline = std::make_unique<runtime::Pipeline>(
          options_.kind, *w.graph, key.options);
      // Every launch of an engine-compiled program reports to the injector
      // (the kernel-fault seam). The fallback pipeline never gets a probe.
      if (injector != nullptr)
        pipeline->setLaunchProbe([injector] { injector->onKernelLaunch(); });
      return pipeline;
    });

    if (lookup.error != nullptr) {
      // Compile failed (now, or negatively cached from an earlier attempt):
      // degrade each request individually — the batch as a unit is gone,
      // but every member still gets an answer.
      batchSpan.finish();
      for (auto& r : live)
        degradeOrReject(std::move(r), execStart, lookup.error);
      return;
    }

    // 3. Execute. One batch at a time per program; distinct programs (other
    //    shapes / workloads) run concurrently on other pool workers.
    const auto runStart = Clock::now();
    std::vector<runtime::RtValue> outputs;
    double simUs = 0;
    std::exception_ptr runError;
    {
      obs::TraceSpan execSpan("serve", "exec");
      execSpan.arg("workload", key.workload);
      execSpan.arg("batch_size", k);
      tagShard(execSpan, options_.shardId);
      std::lock_guard<std::mutex> execLock(lookup.program->execMutex);
      if (injector != nullptr) injector->beginRun();
      try {
        outputs = lookup.program->pipeline->run(inputs);
        // Read the modelled device time while still holding the exec lock:
        // run() resets the profiler, so a concurrent batch on this program
        // could clobber it the moment the lock drops.
        simUs = lookup.program->pipeline->profiler().simTimeUs();
      } catch (...) {
        runError = std::current_exception();
      }
    }
    metrics_.recordBatch(k);

    if (runError != nullptr) {
      // A fault under a tuned config rejects the tuned entry immediately:
      // the retries below (and all future traffic) run on the defaults.
      if (options_.tuner != nullptr && key.options != options_.pipeline)
        options_.tuner->recordFailure(key.workload, options_.kind);
      if (k == 1) {
        batchSpan.finish();
        deliverError(std::move(live.front()), runError);
        return;
      }
      // A kernel threw mid-batch. The failure belongs to one request, not
      // to its co-batched peers: re-execute the batch de-coalesced, each
      // request solo through its own program, so only the faulty one fails.
      metrics_.recordDecoalesced();
      batchSpan.finish();
      for (auto& r : live) executeSolo(std::move(r), execStart);
      return;
    }
    metrics_.recordSimBusy(simUs);

    // 4. De-interleave: the j-th (possibly ragged) row block of every
    //    output belongs to request j.
    const double execUs = usSince(runStart);
    // Online refinement: runs under a tuned config report their measured
    // per-request latency back; a tuned entry whose served mean drifts past
    // the tuner's rejection threshold is dropped and serving falls back to
    // the defaults. Default-config runs carry no signal for the tuner.
    if (options_.tuner != nullptr && key.options != options_.pipeline)
      options_.tuner->recordMeasurement(key.workload, options_.kind,
                                        execUs * 1000.0 / k);
    std::int64_t rowOffset = 0;
    for (int j = 0; j < k; ++j) {
      std::vector<runtime::RtValue> mine;
      mine.reserve(outputs.size());
      if (k == 1) {
        mine = outputs;
      } else {
        for (std::size_t o = 0; o < outputs.size(); ++o) {
          const int d =
              o < traits.outputDims.size() ? traits.outputDims[o] : -1;
          TSSA_CHECK(d >= 0 && outputs[o].isTensor(),
                     "workload '" << key.workload
                                  << "' output " << o
                                  << " cannot be de-interleaved");
          mine.emplace_back(
              outputs[o]
                  .tensor()
                  .narrow(d, rowOffset, rows[static_cast<std::size_t>(j)])
                  .clone());
        }
      }
      rowOffset += rows[static_cast<std::size_t>(j)];
      Response resp;
      resp.outputs = std::move(mine);
      resp.timing.queueUs = usBetween(
          live[static_cast<std::size_t>(j)]->enqueueTime, execStart);
      // Every request in the batch waited out the same compile (or none):
      // compileUs is that shared wait, zero when the program was already
      // ready. cacheHit means "paid no compile", so a single-flight waiter
      // that blocked for the full compile reports a miss, not a hit.
      resp.timing.compileUs = lookup.wasReady ? 0.0 : lookup.waitUs;
      resp.timing.execUs = execUs;
      resp.batchedWith = k;
      resp.cacheHit = lookup.wasReady;
      responses.push_back(std::move(resp));
    }
  } catch (...) {
    failure = std::current_exception();
  }

  // Close the batch span before the promises are fulfilled: the moment a
  // client's future resolves, main may tear everything down and export the
  // trace, and a still-open RAII span would be missing from it. Delivery
  // itself is microseconds and not worth a span.
  batchSpan.finish();

  if (failure != nullptr) {
    // Engine-side failure outside the run itself (coalescing,
    // de-interleave): no per-request attribution possible.
    for (auto& r : live) deliverError(std::move(r), failure);
  } else {
    for (int j = 0; j < k; ++j)
      deliver(std::move(live[static_cast<std::size_t>(j)]),
              std::move(responses[static_cast<std::size_t>(j)]));
  }
}

void Engine::executeSolo(std::unique_ptr<PendingRequest> request,
                         Clock::time_point execStart) {
  FaultInjector* const injector = options_.faultInjector;
  const ProgramKey key = request->key;  // the per-request (unbatched) key
  workloads::WorkloadConfig config = request->request.config;
  config.symbolicDims = request->polymorphic;  // match what the key promises
  ProgramCache::Lookup lookup = cache_.getOrCompile(key, [&] {
    if (injector != nullptr) injector->onCompile(key.toString());
    obs::TraceSpan compileSpan("serve", "compile");
    compileSpan.arg("workload", key.workload);
    compileSpan.arg("signature", key.signature);
    tagShard(compileSpan, options_.shardId);
    workloads::Workload w = workloads::buildWorkload(key.workload, config);
    auto pipeline = std::make_unique<runtime::Pipeline>(
        options_.kind, *w.graph, key.options);
    if (injector != nullptr)
      pipeline->setLaunchProbe([injector] { injector->onKernelLaunch(); });
    return pipeline;
  });
  if (lookup.error != nullptr) {
    degradeOrReject(std::move(request), execStart, lookup.error);
    return;
  }

  const auto runStart = Clock::now();
  std::vector<runtime::RtValue> outputs;
  double simUs = 0;
  try {
    obs::TraceSpan execSpan("serve", "exec");
    execSpan.arg("workload", key.workload);
    execSpan.arg("batch_size", 1);
    tagShard(execSpan, options_.shardId);
    std::lock_guard<std::mutex> execLock(lookup.program->execMutex);
    if (injector != nullptr) injector->beginRun();
    outputs = lookup.program->pipeline->run(request->request.inputs);
    simUs = lookup.program->pipeline->profiler().simTimeUs();
  } catch (...) {
    if (options_.tuner != nullptr && key.options != options_.pipeline)
      options_.tuner->recordFailure(key.workload, options_.kind);
    deliverError(std::move(request), std::current_exception());
    return;
  }
  metrics_.recordSimBusy(simUs);
  if (options_.tuner != nullptr && key.options != options_.pipeline)
    options_.tuner->recordMeasurement(key.workload, options_.kind,
                                      usSince(runStart) * 1000.0);

  Response resp;
  resp.outputs = std::move(outputs);
  resp.timing.queueUs = usBetween(request->enqueueTime, execStart);
  resp.timing.compileUs = lookup.wasReady ? 0.0 : lookup.waitUs;
  resp.timing.execUs = usSince(runStart);
  resp.batchedWith = 1;
  resp.cacheHit = lookup.wasReady;
  deliver(std::move(request), std::move(resp));
}

void Engine::degradeOrReject(std::unique_ptr<PendingRequest> request,
                             Clock::time_point execStart,
                             const std::exception_ptr& compileError) {
  if (!options_.fallbackOnCompileFailure) {
    rejectRequest(std::move(request), RejectReason::CompileFailed,
                  describeError(compileError));
    return;
  }

  // Graceful degradation: serve through the reference (eager, unbatched)
  // pipeline. Cached under its own key — kind forced to Eager plus a
  // "|fallback" signature tag, so it cannot collide with a specialized
  // program even when the engine's kind already is Eager. Deliberately NOT
  // routed through the fault injector and never given a launch probe: the
  // recovery path must stay recoverable.
  ProgramKey key = request->key;
  key.kind = runtime::PipelineKind::Eager;
  key.signature += "|fallback";
  workloads::WorkloadConfig config = request->request.config;
  // A polymorphic key caches one fallback for every shape it guards, so the
  // fallback graph must be polymorphic too (the interpreter binds its
  // runtime extents the same way on the eager path).
  config.symbolicDims = request->polymorphic;
  ProgramCache::Lookup lookup = cache_.getOrCompile(key, [&] {
    obs::TraceSpan compileSpan("serve", "compile");
    compileSpan.arg("workload", key.workload);
    compileSpan.arg("signature", key.signature);
    tagShard(compileSpan, options_.shardId);
    workloads::Workload w = workloads::buildWorkload(key.workload, config);
    return std::make_unique<runtime::Pipeline>(runtime::PipelineKind::Eager,
                                               *w.graph, options_.pipeline);
  });
  if (lookup.error != nullptr) {
    rejectRequest(std::move(request), RejectReason::CompileFailed,
                  "specialized compile failed (" +
                      describeError(compileError) +
                      ") and so did the fallback (" +
                      describeError(lookup.error) + ")");
    return;
  }

  const auto runStart = Clock::now();
  std::vector<runtime::RtValue> outputs;
  try {
    obs::TraceSpan execSpan("serve", "exec");
    execSpan.arg("workload", key.workload);
    execSpan.arg("batch_size", 1);
    tagShard(execSpan, options_.shardId);
    execSpan.arg("fallback", std::int64_t{1});
    std::lock_guard<std::mutex> execLock(lookup.program->execMutex);
    outputs = lookup.program->pipeline->run(request->request.inputs);
  } catch (...) {
    deliverError(std::move(request), std::current_exception());
    return;
  }
  metrics_.recordFallback();

  Response resp;
  resp.outputs = std::move(outputs);
  resp.timing.queueUs = usBetween(request->enqueueTime, execStart);
  resp.timing.compileUs = lookup.wasReady ? 0.0 : lookup.waitUs;
  resp.timing.execUs = usSince(runStart);
  resp.batchedWith = 1;
  resp.cacheHit = false;  // the specialized program was never served
  resp.fallback = true;
  deliver(std::move(request), std::move(resp));
}

void Engine::exportMetrics(obs::MetricsRegistry& registry,
                           std::string_view labels) const {
  exportSnapshot(metrics(), registry, labels);
  metrics_.exportTo(registry, labels);
}

MetricsSnapshot Engine::metrics() const {
  MetricsSnapshot snap;
  metrics_.fill(snap);
  const ProgramCache::Stats cs = cache_.stats();
  snap.cacheHits = cs.hits;
  snap.cacheMisses = cs.misses;
  snap.cacheEvictions = cs.evictions;
  snap.cacheCompiles = cs.compiles;
  snap.cacheCompileFailures = cs.compileFailures;
  snap.cacheNegativeHits = cs.negativeHits;
  snap.cacheSize = cs.size;
  snap.compileUsTotal = cs.compileUsTotal;
  return snap;
}

}  // namespace tssa::serve
