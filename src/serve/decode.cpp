#include "src/serve/decode.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "src/obs/trace.h"
#include "src/support/error.h"
#include "src/tensor/random.h"

namespace tssa::serve {

using Clock = std::chrono::steady_clock;
using workloads::kDecodeDim;

namespace {

/// Large enough that exp(score - max) underflows to exactly 0.0f for every
/// padded context row, small enough to stay finite through the additions.
constexpr float kMaskNegative = -1e30f;

/// Program budget of the inner engine: every step request resolves to the
/// one polymorphic decode_step key, so it needs that program plus the
/// fallback that stands in for it when its compile fails.
constexpr std::size_t kStepProgramCapacity = 2;

}  // namespace

/// A session inside the active set. `tokens` counts KV entries appended so
/// far; `step` is the index of the next step to execute: steps [0, P) feed
/// prompt rows, step s >= P-1 emits generated token s-(P-1), and the session
/// finishes after step P+G-2 (total steps = promptLen + generate - 1).
struct DecodeScheduler::ActiveSession {
  std::string id;
  Tensor prompt;
  std::int64_t promptLen = 0;
  std::int64_t generate = 0;
  std::int64_t step = 0;
  std::int64_t batchedSteps = 0;
  bool joined = false;  ///< admitted into the active set (KV reserved)
  Tensor x;  ///< input token of the next step ([1, kDecodeDim])
  std::vector<Tensor> generated;
  Clock::time_point submitTime;
  Clock::time_point admitTime;
  Clock::time_point deadline = kNoDeadline;
  std::promise<DecodeResult> promise;

  std::int64_t totalSteps() const { return promptLen + generate - 1; }
};

struct DecodeScheduler::Arrival {
  std::unique_ptr<ActiveSession> session;
  std::int64_t totalTokens = 0;  ///< KV tokens the session will append
};

DecodeScheduler::DecodeScheduler(DecodeOptions options)
    : options_(std::move(options)),
      kv_(KvCacheOptions{.pageTokens = options_.kvPageTokens,
                         .tokenFloats = 2 * kDecodeDim,
                         .maxPages = options_.kvMaxPages}),
      engine_([&] {
        EngineOptions eo;
        eo.kind = options_.kind;
        eo.pipeline = options_.pipeline;
        eo.cacheCapacity = kStepProgramCapacity;
        eo.maxBatch = options_.maxStepBatch;
        // Step batches are sealed by the per-iteration drain(), never by the
        // window; a wide window keeps the batcher timer out of the picture
        // (and batch composition deterministic under deterministic traffic).
        eo.maxWaitUs = 1'000'000;
        eo.executePool = options_.executePool;
        eo.shardId = options_.shardId;
        return eo;
      }()) {
  TSSA_CHECK(!options_.ctxBuckets.empty(), "ctxBuckets must not be empty");
  TSSA_CHECK(std::is_sorted(options_.ctxBuckets.begin(),
                            options_.ctxBuckets.end()),
             "ctxBuckets must be ascending");
  TSSA_CHECK(options_.maxStepBatch >= 1, "maxStepBatch must be >= 1");
  TSSA_CHECK(options_.maxActiveSessions >= 1,
             "maxActiveSessions must be >= 1");
  thread_ = std::thread([this] { loop(); });
}

DecodeScheduler::~DecodeScheduler() {
  shutdown();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;  // shutdown already set it; keep the invariant obvious
  }
  wake_.notify_all();
  thread_.join();
}

Tensor DecodeScheduler::randomPrompt(std::int64_t len, std::uint64_t seed) {
  Rng rng(seed);
  return rng.normal({len, kDecodeDim}, 0.0, 0.5);
}

std::int64_t DecodeScheduler::bucketFor(std::int64_t tokens) const {
  for (std::int64_t bucket : options_.ctxBuckets)
    if (bucket >= tokens) return bucket;
  TSSA_THROW("context of " << tokens
                           << " tokens exceeds the largest bucket "
                           << options_.ctxBuckets.back());
}

std::future<DecodeResult> DecodeScheduler::submit(DecodeRequest request) {
  TSSA_CHECK(request.prompt.defined() && request.prompt.dim() == 2 &&
                 request.prompt.size(1) == kDecodeDim &&
                 request.prompt.dtype() == DType::Float32,
             "prompt must be a float32 [len, " << kDecodeDim << "] tensor");
  TSSA_CHECK(request.prompt.size(0) >= 1, "prompt must hold >= 1 token");
  TSSA_CHECK(request.generate >= 1, "generate must be >= 1");

  auto session = std::make_unique<ActiveSession>();
  session->promptLen = request.prompt.size(0);
  session->generate = request.generate;
  session->prompt = request.prompt.contiguous();
  session->submitTime = Clock::now();
  session->deadline = absoluteDeadline(session->submitTime,
                                       request.deadlineUs);
  session->id = request.id.empty()
                    ? "decode-" + std::to_string(++sessionCounter_)
                    : std::move(request.id);
  std::future<DecodeResult> future = session->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(metricsMutex_);
    ++submitted_;
  }

  auto rejectNow = [&](RejectReason reason, const std::string& detail) {
    {
      std::lock_guard<std::mutex> lock(metricsMutex_);
      ++rejected_[static_cast<int>(reason)];
    }
    session->promise.set_exception(
        std::make_exception_ptr(RejectedError(reason, detail)));
    return std::move(future);
  };

  // The last step reads totalSteps-1 context tokens; a session that cannot
  // fit the largest bucket (or the whole KV cache) can never finish, so it
  // is shed here rather than admitted into certain failure.
  auto arrival = std::make_unique<Arrival>();
  arrival->totalTokens = session->totalSteps();
  if (session->totalSteps() - 1 > options_.ctxBuckets.back())
    return rejectNow(RejectReason::KvExhausted,
                     "session needs " +
                         std::to_string(session->totalSteps() - 1) +
                         " context tokens; largest bucket is " +
                         std::to_string(options_.ctxBuckets.back()));
  if (options_.kvMaxPages > 0 &&
      kv_.pagesNeededFor(arrival->totalTokens) > options_.kvMaxPages)
    return rejectNow(RejectReason::KvExhausted,
                     "session needs more KV pages than the cache holds");
  if (session->deadline <= session->submitTime)
    return rejectNow(RejectReason::Deadline,
                     "deadline expired before admission");

  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_)
      return rejectNow(RejectReason::ShuttingDown,
                       "decode scheduler is shutting down");
    if (options_.maxQueuedSessions > 0 &&
        arrivals_.size() >= options_.maxQueuedSessions)
      return rejectNow(RejectReason::QueueFull,
                       "decode admission queue full (maxQueuedSessions=" +
                           std::to_string(options_.maxQueuedSessions) + ")");
    ++pendingSessions_;
    arrival->session = std::move(session);
    arrivals_.push_back(std::move(arrival));
    notify = true;
  }
  if (notify) wake_.notify_all();
  return future;
}

void DecodeScheduler::admitLocked(
    std::vector<std::unique_ptr<ActiveSession>>& admitted) {
  // Run-to-completion baseline: a new wave may only start once the previous
  // wave has fully drained. Continuous batching admits whenever a slot is
  // free — the whole point of iteration-level scheduling.
  if (!options_.continuous && !active_.empty()) return;
  const auto now = Clock::now();
  auto it = arrivals_.begin();
  while (it != arrivals_.end() &&
         active_.size() + admitted.size() < options_.maxActiveSessions) {
    Arrival& arrival = **it;
    std::unique_ptr<ActiveSession> session = std::move(arrival.session);
    const std::int64_t totalTokens = arrival.totalTokens;
    it = arrivals_.erase(it);
    if (stopping_) {
      rejectSession(std::move(session), RejectReason::ShuttingDown,
                    "decode scheduler is shutting down");
      continue;
    }
    if (session->deadline <= now) {
      rejectSession(std::move(session), RejectReason::Deadline,
                    "session deadline expired in the admission queue");
      continue;
    }
    if (!kv_.tryReserve(session->id, totalTokens)) {
      // Shedding, not waiting: KvExhausted is a typed outcome the client
      // retries against; holding the session would deadlock a full cache
      // whose sessions never finish (e.g. all waiting on each other).
      rejectSession(std::move(session), RejectReason::KvExhausted,
                    "KV cache cannot reserve " +
                        std::to_string(kv_.pagesNeededFor(totalTokens)) +
                        " pages");
      continue;
    }
    session->admitTime = now;
    session->joined = true;
    session->x = session->prompt.narrow(0, 0, 1);
    {
      std::lock_guard<std::mutex> lock(metricsMutex_);
      ++joins_;
    }
    admitted.push_back(std::move(session));
  }
  // When stopping, everything still queued is shed right away.
  if (stopping_) {
    for (auto& a : arrivals_)
      rejectSession(std::move(a->session), RejectReason::ShuttingDown,
                    "decode scheduler is shutting down");
    arrivals_.clear();
  }
}

void DecodeScheduler::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    std::vector<std::unique_ptr<ActiveSession>> admitted;
    admitLocked(admitted);
    for (auto& s : admitted) active_.push_back(std::move(s));
    if (active_.empty()) {
      if (stopping_ && arrivals_.empty()) return;
      wake_.wait(lock, [this] { return stopping_ || !arrivals_.empty(); });
      continue;
    }
    lock.unlock();
    stepOnce();
    lock.lock();
  }
}

void DecodeScheduler::stepOnce() {
  const auto stepStart = Clock::now();
  obs::TraceSpan span("serve", "decode.step");

  // A session whose remaining deadline ran out does not re-join the batch.
  std::vector<std::unique_ptr<ActiveSession>> live;
  live.reserve(active_.size());
  for (auto& s : active_) {
    if (s->deadline <= stepStart)
      rejectSession(std::move(s), RejectReason::Deadline,
                    "session deadline expired mid-generation");
    else
      live.push_back(std::move(s));
  }
  active_ = std::move(live);
  if (active_.empty()) return;

  // Group by context bucket; same bucket ⇒ same program key ⇒ the inner
  // engine coalesces the steps into one execution (up to maxStepBatch).
  std::map<std::int64_t, std::vector<ActiveSession*>> groups;
  for (auto& s : active_) groups[bucketFor(s->step)].push_back(s.get());

  span.arg("sessions", static_cast<std::int64_t>(active_.size()));
  span.arg("buckets", static_cast<std::int64_t>(groups.size()));

  std::vector<std::pair<ActiveSession*, std::future<Response>>> futures;
  futures.reserve(active_.size());
  for (auto& [bucket, members] : groups) {
    for (ActiveSession* s : members) {
      Tensor kctx = Tensor::zeros({1, bucket, kDecodeDim});
      Tensor vctx = Tensor::zeros({1, bucket, kDecodeDim});
      if (s->step > 0)
        kv_.gather(s->id, bucket, kctx.data<float>(), vctx.data<float>());
      // Additive mask: history slots [0, step) and the current token (slot
      // `bucket`) attend; padded slots get a value large enough that their
      // softmax weight underflows to exactly 0.0f (the bitwise-padding
      // contract in src/workloads/decode.cpp).
      Tensor mask = Tensor::zeros({1, bucket + 1});
      float* m = mask.data<float>();
      for (std::int64_t i = s->step; i < bucket; ++i) m[i] = kMaskNegative;

      Request req;
      req.workload = "decode_step";
      req.config.batch = 1;
      req.config.seqLen = bucket;
      req.config.seed = options_.seed;
      req.inputs.emplace_back(s->x);
      req.inputs.emplace_back(std::move(kctx));
      req.inputs.emplace_back(std::move(vctx));
      req.inputs.emplace_back(std::move(mask));
      // Step requests carry no deadline of their own: the *session* deadline
      // is enforced here, per iteration, and a sealed step batch is always
      // allowed to finish (matching the engine's "executing work is
      // delivered late, not cancelled" rule).
      futures.emplace_back(s, engine_.submit(std::move(req)));
    }
  }

  // Seal and execute everything submitted this iteration immediately — the
  // iteration boundary, not a wait window, is what forms decode batches.
  engine_.drain();

  std::vector<std::unique_ptr<ActiveSession>> survivors;
  survivors.reserve(active_.size());
  // Terminal sessions are collected first and their promises fulfilled only
  // after this iteration's metrics are recorded: drain() already resolved
  // every future, so future.get() returns instantly and a client woken by
  // set_value could otherwise read metrics() before the step was counted.
  std::vector<std::unique_ptr<ActiveSession>> finished;
  std::vector<std::pair<std::unique_ptr<ActiveSession>, std::exception_ptr>>
      failed;
  std::uint64_t stepped = 0;
  for (auto& [sPtr, future] : futures) {
    // Find the owning unique_ptr (active_ order matches futures order).
    auto it = std::find_if(active_.begin(), active_.end(),
                           [sPtr = sPtr](const auto& p) {
                             return p.get() == sPtr;
                           });
    std::unique_ptr<ActiveSession> s = std::move(*it);
    active_.erase(it);
    Response resp;
    try {
      resp = future.get();
    } catch (...) {
      failed.emplace_back(std::move(s), std::current_exception());
      continue;
    }
    ++stepped;
    const Tensor out = resp.outputs[0].tensor().contiguous();
    const Tensor k = resp.outputs[1].tensor().contiguous();
    const Tensor v = resp.outputs[2].tensor().contiguous();
    kv_.append(s->id, std::span<const float>(k.data<float>(), kDecodeDim),
               std::span<const float>(v.data<float>(), kDecodeDim));
    if (resp.batchedWith > 1) ++s->batchedSteps;
    if (s->step >= s->promptLen - 1) s->generated.push_back(out);
    ++s->step;
    if (s->step >= s->totalSteps()) {
      finished.push_back(std::move(s));
      continue;
    }
    s->x = s->step < s->promptLen ? s->prompt.narrow(0, s->step, 1) : out;
    survivors.push_back(std::move(s));
  }
  active_ = std::move(survivors);

  {
    std::lock_guard<std::mutex> lock(metricsMutex_);
    steps_ += stepped;
    ++iterations_;
    occupancy_.observe(static_cast<double>(stepped));
    if (stepped > 0) {
      if (!haveStepSpan_) {
        firstStep_ = stepStart;
        haveStepSpan_ = true;
      }
      lastStep_ = Clock::now();
    }
  }

  for (auto& s : finished) finishSession(std::move(s));
  for (auto& [s, error] : failed) failSession(std::move(s), std::move(error));
  span.arg("stepped", static_cast<std::int64_t>(stepped));
}

// Terminal bookkeeping runs BEFORE the promise is fulfilled: the moment a
// client's future resolves it may read metrics()/kv stats, and must find the
// session's pages already released and the counters already settled.
void DecodeScheduler::sessionDone(ActiveSession& session) {
  if (session.joined) {
    kv_.release(session.id);
    std::lock_guard<std::mutex> lock(metricsMutex_);
    ++leaves_;  // joins_ and leaves_ balance once the scheduler is idle
  }
  std::lock_guard<std::mutex> lock(drainMutex_);
  --pendingSessions_;
  drainCv_.notify_all();
}

void DecodeScheduler::finishSession(std::unique_ptr<ActiveSession> session) {
  DecodeResult result;
  result.steps = session->totalSteps();
  result.batchedSteps = session->batchedSteps;
  result.queueUs = usBetween(session->submitTime, session->admitTime);
  result.totalUs = usBetween(session->submitTime, Clock::now());
  result.generated = Tensor::zeros({session->generate, kDecodeDim});
  float* out = result.generated.data<float>();
  for (std::size_t i = 0; i < session->generated.size(); ++i)
    std::memcpy(out + static_cast<std::int64_t>(i) * kDecodeDim,
                session->generated[i].data<float>(),
                sizeof(float) * kDecodeDim);
  {
    std::lock_guard<std::mutex> lock(metricsMutex_);
    ++completed_;
  }
  sessionDone(*session);
  session->promise.set_value(std::move(result));
}

void DecodeScheduler::rejectSession(std::unique_ptr<ActiveSession> session,
                                    RejectReason reason,
                                    const std::string& detail) {
  {
    std::lock_guard<std::mutex> lock(metricsMutex_);
    ++rejected_[static_cast<int>(reason)];
  }
  sessionDone(*session);
  session->promise.set_exception(std::make_exception_ptr(
      RejectedError(reason, "session '" + session->id + "': " + detail)));
}

void DecodeScheduler::failSession(std::unique_ptr<ActiveSession> session,
                                  std::exception_ptr error) {
  sessionDone(*session);
  session->promise.set_exception(std::move(error));
}

void DecodeScheduler::drain() {
  std::unique_lock<std::mutex> lock(drainMutex_);
  drainCv_.wait(lock, [this] { return pendingSessions_.load() == 0; });
}

void DecodeScheduler::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  drain();
}

DecodeMetricsSnapshot DecodeScheduler::metrics() const {
  DecodeMetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(metricsMutex_);
    snap.sessionsSubmitted = submitted_;
    snap.sessionsCompleted = completed_;
    snap.joins = joins_;
    snap.leaves = leaves_;
    for (int r = 0; r < kNumRejectReasons; ++r)
      snap.rejected[r] = rejected_[r];
    snap.steps = steps_;
    snap.iterations = iterations_;
    snap.meanOccupancy =
        iterations_ == 0 ? 0.0
                         : static_cast<double>(steps_) /
                               static_cast<double>(iterations_);
    if (haveStepSpan_ && steps_ > 0) {
      const double spanUs = usBetween(firstStep_, lastStep_);
      if (spanUs > 0)
        snap.stepsPerSec = static_cast<double>(steps_) / (spanUs * 1e-6);
    }
  }
  snap.kv = kv_.stats();
  return snap;
}

void DecodeScheduler::exportMetrics(obs::MetricsRegistry& registry,
                                    std::string_view labels) const {
  const DecodeMetricsSnapshot snap = metrics();
  const auto counter = [&](const char* name, std::int64_t value) {
    registry.counterSet(obs::withLabels(name, labels), value);
  };
  const auto gauge = [&](const char* name, double value) {
    registry.gaugeSet(obs::withLabels(name, labels), value);
  };
  counter("tssa_decode_sessions_total",
          static_cast<std::int64_t>(snap.sessionsSubmitted));
  counter("tssa_decode_sessions_completed_total",
          static_cast<std::int64_t>(snap.sessionsCompleted));
  counter("tssa_decode_joins_total", static_cast<std::int64_t>(snap.joins));
  counter("tssa_decode_leaves_total", static_cast<std::int64_t>(snap.leaves));
  for (int r = 0; r < kNumRejectReasons; ++r) {
    const RejectReason reason = static_cast<RejectReason>(r);
    registry.counterSet(
        obs::withLabels("tssa_decode_rejected_total{reason=\"" +
                            std::string(rejectReasonName(reason)) + "\"}",
                        labels),
        static_cast<std::int64_t>(snap.rejected[r]));
  }
  counter("tssa_decode_steps_total", static_cast<std::int64_t>(snap.steps));
  counter("tssa_decode_iterations_total",
          static_cast<std::int64_t>(snap.iterations));
  gauge("tssa_decode_steps_per_s", snap.stepsPerSec);
  gauge("tssa_decode_mean_occupancy", snap.meanOccupancy);
  gauge("tssa_decode_kv_pages_in_use",
        static_cast<double>(snap.kv.pagesInUse));
  gauge("tssa_decode_kv_pages_high_water",
        static_cast<double>(snap.kv.pagesHighWater));
  gauge("tssa_decode_kv_page_capacity",
        static_cast<double>(snap.kv.pageCapacity));
  counter("tssa_decode_kv_exhausted_total",
          static_cast<std::int64_t>(snap.kv.exhaustedReservations));
  counter("tssa_decode_kv_tokens_total",
          static_cast<std::int64_t>(snap.kv.appendedTokens));
  {
    std::lock_guard<std::mutex> lock(metricsMutex_);
    registry.observeMany(obs::withLabels("tssa_decode_step_occupancy", labels),
                         occupancy_.samples());
  }
}

std::string DecodeMetricsSnapshot::toString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "sessions=%llu completed=%llu rejected=%llu joins=%llu leaves=%llu "
      "steps=%llu iters=%llu occupancy=%.2f steps_per_s=%.1f "
      "kv_pages=%lld/%lld high_water=%lld exhausted=%lld",
      static_cast<unsigned long long>(sessionsSubmitted),
      static_cast<unsigned long long>(sessionsCompleted),
      static_cast<unsigned long long>(rejectedTotal()),
      static_cast<unsigned long long>(joins),
      static_cast<unsigned long long>(leaves),
      static_cast<unsigned long long>(steps),
      static_cast<unsigned long long>(iterations), meanOccupancy,
      stepsPerSec, static_cast<long long>(kv.pagesInUse),
      static_cast<long long>(kv.pageCapacity),
      static_cast<long long>(kv.pagesHighWater),
      static_cast<long long>(kv.exhaustedReservations));
  return buf;
}

}  // namespace tssa::serve
