// Iteration-level continuous batching for autoregressive decode sessions.
//
// A DecodeSession is a chain of dependent steps: step s consumes the
// previous step's output token plus the session's whole K/V history, so the
// serving engine's one-shot request model cannot batch a session as a unit —
// two sessions are never at the same place at the same time. Following
// Orca's iteration-level scheduling, the DecodeScheduler re-forms the batch
// *every step*: each scheduler iteration collects one pending step from
// every live session, groups them by context-length bucket, and submits the
// groups to a dedicated inner Engine whose MicroBatcher coalesces same-
// bucket steps into one execution. Newly admitted sessions join the very
// next iteration and finished sessions leave mid-wave — no session ever
// waits for another's generation to end (the run-to-completion baseline,
// `continuous = false`, exists only as the thing to beat;
// bench/decode_throughput.cpp measures the gap).
//
// Context lengths are padded up to the smallest configured bucket that
// holds them, with an additive mask neutralizing the padded rows. Bucketing
// used to be what kept the compile count bounded (one program per bucket ×
// coalesced batch size); with the engine's pattern keys (DESIGN.md §13) ONE
// polymorphic decode_step program serves every bucket and batch size, and
// bucketing survives for what it still buys: same-bucket steps
// share a context extent, so the inner engine's batcher can coalesce them,
// and the largest bucket stays the admission bound. Padding and coalescing
// are both bitwise-invisible (tests/decode_test.cpp asserts a batched
// session equals its solo run bit for bit, including exactly at a bucket
// edge).
//
// Session state lives outside the graphs: the K/V history in a paged
// KvCache (src/tensor/kv_cache.h) reserved worst-case at admission — so a
// session admitted is a session that can finish — and the token vector in
// the session record. Admission extends the engine's semantics to sessions:
// a queue bound (QueueFull), a session-level deadline checked before every
// step (Deadline — a session whose deadline expires mid-generation does not
// re-join the next step batch), shutdown (ShuttingDown), and KV reservation
// failure (KvExhausted). Every refusal is the same typed RejectedError the
// engine uses. DESIGN.md §12 has the full state machine.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/engine.h"
#include "src/tensor/kv_cache.h"

namespace tssa::serve {

struct DecodeOptions {
  runtime::PipelineKind kind = runtime::PipelineKind::TensorSsa;
  runtime::PipelineOptions pipeline{};
  /// Sessions coalesced into one step execution (the inner engine's
  /// micro-batch cap).
  int maxStepBatch = 8;
  /// Sessions generating concurrently; arrivals beyond it wait in the
  /// admission queue. Bounds both step-batch pressure and worst-case KV use.
  std::size_t maxActiveSessions = 16;
  /// Queued-arrival bound; a submit beyond it is shed with QueueFull.
  /// 0 = unbounded.
  std::size_t maxQueuedSessions = 0;
  /// Context-length buckets (ascending). A session whose context would
  /// outgrow the largest bucket is rejected at submit.
  std::vector<std::int64_t> ctxBuckets = {16, 32, 64, 128, 256};
  /// KV page size in tokens and total page budget (0 = unbounded); see
  /// KvCacheOptions.
  std::int64_t kvPageTokens = 16;
  std::int64_t kvMaxPages = 0;
  /// Seed the decode_step projection weights are drawn from (the same seed
  /// must be used when replaying a session for verification).
  std::uint64_t seed = 42;
  /// Iteration-level continuous batching (true) vs naive run-to-completion
  /// batching (false): admit a wave only when the previous wave has fully
  /// finished. The baseline bench/decode_throughput.cpp compares against.
  bool continuous = true;
  /// Forwarded to the inner engine (EngineOptions::executePool / shardId):
  /// a Router gives each shard's scheduler the shard's own pool and
  /// identity so decode step execution and trace spans stay shard-scoped.
  runtime::ThreadPool* executePool = nullptr;
  int shardId = -1;
};

/// One decode session: process `prompt` (one forced step per row), then
/// generate `generate` tokens autoregressively.
struct DecodeRequest {
  /// [promptLen, workloads::kDecodeDim] float32, promptLen >= 1.
  Tensor prompt;
  std::int64_t generate = 8;  ///< tokens to generate (>= 1)
  /// Session-level relative deadline: 0 = none, < 0 = already expired.
  /// Checked at admission and before every step the session would join.
  std::int64_t deadlineUs = 0;
  std::string id;  ///< optional; auto-assigned when empty
};

struct DecodeResult {
  Tensor generated;          ///< [generate, kDecodeDim]
  std::int64_t steps = 0;    ///< total steps executed (prompt + generation)
  /// Steps that shared their engine execution with >= 1 other session —
  /// the continuous-batching win measured per session.
  std::int64_t batchedSteps = 0;
  double queueUs = 0;        ///< submit → admitted into the active set
  double totalUs = 0;        ///< submit → finished
};

struct DecodeMetricsSnapshot {
  std::uint64_t sessionsSubmitted = 0;
  std::uint64_t sessionsCompleted = 0;
  std::uint64_t joins = 0;   ///< sessions admitted into the active set
  std::uint64_t leaves = 0;  ///< sessions that left it (any outcome)
  std::uint64_t rejected[kNumRejectReasons] = {};
  std::uint64_t steps = 0;           ///< session-steps executed
  std::uint64_t iterations = 0;      ///< scheduler step-batch iterations
  /// Mean sessions per iteration (batch occupancy of the step loop).
  double meanOccupancy = 0;
  double stepsPerSec = 0;  ///< session-steps / wall-clock span of the run
  KvCache::Stats kv;
  std::uint64_t rejectedFor(RejectReason reason) const {
    return rejected[static_cast<int>(reason)];
  }
  std::uint64_t rejectedTotal() const {
    std::uint64_t n = 0;
    for (std::uint64_t r : rejected) n += r;
    return n;
  }
  std::string toString() const;
};

/// The scheduler. Thread-safe: submit/drain/metrics may be called from any
/// thread; all stepping happens on one internal loop thread.
class DecodeScheduler {
 public:
  explicit DecodeScheduler(DecodeOptions options = {});
  /// Finishes every admitted session, rejects what is still queued, joins
  /// the loop.
  ~DecodeScheduler();

  DecodeScheduler(const DecodeScheduler&) = delete;
  DecodeScheduler& operator=(const DecodeScheduler&) = delete;

  /// Asynchronous submit. The future throws RejectedError on shedding
  /// (QueueFull, Deadline, ShuttingDown, KvExhausted) and tssa::Error when a
  /// step execution fails; malformed prompts throw synchronously.
  std::future<DecodeResult> submit(DecodeRequest request);

  /// Blocks until every submitted session has finished.
  void drain();
  /// Stops admitting (queued sessions are shed with ShuttingDown), finishes
  /// the active ones, then returns. Idempotent; the destructor implies it.
  void shutdown();

  DecodeMetricsSnapshot metrics() const;
  /// Exports the snapshot under the canonical tssa_decode_* names plus the
  /// per-iteration occupancy histogram. `labels` (e.g. `shard="1"`) is
  /// spliced into every name so several schedulers can share one registry
  /// (see serve::exportSnapshot for the disjoint-label-set contract).
  void exportMetrics(obs::MetricsRegistry& registry,
                     std::string_view labels = {}) const;
  /// The inner engine's view of the same traffic (batch sizes, cache hits,
  /// latency percentiles of individual steps).
  MetricsSnapshot engineMetrics() const { return engine_.metrics(); }
  const DecodeOptions& options() const { return options_; }

  /// A reproducible random prompt of `len` tokens (for tests and benches).
  static Tensor randomPrompt(std::int64_t len, std::uint64_t seed);

 private:
  struct ActiveSession;
  struct Arrival;

  void loop();
  /// Moves admissible arrivals into the active set (mutex_ held).
  void admitLocked(std::vector<std::unique_ptr<ActiveSession>>& admitted);
  /// Runs one scheduler iteration over `active_` (loop thread, no lock).
  void stepOnce();
  std::int64_t bucketFor(std::int64_t tokens) const;
  void finishSession(std::unique_ptr<ActiveSession> session);
  void rejectSession(std::unique_ptr<ActiveSession> session,
                     RejectReason reason, const std::string& detail);
  void failSession(std::unique_ptr<ActiveSession> session,
                   std::exception_ptr error);
  /// Terminal bookkeeping shared by the three outcomes above.
  void sessionDone(ActiveSession& session);

  const DecodeOptions options_;
  KvCache kv_;
  Engine engine_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<std::unique_ptr<Arrival>> arrivals_;
  bool stopping_ = false;

  /// Sessions currently generating; owned and touched only by the loop
  /// thread outside the mutex.
  std::vector<std::unique_ptr<ActiveSession>> active_;

  std::atomic<std::uint64_t> pendingSessions_{0};
  std::mutex drainMutex_;
  std::condition_variable drainCv_;
  std::atomic<std::uint64_t> sessionCounter_{0};

  // ---- Metrics (guarded by metricsMutex_) ---------------------------------
  mutable std::mutex metricsMutex_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t joins_ = 0;
  std::uint64_t leaves_ = 0;
  std::uint64_t rejected_[kNumRejectReasons] = {};
  std::uint64_t steps_ = 0;
  std::uint64_t iterations_ = 0;
  obs::Histogram occupancy_;  ///< sessions stepped per iteration
  bool haveStepSpan_ = false;
  std::chrono::steady_clock::time_point firstStep_;
  std::chrono::steady_clock::time_point lastStep_;

  std::thread thread_;  ///< last member: joined before the rest dies
};

}  // namespace tssa::serve
