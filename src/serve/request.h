// Typed inference requests/responses and the engine-internal pending record
// shared by the Engine and the MicroBatcher.
#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "src/serve/metrics.h"
#include "src/serve/program_cache.h"
#include "src/support/error.h"
#include "src/workloads/workload.h"

namespace tssa::serve {

/// The one sentinel for "this request/session carries no deadline". Every
/// site that turns a relative `deadlineUs` into an absolute expiry — engine
/// admission, the micro-batcher's seal bound, the decode scheduler's session
/// deadlines — must go through absoluteDeadline() so 0 means "no deadline"
/// everywhere and can never be read as "expired at epoch" by one call site
/// and "unconstrained" by another.
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// Maps a relative deadline to the absolute expiry used for enforcement:
/// 0 ⇒ kNoDeadline, negative ⇒ already expired (the enqueue instant itself,
/// so every `deadline <= now` check fires), positive ⇒ enqueue + deadlineUs.
inline std::chrono::steady_clock::time_point absoluteDeadline(
    std::chrono::steady_clock::time_point enqueueTime,
    std::int64_t deadlineUs) {
  if (deadlineUs == 0) return kNoDeadline;
  if (deadlineUs < 0) return enqueueTime;
  return enqueueTime + std::chrono::microseconds(deadlineUs);
}

inline bool hasDeadline(std::chrono::steady_clock::time_point deadline) {
  return deadline != kNoDeadline;
}

/// Microseconds from `t0` to `t1`, for the latency splits a response reports.
inline double usBetween(std::chrono::steady_clock::time_point t0,
                        std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// One inference request for a registered workload. `config` carries the
/// shape parameters (batch, seqLen) and the seed the workload's constant
/// weights were drawn with; `inputs` must instantiate the workload's
/// symbolic pattern with its batch dims equal to `config.batch` (empty
/// inputs are filled with Engine::defaultInputs at submit). Inputs that do
/// not are refused at submit with RejectedError(BadRequest).
struct Request {
  std::string workload;
  workloads::WorkloadConfig config;
  std::vector<runtime::RtValue> inputs;
  /// Relative deadline from submit, in microseconds. 0 means no deadline;
  /// a negative value is treated as already expired (rejected at admission).
  /// Enforced at admission, in the micro-batcher (a tight deadline seals its
  /// batch early, leaving half the remaining budget for execution), and once
  /// more just before the batch executes; a miss is delivered as
  /// RejectedError(RejectReason::Deadline). Work that is already executing
  /// when the deadline passes is finished and delivered late, not cancelled.
  std::int64_t deadlineUs = 0;
};

struct Response {
  std::vector<runtime::RtValue> outputs;
  RequestTiming timing;
  int batchedWith = 1;   ///< requests coalesced into the same execution
  /// Program was compiled and ready when this request's batch looked it up
  /// (timing.compileUs == 0). False both when this batch compiled it and
  /// when it blocked on a concurrent single-flight compile — and always
  /// false on the fallback path, which never runs the engine's program.
  bool cacheHit = false;
  /// Served via the reference (eager, unbatched) pipeline because the
  /// program's compile failed (graceful degradation, DESIGN.md §10).
  bool fallback = false;
};

/// The typed failure a submit future throws when the engine refuses to
/// serve a request: load shedding, deadline misses, and unrecoverable
/// compile failures are expected serving outcomes that clients dispatch on
/// (retry elsewhere, hedge, drop), not anonymous tssa::Error strings.
class RejectedError : public Error {
 public:
  RejectedError(RejectReason reason, const std::string& detail,
                const char* file = __builtin_FILE(),
                int line = __builtin_LINE())
      : Error("request rejected (" + std::string(rejectReasonName(reason)) +
                  "): " + detail,
              file, line),
        reason_(reason) {}

  RejectReason reason() const noexcept { return reason_; }

 private:
  RejectReason reason_;
};

/// A submitted request waiting for execution: request payload + the promise
/// its response is delivered through + everything the batcher needs to
/// group it (per-request program key, batch traits, absolute deadline).
struct PendingRequest {
  Request request;
  std::promise<Response> promise;
  std::chrono::steady_clock::time_point enqueueTime;
  /// Absolute expiry, always computed via absoluteDeadline(): kNoDeadline
  /// when the request carries no deadline (deadlineUs == 0).
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  /// The workload's pattern key (Engine::keyFor): the compiled program is
  /// shape-polymorphic, so batching may be ragged along the batch dim.
  ProgramKey key;
  workloads::BatchTraits traits;
  /// Micro-batch knobs from the autotuner (EngineOptions::tuner), resolved
  /// at admission so the batcher never touches the tuner: 0 / -1 keep the
  /// engine-wide defaults. Same program key ⇒ same overrides (the tuner is
  /// keyed by workload × kind), so every member of a batch agrees on them.
  int maxBatchOverride = 0;
  std::int64_t maxWaitUsOverride = -1;
  std::string sessionId;
  /// The owning session's in-flight counter; decremented exactly once when
  /// the promise is fulfilled (response, exception, or rejection). Null for
  /// requests admitted before per-session caps existed in the path.
  std::shared_ptr<std::atomic<std::int64_t>> sessionInFlight;
};

}  // namespace tssa::serve
