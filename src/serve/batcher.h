// Dynamic micro-batcher.
//
// Requests for the same program key arriving within a bounded window are
// coalesced into one batched execution along the workload's batch dimension.
// A batch is sealed and dispatched as soon as it reaches `maxBatch` requests
// or its window (`maxWaitUs`, counted from the first request that opened it)
// expires — the classic throughput/latency trade of serving stacks. Requests
// carrying deadlines tighten the seal: the batch seals no later than the
// point where half the tightest member's remaining budget is spent, keeping
// the other half for execution. The batcher only groups; executing a sealed
// batch is the dispatch callback's job (the Engine submits it to the shared
// runtime ThreadPool).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/serve/request.h"

namespace tssa::serve {

class FaultInjector;

/// A batch leaving the batcher: ≥ 1 request, all same program key and
/// compatible shared inputs. `virtualDelayUs` is the fault-injected stall
/// between seal and execution (0 normally); the engine's pre-execution
/// deadline check treats seal time + this delay as "now".
struct SealedBatch {
  std::vector<std::unique_ptr<PendingRequest>> requests;
  std::int64_t virtualDelayUs = 0;
  const char* reason = "solo";  ///< why the batch sealed (for traces/tests)
};

class MicroBatcher {
 public:
  struct Options {
    int maxBatch = 8;            ///< seal when this many requests coalesced
    std::int64_t maxWaitUs = 200;  ///< seal when the window expires
    /// Optional fault seam: every seal is reported to it and may pick up a
    /// virtual delay (EngineOptions::faultInjector). Not owned.
    FaultInjector* injector = nullptr;
  };

  /// Called with every sealed batch. May run on the submitting thread (batch
  /// full, deadline-tight, or batching disabled) or on the batcher's timer
  /// thread (window expiry).
  using DispatchFn = std::function<void(SealedBatch)>;

  MicroBatcher(Options options, DispatchFn dispatch);
  /// Seals and dispatches everything still open, then joins the timer.
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Adds a request to the open batch for its key (sealing first when the
  /// request is incompatible with it), or dispatches immediately when
  /// batching is disabled (maxBatch <= 1 or maxWaitUs <= 0) or the workload
  /// is not batchable. A request carrying tuner overrides
  /// (PendingRequest::maxBatchOverride / maxWaitUsOverride) is grouped under
  /// those values instead of the engine-wide defaults. A request with a deadline pulls the batch's seal time
  /// forward to now + (deadline - now) / 2; the timer thread is woken so a
  /// tighter seal time shortens its current wait.
  void enqueue(std::unique_ptr<PendingRequest> request);

  /// Seals and dispatches all open batches now (used by Engine::drain).
  void flush();

 private:
  struct OpenBatch {
    std::vector<std::unique_ptr<PendingRequest>> requests;
    std::chrono::steady_clock::time_point sealAt;
  };

  /// Two same-key requests may share a batch iff their shared (non-batched)
  /// inputs agree and their batched tensor inputs are concatenable along
  /// the batch dim: equal extents everywhere else (rank and dtype agree
  /// already — both instantiate the key's pattern), ragged batch extents.
  static bool compatible(const PendingRequest& a, const PendingRequest& b);

  void timerLoop();

  const Options options_;
  const DispatchFn dispatch_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::map<std::string, OpenBatch> open_;  ///< keyed by ProgramKey::toString
  bool stopping_ = false;
  std::thread timer_;
};

}  // namespace tssa::serve
