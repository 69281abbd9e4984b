#include "src/serve/batcher.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"
#include "src/serve/fault_injector.h"

namespace tssa::serve {

using Clock = std::chrono::steady_clock;

namespace {

/// Seal + hand-off span: records why a batch left the batcher (full window,
/// expired window, deadline-tight member, incompatible arrival, flush, or
/// batching disabled) and how many requests it coalesced — the two numbers
/// that explain every batching decision in a trace.
void dispatchSealed(const MicroBatcher::DispatchFn& dispatch,
                    FaultInjector* injector,
                    std::vector<std::unique_ptr<PendingRequest>> requests,
                    const char* reason) {
  SealedBatch batch;
  batch.requests = std::move(requests);
  batch.reason = reason;
  if (injector != nullptr) batch.virtualDelayUs = injector->onBatchSeal();
  obs::TraceSpan span("serve", "batcher.seal");
  span.arg("reason", reason);
  span.arg("batch_size", static_cast<std::int64_t>(batch.requests.size()));
  if (span.active() && !batch.requests.empty())
    span.arg("workload", batch.requests.front()->request.workload);
  dispatch(std::move(batch));
}

/// The latest instant a batch containing `request` may seal: half the
/// request's remaining budget is kept for execution. Requests with no
/// deadline don't constrain the seal (time_point::max()).
Clock::time_point sealBound(const PendingRequest& request,
                            Clock::time_point now) {
  if (!hasDeadline(request.deadline)) return Clock::time_point::max();
  if (request.deadline <= now) return now;  // already due: seal immediately
  return now + (request.deadline - now) / 2;
}

}  // namespace

MicroBatcher::MicroBatcher(Options options, DispatchFn dispatch)
    : options_(options), dispatch_(std::move(dispatch)) {
  timer_ = std::thread([this] { timerLoop(); });
}

MicroBatcher::~MicroBatcher() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  timer_.join();
  // The timer drained every open batch before exiting; nothing left here.
}

bool MicroBatcher::compatible(const PendingRequest& a,
                              const PendingRequest& b) {
  // Same key ⇒ both requests instantiate the same symbolic pattern (checked
  // at admission), so arity, ranks, dtypes and static extents already agree.
  // Shared inputs (batch dim -1) must agree on their values; in the
  // registry those are always scalars (yolact num_dets, fcos normalize).
  // Batched tensor inputs must be concatenable along the batch dim: two
  // requests share a batch iff every *non-batch* extent agrees — the batch
  // extents themselves are free to differ (ragged coalescing).
  for (std::size_t i = 0; i < a.traits.inputDims.size(); ++i) {
    const int d = a.traits.inputDims[i];
    const runtime::RtValue& x = a.request.inputs[i];
    const runtime::RtValue& y = b.request.inputs[i];
    if (d < 0) {
      if (!x.isScalar()) return false;  // shared tensors: be conservative
      if (!(x.scalar() == y.scalar())) return false;
      continue;
    }
    const Tensor& s = x.tensor();
    const Tensor& t = y.tensor();
    for (std::int64_t dim = 0; dim < s.dim(); ++dim)
      if (dim != d && s.size(dim) != t.size(dim)) return false;
  }
  return true;
}

void MicroBatcher::enqueue(std::unique_ptr<PendingRequest> request) {
  // Per-request tuner overrides (0 / -1 = keep the engine defaults). All
  // requests sharing a program key carry the same overrides, so using the
  // arriving request's values for its batch is consistent.
  const int maxBatch = request->maxBatchOverride > 0
                           ? request->maxBatchOverride
                           : options_.maxBatch;
  const std::int64_t maxWaitUs = request->maxWaitUsOverride >= 0
                                     ? request->maxWaitUsOverride
                                     : options_.maxWaitUs;
  const bool batchingOff = maxBatch <= 1 || maxWaitUs <= 0;
  if (batchingOff || !request->traits.batchable()) {
    std::vector<std::unique_ptr<PendingRequest>> solo;
    solo.push_back(std::move(request));
    dispatchSealed(dispatch_, options_.injector, std::move(solo), "solo");
    return;
  }

  std::vector<std::unique_ptr<PendingRequest>> sealed;
  const char* sealReason = "full";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto now = Clock::now();
    const auto bound = sealBound(*request, now);
    const std::string keyStr = request->key.toString();
    auto it = open_.find(keyStr);
    if (it != open_.end() &&
        !compatible(*it->second.requests.front(), *request)) {
      sealed = std::move(it->second.requests);  // incompatible: seal the old
      sealReason = "incompatible";
      open_.erase(it);
      it = open_.end();
    }
    if (it == open_.end()) {
      OpenBatch batch;
      batch.sealAt =
          std::min(now + std::chrono::microseconds(maxWaitUs), bound);
      batch.requests.push_back(std::move(request));
      const bool due = batch.sealAt <= now;
      open_.emplace(keyStr, std::move(batch));
      if (due) it = open_.find(keyStr);
    } else {
      // A deadline-carrying arrival pulls the whole batch's seal forward;
      // the notify below makes the timer recompute its wait from the new
      // earliest seal time (a tighter deadline shortens the wait).
      it->second.sealAt = std::min(it->second.sealAt, bound);
      it->second.requests.push_back(std::move(request));
      if (static_cast<int>(it->second.requests.size()) >= maxBatch) {
        // Full: seal right here, don't wait for the window.
        sealed = std::move(it->second.requests);
        open_.erase(it);
        it = open_.end();
      }
    }
    if (it != open_.end() && sealed.empty() && it->second.sealAt <= now) {
      // The new member's deadline leaves no room to wait: seal immediately
      // so execution gets whatever budget is left.
      sealed = std::move(it->second.requests);
      sealReason = "deadline";
      open_.erase(it);
    }
  }
  wake_.notify_all();  // seal times changed
  if (!sealed.empty())
    dispatchSealed(dispatch_, options_.injector, std::move(sealed),
                   sealReason);
}

void MicroBatcher::flush() {
  std::vector<std::vector<std::unique_ptr<PendingRequest>>> batches;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [key, batch] : open_)
      batches.push_back(std::move(batch.requests));
    open_.clear();
  }
  for (auto& b : batches)
    dispatchSealed(dispatch_, options_.injector, std::move(b), "flush");
}

void MicroBatcher::timerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopping_ && open_.empty()) return;
    if (open_.empty()) {
      wake_.wait(lock, [this] { return stopping_ || !open_.empty(); });
      continue;
    }
    // Recomputed on every wake: an enqueue that tightened a batch's seal
    // time notifies wake_, we fall out of wait_until, and the next
    // iteration waits until the new (earlier) seal time.
    auto earliest = Clock::time_point::max();
    for (const auto& [key, batch] : open_)
      earliest = std::min(earliest, batch.sealAt);
    // On shutdown every open batch is due immediately.
    if (!stopping_) {
      wake_.wait_until(lock, earliest);
      if (stopping_) continue;  // re-enter with everything due
    }
    const auto now = stopping_ ? Clock::time_point::max() : Clock::now();
    std::vector<std::vector<std::unique_ptr<PendingRequest>>> due;
    for (auto it = open_.begin(); it != open_.end();) {
      if (it->second.sealAt <= now) {
        due.push_back(std::move(it->second.requests));
        it = open_.erase(it);
      } else {
        ++it;
      }
    }
    if (due.empty()) continue;
    lock.unlock();
    for (auto& b : due)
      dispatchSealed(dispatch_, options_.injector, std::move(b), "window");
    lock.lock();
  }
}

}  // namespace tssa::serve
