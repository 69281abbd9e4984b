// Execution profiler: kernel-launch counting and simulated-time accounting.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "src/runtime/device.h"

namespace tssa::runtime {

/// Collects the two metrics the paper reports: kernel launch counts (Fig. 6)
/// and simulated latency (Figs. 5/7/8). The cost walk (src/analysis/cost.h)
/// reports every framework action and kernel of a run; the profiler prices
/// them with the device and host models and combines per-op as
/// max(host, kernel). runtime::Pipeline adds each priced run with addRun.
/// The interpreter reports only the memory planner's arena counters.
///
/// Thread safety: every method takes an internal mutex, so a reader on
/// another thread never sees a torn histogram.
class Profiler {
 public:
  Profiler(DeviceSpec device, HostSpec host)
      : device_(std::move(device)), host_(std::move(host)) {}

  // ---- Events ------------------------------------------------------------

  /// A device kernel plus the host work that dispatched it.
  void kernel(std::string_view name, std::int64_t bytes, std::int64_t flops,
              double hostUs) {
    const double k = device_.kernelTimeUs(bytes, flops);
    std::lock_guard<std::mutex> lock(mutex_);
    ++launches_;
    bytes_ += bytes;
    flops_ += flops;
    gpuUs_ += k;
    hostUs_ += hostUs;
    // Asynchronous dispatch pipelines host work under kernel execution;
    // Python-serialized dispatch pays both.
    simUs_ += host_.serialDispatch ? k + hostUs : (k > hostUs ? k : hostUs);
    perKernel_[std::string(name)] += 1;
  }

  /// Host-only work (view bookkeeping, scalar ops, control flow).
  void hostOnly(double hostUs) {
    std::lock_guard<std::mutex> lock(mutex_);
    hostUs_ += hostUs;
    simUs_ += hostUs;
  }

  void opDispatch() { hostOnly(host_.perOpUs); }
  void loopIteration() { hostOnly(host_.perLoopIterUs); }
  void branch() { hostOnly(host_.perIfUs); }
  void regionCall() { hostOnly(host_.perRegionCallUs); }

  /// A whole run priced ahead of execution: the totals and per-kernel
  /// launches another Profiler (the cost walk's) recorded for it.
  void addRun(std::int64_t launches, std::int64_t bytes, std::int64_t flops,
              double gpuUs, double hostUs, double simUs,
              const std::map<std::string, std::int64_t>& perKernel) {
    std::lock_guard<std::mutex> lock(mutex_);
    launches_ += launches;
    bytes_ += bytes;
    flops_ += flops;
    gpuUs_ += gpuUs;
    hostUs_ += hostUs;
    simUs_ += simUs;
    for (const auto& [name, count] : perKernel) perKernel_[name] += count;
  }

  /// Arena allocation accounting from the memory planner (src/tensor/arena.h):
  /// pool misses ("fresh", heap allocations) vs. pool hits ("reused").
  /// Reported by the interpreter at single-threaded points. NOTE: unlike
  /// launches/bytes/flops these counters are NOT invariant across thread
  /// counts — every worker warms its own arena — so they are kept out of the
  /// kernel histogram and the determinism contracts built on it.
  void memory(std::int64_t freshAllocs, std::int64_t reusedAllocs,
              std::int64_t freshBytes, std::int64_t reusedBytes,
              std::int64_t recycled = 0, std::int64_t recycleMisses = 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    memFresh_ += freshAllocs;
    memReused_ += reusedAllocs;
    memFreshBytes_ += freshBytes;
    memReusedBytes_ += reusedBytes;
    memRecycled_ += recycled;
    memRecycleMisses_ += recycleMisses;
  }

  // ---- Results ------------------------------------------------------------

  std::int64_t kernelLaunches() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return launches_;
  }
  std::int64_t bytesMoved() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }
  std::int64_t flops() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return flops_;
  }
  /// Pure device busy time.
  double gpuTimeUs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return gpuUs_;
  }
  /// Pure host (framework) time.
  double hostTimeUs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hostUs_;
  }
  /// Modelled end-to-end latency.
  double simTimeUs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return simUs_;
  }
  /// Snapshot copy taken under the lock: safe to call while recording is
  /// still in flight (a by-reference return here was a torn read waiting to
  /// happen for any caller overlapping a parallel region).
  std::map<std::string, std::int64_t> kernelHistogram() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return perKernel_;
  }

  /// Snapshot of the memory-planner counters.
  struct MemoryCounters {
    std::int64_t freshAllocs = 0;
    std::int64_t reusedAllocs = 0;
    std::int64_t freshBytes = 0;
    std::int64_t reusedBytes = 0;
    std::int64_t recycled = 0;       ///< buffers returned to the pool
    std::int64_t recycleMisses = 0;  ///< recycle refused (shared / tiny)
  };
  MemoryCounters memoryCounters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {memFresh_,        memReused_,    memFreshBytes_,
            memReusedBytes_, memRecycled_,  memRecycleMisses_};
  }

  const DeviceSpec& device() const { return device_; }
  const HostSpec& host() const { return host_; }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    launches_ = 0;
    bytes_ = 0;
    flops_ = 0;
    gpuUs_ = hostUs_ = simUs_ = 0;
    memFresh_ = memReused_ = memFreshBytes_ = memReusedBytes_ = 0;
    memRecycled_ = memRecycleMisses_ = 0;
    perKernel_.clear();
  }

 private:
  DeviceSpec device_;
  HostSpec host_;
  mutable std::mutex mutex_;
  std::int64_t launches_ = 0;
  std::int64_t bytes_ = 0;
  std::int64_t flops_ = 0;
  double gpuUs_ = 0;
  double hostUs_ = 0;
  double simUs_ = 0;
  std::int64_t memFresh_ = 0;
  std::int64_t memReused_ = 0;
  std::int64_t memFreshBytes_ = 0;
  std::int64_t memReusedBytes_ = 0;
  std::int64_t memRecycled_ = 0;
  std::int64_t memRecycleMisses_ = 0;
  std::map<std::string, std::int64_t> perKernel_;
};

}  // namespace tssa::runtime
