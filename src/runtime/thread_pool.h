// Reusable worker pool for data-parallel execution.
//
// The runtime's parallel constructs — tssa::ParallelMap iteration batches and
// the tiles of fused bodies — share one process-wide pool so
// thread creation is paid once, not per kernel. Work is distributed by
// *static chunking*: `parallelFor(n, w, fn)` splits [0, n) into at most `w`
// contiguous chunks, runs chunk 0 on the calling thread (which keeps the hot
// cache where the operands were produced), and returns only after every
// chunk finished — while waiting, the caller *helps* execute queued chunk
// tasks (never blocking submit()ed tasks), which makes nested parallelFor
// calls deadlock-free.
// Exceptions thrown inside chunks are collected and the
// lowest-chunk-index one is rethrown on the caller after the barrier, so a
// failing parallel region behaves like its serial equivalent.
//
// Determinism contract: chunk boundaries depend only on (n, maxWorkers),
// never on scheduling, and the callback receives its chunk index — callers
// that accumulate per-chunk state can therefore merge results in chunk order
// and obtain scheduling-independent (bitwise reproducible) totals.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tssa::runtime {

class ThreadPool {
 public:
  /// Worker threads are spawned lazily, on first demand.
  ThreadPool() = default;
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool shared by all interpreters.
  static ThreadPool& shared();

  /// `std::thread::hardware_concurrency()`, clamped to at least 1.
  static int hardwareThreads();

  /// Runs `fn(begin, end, chunk)` over a static partition of [0, n) into
  /// min(maxWorkers, n) contiguous chunks. Chunk 0 runs on the calling
  /// thread; the call returns only after every chunk completed (exception
  /// barrier: the first-chunk exception is rethrown). With maxWorkers <= 1
  /// (or n <= 1) this degenerates to a plain serial call on the caller.
  void parallelFor(
      std::int64_t n, int maxWorkers,
      const std::function<void(std::int64_t begin, std::int64_t end,
                               int chunk)>& fn);

  /// Enqueues a detached task on the pool (fire-and-forget: completion and
  /// error delivery are the caller's responsibility — wrap the body if you
  /// need either). At least `minWorkers` workers are spawned so the task is
  /// guaranteed to run even when no parallelFor ever created workers; pass a
  /// larger value to allow that many submitted tasks to run concurrently.
  /// Used by the serving engine to execute micro-batches on the same pool
  /// that runs their ParallelMap / fused-kernel chunks (the helping barrier
  /// in parallelFor keeps that nesting deadlock-free).
  ///
  /// Submitted tasks may block (the engine's batch tasks take a per-program
  /// exec mutex), so they are ONLY ever run by dedicated worker threads —
  /// never by the helping barrier. A parallelFor caller that stole one could
  /// otherwise block on a lock its own thread (or a peer helper) already
  /// holds and deadlock; helpers steal chunk tasks exclusively, which never
  /// block on caller-held locks.
  void submit(std::function<void()> task, int minWorkers = 1);

 private:
  void ensureWorkers(int count);
  void workerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  /// parallelFor chunk tasks: non-blocking, stealable by helping barriers.
  std::deque<std::function<void()>> chunkQueue_;
  /// submit()ed tasks: may block on external locks, workers only.
  std::deque<std::function<void()>> taskQueue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace tssa::runtime
