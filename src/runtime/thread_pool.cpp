#include "src/runtime/thread_pool.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <exception>

#include "src/obs/trace.h"

namespace tssa::runtime {

namespace {

/// Pins glibc's mmap threshold at its default, 128 KiB, once, before the
/// first worker thread starts. Left dynamic, glibc raises the threshold to
/// the size of every mmap'd block freed, so later blocks of that size come
/// from the allocating thread's malloc arena and stay resident there after
/// they are freed. Tensor buffers are allocated and freed on whichever
/// threads the scheduler picks, so the process's resident set would depend
/// on thread timing; pinned, every large buffer is mapped on allocation and
/// unmapped on free, whatever thread touches it.
void pinMmapThreshold() {
#if defined(__GLIBC__)
  static const int pinned = mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  (void)pinned;
#endif
}

}  // namespace

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::hardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ensureWorkers(int count) {
  pinMmapThreshold();
  std::lock_guard<std::mutex> lock(mutex_);
  while (static_cast<int>(workers_.size()) < count)
    workers_.emplace_back([this] { workerLoop(); });
}

void ThreadPool::submit(std::function<void()> task, int minWorkers) {
  ensureWorkers(std::max(minWorkers, 1));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    taskQueue_.emplace_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    const char* taskKind = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] {
        return stopping_ || !chunkQueue_.empty() || !taskQueue_.empty();
      });
      // Chunk tasks first: they gate a parallelFor barrier someone is
      // spinning on, while submitted tasks are whole batches.
      if (!chunkQueue_.empty()) {
        task = std::move(chunkQueue_.front());
        chunkQueue_.pop_front();
        taskKind = "worker.chunk";
      } else if (!taskQueue_.empty()) {
        task = std::move(taskQueue_.front());
        taskQueue_.pop_front();
        taskKind = "worker.task";
      } else {
        return;  // stopping
      }
    }
    // One span per executed task on the worker's own timeline: the gaps
    // between spans ARE the idle time, which is what a utilization view of
    // the trace needs.
    obs::TraceSpan span("pool", taskKind);
    task();
  }
}

void ThreadPool::parallelFor(
    std::int64_t n, int maxWorkers,
    const std::function<void(std::int64_t, std::int64_t, int)>& fn) {
  if (n <= 0) return;
  const int chunks =
      static_cast<int>(std::min<std::int64_t>(std::max(maxWorkers, 1), n));
  if (chunks <= 1) {
    fn(0, n, 0);
    return;
  }
  ensureWorkers(chunks - 1);

  // Completion barrier + first-chunk exception, shared with the tasks.
  struct Barrier {
    std::mutex mutex;
    std::condition_variable done;
    int pending;
    std::vector<std::exception_ptr> errors;
  };
  auto barrier = std::make_shared<Barrier>();
  barrier->pending = chunks - 1;
  barrier->errors.assign(static_cast<std::size_t>(chunks), nullptr);

  auto chunkBounds = [n, chunks](int c) {
    const std::int64_t begin = n * c / chunks;
    const std::int64_t end = n * (c + 1) / chunks;
    return std::pair<std::int64_t, std::int64_t>{begin, end};
  };
  auto runChunk = [&fn, barrier, chunkBounds](int c) {
    const auto [begin, end] = chunkBounds(c);
    try {
      fn(begin, end, c);
    } catch (...) {
      barrier->errors[static_cast<std::size_t>(c)] = std::current_exception();
    }
  };

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int c = 1; c < chunks; ++c) {
      chunkQueue_.emplace_back([runChunk, barrier, c] {
        runChunk(c);
        {
          std::lock_guard<std::mutex> dlock(barrier->mutex);
          --barrier->pending;
        }
        barrier->done.notify_one();
      });
    }
  }
  wake_.notify_all();

  runChunk(0);  // the caller takes the first (cache-warm) chunk

  // Helping barrier: while chunks of this region are pending, the caller
  // executes queued chunk tasks (possibly belonging to other regions)
  // instead of blocking. This makes nested parallelFor calls deadlock-free
  // even when every worker thread is itself parked on an inner barrier.
  // Only chunk tasks are stolen: submit()ed tasks may block on locks the
  // caller's thread already holds (e.g. the serving engine's per-program
  // exec mutex) and running one here could self-deadlock or form a lock
  // cycle between two helping callers.
  for (;;) {
    {
      std::lock_guard<std::mutex> block(barrier->mutex);
      if (barrier->pending == 0) break;
    }
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!chunkQueue_.empty()) {
        task = std::move(chunkQueue_.front());
        chunkQueue_.pop_front();
      }
    }
    if (task) {
      obs::TraceSpan span("pool", "chunk.help");
      task();
      continue;
    }
    std::unique_lock<std::mutex> block(barrier->mutex);
    // Timed wait: a task enqueued by a *nested* region after we started
    // waiting would not signal this barrier, so re-poll the queue.
    barrier->done.wait_for(block, std::chrono::milliseconds(1),
                           [&] { return barrier->pending == 0; });
  }
  for (const std::exception_ptr& e : barrier->errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
}

}  // namespace tssa::runtime
