// Determinism tests for the threaded execution engine (ISSUE: differential &
// determinism suite). The contract under test: for every workload, running
// the TensorSSA pipeline with 1, 4, or hardware_concurrency() workers
// produces bitwise-identical output tensors AND identical profiler numbers
// (kernel-launch counts and per-kernel histogram) — threading changes
// wall-clock time only. Plus unit tests for the ThreadPool primitive itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "src/runtime/pipeline.h"
#include "src/runtime/thread_pool.h"
#include "src/workloads/workload.h"

namespace tssa {
namespace {

using runtime::Pipeline;
using runtime::PipelineKind;
using runtime::PipelineOptions;
using runtime::RtValue;
using runtime::ThreadPool;
using workloads::buildWorkload;
using workloads::Workload;
using workloads::WorkloadConfig;

// ---- ThreadPool unit tests ------------------------------------------------

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ThreadPool::shared().parallelFor(
      1000, 7, [&](std::int64_t begin, std::int64_t end, int /*chunk*/) {
        for (std::int64_t i = begin; i < end; ++i) ++hits[i];
      });
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ChunkBoundsAreDeterministic) {
  // Chunk boundaries must depend only on (n, maxWorkers) — run twice and
  // compare the partitions.
  auto partition = [](std::int64_t n, int workers) {
    std::mutex m;
    std::set<std::pair<std::int64_t, std::int64_t>> chunks;
    ThreadPool::shared().parallelFor(
        n, workers, [&](std::int64_t begin, std::int64_t end, int /*chunk*/) {
          std::lock_guard<std::mutex> lock(m);
          chunks.emplace(begin, end);
        });
    return chunks;
  };
  const auto a = partition(97, 4);
  const auto b = partition(97, 4);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 4u);
}

TEST(ThreadPoolTest, DegenerateSizesRunSerially) {
  int calls = 0;
  ThreadPool::shared().parallelFor(
      1, 8, [&](std::int64_t begin, std::int64_t end, int chunk) {
        ++calls;
        EXPECT_EQ(begin, 0);
        EXPECT_EQ(end, 1);
        EXPECT_EQ(chunk, 0);
      });
  EXPECT_EQ(calls, 1);
  ThreadPool::shared().parallelFor(
      0, 8, [&](std::int64_t, std::int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 1);  // empty range: no invocation at all
}

TEST(ThreadPoolTest, MoreWorkersThanItems) {
  std::atomic<int> calls{0};
  ThreadPool::shared().parallelFor(
      3, 16, [&](std::int64_t begin, std::int64_t end, int /*chunk*/) {
        ++calls;
        EXPECT_EQ(end - begin, 1);
      });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      ThreadPool::shared().parallelFor(
          100, 4,
          [&](std::int64_t begin, std::int64_t /*end*/, int /*chunk*/) {
            if (begin >= 50) throw std::runtime_error("boom");
          }),
      std::runtime_error);
  // The pool must survive a failed region and keep executing work.
  std::atomic<int> ok{0};
  ThreadPool::shared().parallelFor(
      8, 4, [&](std::int64_t begin, std::int64_t end, int /*chunk*/) {
        ok += static_cast<int>(end - begin);
      });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A chunk that itself calls parallelFor must complete even when every
  // worker is busy: inner regions run on the calling thread at worst.
  std::atomic<int> total{0};
  ThreadPool::shared().parallelFor(
      4, 4, [&](std::int64_t obegin, std::int64_t oend, int /*chunk*/) {
        for (std::int64_t i = obegin; i < oend; ++i) {
          ThreadPool::shared().parallelFor(
              8, 2, [&](std::int64_t begin, std::int64_t end, int /*c*/) {
                total += static_cast<int>(end - begin);
              });
        }
      });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, HelpingBarrierNeverStealsSubmittedTasks) {
  // Regression: submit()ed tasks may block on locks the parallelFor caller
  // holds (the serving engine's per-program exec mutex). If the helping
  // barrier stole this task, the caller would run it on its own thread and
  // self-deadlock on the non-recursive mutex it already holds.
  std::mutex m;
  std::atomic<bool> taskRan{false};
  std::atomic<bool> taskDone{false};  // set after m is released
  std::unique_lock<std::mutex> held(m);
  ThreadPool::shared().submit([&] {
    {
      std::lock_guard<std::mutex> lock(m);
      taskRan = true;
    }
    taskDone = true;
  });
  std::atomic<std::int64_t> sum{0};
  ThreadPool::shared().parallelFor(
      256, 8, [&](std::int64_t begin, std::int64_t end, int /*chunk*/) {
        for (std::int64_t i = begin; i < end; ++i) sum += i;
      });
  EXPECT_EQ(sum.load(), 256 * 255 / 2);
  EXPECT_FALSE(taskRan.load());  // parked on a worker, never stolen
  held.unlock();
  // Wait on taskDone, not taskRan: it is ordered after the worker's unlock,
  // so destroying m below cannot race with that unlock.
  while (!taskDone.load()) std::this_thread::yield();
  EXPECT_TRUE(taskRan.load());
}

TEST(ThreadPoolTest, LockHoldingTasksWithNestedParallelForDoNotDeadlock) {
  // The serving-engine shape: pool tasks serialize on a shared mutex and
  // call parallelFor while holding it (threaded interpreter). The helping
  // barrier must not pop a sibling task that needs the same mutex — doing
  // so self-deadlocks (same thread) or forms a lock cycle (two helpers).
  std::mutex programMutex;
  std::atomic<int> done{0};
  constexpr int kBatches = 8;
  for (int b = 0; b < kBatches; ++b) {
    ThreadPool::shared().submit(
        [&] {
          {
            std::lock_guard<std::mutex> lock(programMutex);
            std::atomic<std::int64_t> local{0};
            ThreadPool::shared().parallelFor(
                64, 4, [&](std::int64_t begin, std::int64_t end, int /*c*/) {
                  for (std::int64_t i = begin; i < end; ++i) local += i;
                });
            EXPECT_EQ(local.load(), 64 * 63 / 2);
          }
          ++done;  // after unlock: done==kBatches ⇒ safe to destroy the mutex
        },
        /*minWorkers=*/4);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (done.load() < kBatches &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(done.load(), kBatches);
}

// ---- Bitwise determinism across thread counts -----------------------------

bool bitwiseEqual(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  for (IndexIterator it(a.sizes()); it.valid(); it.next()) {
    if (a.scalarAt(it.index()) != b.scalarAt(it.index())) return false;
  }
  return true;
}

class ParallelExecTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelExecTest, ThreadCountIsUnobservable) {
  WorkloadConfig config;
  config.batch = 2;
  config.seqLen = 12;
  Workload w = buildWorkload(GetParam(), config);

  PipelineOptions serialOpts;
  serialOpts.threads = 1;
  Pipeline serial(PipelineKind::TensorSsa, *w.graph, serialOpts);
  const std::vector<RtValue> expected = serial.run(w.inputs);

  for (int threads : {4, ThreadPool::hardwareThreads()}) {
    PipelineOptions opts;
    opts.threads = threads;
    Pipeline p(PipelineKind::TensorSsa, *w.graph, opts);
    const std::vector<RtValue> got = p.run(w.inputs);

    ASSERT_EQ(expected.size(), got.size()) << w.name;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!expected[i].isTensor()) continue;
      EXPECT_TRUE(bitwiseEqual(expected[i].tensor(), got[i].tensor()))
          << w.name << " output " << i << " not bitwise identical at threads="
          << threads;
    }
    // Profiler metrics are part of the determinism contract: the threaded
    // engine merges per-worker accumulators in chunk order, so counts and
    // the per-kernel histogram must match the serial run exactly.
    EXPECT_EQ(serial.profiler().kernelLaunches(), p.profiler().kernelLaunches())
        << w.name << " threads=" << threads;
    EXPECT_EQ(serial.profiler().bytesMoved(), p.profiler().bytesMoved())
        << w.name << " threads=" << threads;
    EXPECT_EQ(serial.profiler().flops(), p.profiler().flops())
        << w.name << " threads=" << threads;
    EXPECT_EQ(serial.profiler().kernelHistogram(), p.profiler().kernelHistogram())
        << w.name << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ParallelExecTest,
                         ::testing::ValuesIn(workloads::workloadNames()),
                         [](const auto& info) { return info.param; });

TEST(ParallelExecTest, YolactActuallyBearsAParallelMap) {
  // Guard against the suite silently testing nothing: at least one workload
  // must reach the threaded ParallelMap path (yolact's per-detection mask
  // loop, trip count 16, carried write dim 1).
  Workload w = buildWorkload("yolact", {});
  Pipeline p(PipelineKind::TensorSsa, *w.graph);
  bool found = false;
  std::vector<const ir::Block*> stack{p.compiled().topBlock()};
  while (!stack.empty()) {
    const ir::Block* b = stack.back();
    stack.pop_back();
    for (const ir::Node* node : *b) {
      if (node->kind() == ir::OpKind::ParallelMap &&
          node->attrs().has("par_dims")) {
        found = true;
      }
      for (const ir::Block* inner : node->blocks()) stack.push_back(inner);
    }
  }
  EXPECT_TRUE(found)
      << "no ParallelMap with par_dims metadata in compiled yolact";
}

// A caller's outputs survive later runs of the same Pipeline: no buffer a
// run hands back is written again, in particular not by a donated in-place
// Assign (core::markInplaceAssigns) of the next run.
TEST(PipelineOutputsTest, OutputsSurviveLaterRuns) {
  WorkloadConfig config;
  config.seqLen = 6;
  Workload w = buildWorkload("lstm", config);
  Pipeline p(PipelineKind::TensorSsa, *w.graph);

  const std::vector<RtValue> first = p.run(w.inputs);
  std::vector<Tensor> saved;
  for (const RtValue& v : first)
    if (v.isTensor()) saved.push_back(v.tensor().clone());

  p.run(w.inputs);
  p.run(w.inputs);

  std::size_t k = 0;
  for (const RtValue& v : first) {
    if (!v.isTensor()) continue;
    EXPECT_TRUE(bitwiseEqual(v.tensor(), saved[k]))
        << "output " << k << " was clobbered by a later run";
    ++k;
  }
}

}  // namespace
}  // namespace tssa
