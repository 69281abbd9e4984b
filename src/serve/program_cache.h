// Compiled-program cache.
//
// Serving traffic re-runs the same few programs, so compilation must be paid
// once per (workload, pipeline kind, symbolic shape pattern, seed, pipeline
// options) — one polymorphic program per key (DESIGN.md §13). The cache
// is an LRU map from ProgramKey to a ready-to-run Pipeline; concurrent
// requests for a key being compiled block on that entry (single-flight: one
// compile per key, everyone else reuses it), and eviction only unlinks an
// entry — in-flight executions keep it alive through their shared_ptr.
//
// Failed compiles are cached *negatively*: the entry stays in the map with
// its exception for `negativeTtlUs`, so traffic for a broken key pays one
// compile attempt per TTL window instead of re-compiling on every request
// (the serving engine degrades those requests to the fallback pipeline —
// DESIGN.md §10). getOrCompile never throws the compiler's exception; it is
// returned in Lookup::error so callers choose between fallback and reject.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/runtime/pipeline.h"

namespace tssa::serve {

/// The unit of specialization: everything that changes the compiled program
/// or the machine it is priced for.
struct ProgramKey {
  std::string workload;
  runtime::PipelineKind kind = runtime::PipelineKind::TensorSsa;
  /// Shape guard: the workload's symbolic pattern signature plus the config
  /// parameter still baked into the graph (the weight seed).
  std::string signature;
  runtime::PipelineOptions options;

  friend bool operator==(const ProgramKey&, const ProgramKey&) = default;
  std::string toString() const;
};

struct ProgramKeyHash {
  std::size_t operator()(const ProgramKey& key) const;
};

/// One cached compiled program. `execMutex` serializes
/// runs of the contained Pipeline (its interpreter and profiler are
/// per-program state); distinct programs execute concurrently.
struct CachedProgram {
  std::unique_ptr<runtime::Pipeline> pipeline;  ///< set once ready
  double compileUs = 0;
  std::mutex execMutex;

  // Single-flight rendezvous: the inserting thread compiles, everyone else
  // waits on `readyCv` until `ready`.
  std::mutex stateMutex;
  std::condition_variable readyCv;
  bool ready = false;
  std::exception_ptr error;
  /// When `error` is set: the instant the compile failed. The entry serves
  /// as a negative cache until failedAt + negativeTtl, then the next lookup
  /// starts a fresh generation (one new compile).
  std::chrono::steady_clock::time_point failedAt;
};

class ProgramCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;        ///< key present (ready or compiling)
    std::uint64_t misses = 0;      ///< key absent → a compile was started
    std::uint64_t evictions = 0;   ///< entries unlinked by LRU pressure
    std::uint64_t compiles = 0;    ///< successful compiles
    std::uint64_t compileFailures = 0;  ///< compiles that threw
    std::uint64_t negativeHits = 0;     ///< lookups served a cached failure
    double compileUsTotal = 0;     ///< wall-clock spent compiling
    std::size_t size = 0;          ///< entries currently cached
    std::size_t negativeSize = 0;  ///< of which negative (failures in TTL)
  };

  struct Lookup {
    std::shared_ptr<CachedProgram> program;  ///< ready: pipeline non-null
    bool hit = false;      ///< key was present (no compile started by us)
    /// True only when the compile had already finished at lookup time: the
    /// request paid no compilation latency. A single-flight waiter that
    /// blocked on a concurrent compile has hit=true but wasReady=false.
    bool wasReady = false;
    /// The compile failed — this lookup's own attempt, the single-flight
    /// compile it waited on, or a cached failure still inside its TTL
    /// (`negative` distinguishes the last case). `program->pipeline` is
    /// null; callers degrade or reject instead of executing.
    std::exception_ptr error;
    bool negative = false;  ///< error served from the negative cache
    double waitUs = 0;  ///< time spent compiling or waiting on the compiler
  };

  using CompileFn = std::function<std::unique_ptr<runtime::Pipeline>()>;

  /// `negativeTtlUs` <= 0 disables negative caching: a failed compile is
  /// forgotten immediately and the next lookup retries.
  explicit ProgramCache(std::size_t capacity, std::int64_t negativeTtlUs = 0);

  /// Returns the ready program for `key`, invoking `compile` at most once
  /// per cached key per generation (single-flight; a generation ends when
  /// the entry is evicted or its negative TTL expires). Never throws the
  /// compiler's exception — it is returned in Lookup::error.
  Lookup getOrCompile(const ProgramKey& key, const CompileFn& compile);

  Stats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    std::shared_ptr<CachedProgram> program;
    std::list<ProgramKey>::iterator lruIt;
    /// True for an entry holding a cached compile failure. Negative entries
    /// carry no compiled program, so they do not count toward the LRU
    /// capacity (a compile-fail storm must not evict healthy programs);
    /// they are bounded by their own capacity-sized budget instead.
    bool negative = false;
  };

  void evictExcess(const ProgramKey& justInserted);  // requires mutex_ held
  void forget(const ProgramKey& key, const CachedProgram* program);

  const std::size_t capacity_;
  const std::chrono::steady_clock::duration negativeTtl_;
  mutable std::mutex mutex_;
  std::list<ProgramKey> lru_;  ///< front = most recently used
  std::unordered_map<ProgramKey, Slot, ProgramKeyHash> map_;
  std::size_t negativeCount_ = 0;  ///< slots with negative == true
  Stats stats_;
};

}  // namespace tssa::serve
