// Runtime compilation and caching of generated texpr kernels.
//
// The generator (codegen.h) produces a C++ translation unit; this layer
// compiles it with the system toolchain into a shared object, dlopens it,
// and caches the result process-wide so structurally identical fused
// regions — across pipelines, serve shards, and requests — share one
// compiled kernel. Compilation is single-flight per cache key; failures are
// negative-cached so a broken toolchain costs one compile attempt per key,
// not one per launch. Everything here is fallible by design: a nullptr
// kernel means "use the interpreter" (DESIGN.md §11).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/texpr/codegen.h"

namespace tssa::obs {
class MetricsRegistry;
}

namespace tssa::texpr::jit {

/// Mirrors the generated code's `TssaJitBuffer`. `data` must already point
/// at the tensor's first element (storage offset applied).
struct JitBuffer {
  void* data = nullptr;
  const std::int64_t* sizes = nullptr;
  const std::int64_t* strides = nullptr;
};

/// The generated entry point: dispatches output `outIndex` over the element
/// range [begin, end). Bit 0 of `flags` selects the contiguous linear fast
/// loop (caller asserts all inputs are contiguous and shape-equal to the
/// output); 0 selects the generic coordinate walk.
using EntryFn = void (*)(const JitBuffer* ins, JitBuffer* out,
                         const std::int64_t* const* shapes,
                         const double* scalars, std::int32_t outIndex,
                         std::int64_t begin, std::int64_t end,
                         std::int32_t flags);

/// Process-wide kill switch: false when the environment sets
/// TSSA_TEXPR_JIT=0 (read once; tests use PipelineOptions::texprJit /
/// the Interpreter flag instead so they can flip per instance).
bool jitEnabled();

/// A loaded shared object. Destruction dlcloses, so holders keep the
/// shared_ptr alive for as long as they might call entry() — the cache's
/// LRU eviction only drops its own reference.
class CompiledKernel {
 public:
  CompiledKernel(void* handle, EntryFn entry)
      : handle_(handle), entry_(entry) {}
  ~CompiledKernel();
  CompiledKernel(const CompiledKernel&) = delete;
  CompiledKernel& operator=(const CompiledKernel&) = delete;

  EntryFn entry() const { return entry_; }

 private:
  void* handle_ = nullptr;
  EntryFn entry_ = nullptr;
};

/// Compiles `source` to a shared object in a fresh mode-0700 temp directory,
/// loads it, and returns the kernel (nullptr on any failure). The .so is
/// unlinked and the directory removed as soon as the object is loaded, so no
/// on-disk artifact outlives the call. Compiler: $TSSA_JIT_CC if set (read
/// per call — tests point it at /bin/false), else the build-time toolchain.
std::shared_ptr<CompiledKernel> compileSource(const std::string& source);

/// Process-global cache of compiled kernels, keyed by
/// Generator::cacheKey (expression structure × dtypes × ranks ×
/// contiguity). Thread-safe; concurrent misses on one key rendezvous on a
/// single compile (single-flight). Failed compiles are cached as negative
/// entries so the toolchain is retried at most once per key.
class KernelCache {
 public:
  static KernelCache& instance();

  /// The cached kernel for `key`, compiling `makeSource()` on a miss.
  /// Returns nullptr when compilation failed (now or previously cached).
  /// Counts a miss on first compile and a hit on every subsequent lookup of
  /// a positive entry; negative lookups count neither (the caller records a
  /// toolchain decline).
  std::shared_ptr<CompiledKernel> getOrCompile(
      const std::string& key, const std::function<std::string()>& makeSource);

  /// Callers that memoize lookup results (texpr::Kernel keeps a per-body
  /// memo to skip rebuilding the key string) report reuse through these so
  /// the counters still reflect every launch.
  void recordHit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void recordDecline(codegen::Decline reason);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t declines = 0;
    std::uint64_t compileFails = 0;
    std::size_t size = 0;  ///< resident compiled kernels (positive entries)
  };
  Stats stats() const;

  /// Publishes `tssa_texpr_jit_{hits,misses,declines,compile_fail}_total`.
  void exportTo(obs::MetricsRegistry& registry) const;

  /// Tests only: drops all entries (in-flight compiles finish against the
  /// old generation and are discarded) and zeroes counters.
  void clearForTesting();
  /// Tests only: shrinks the LRU capacity to force eviction.
  void setCapacityForTesting(std::size_t capacity);

 private:
  KernelCache() = default;

  struct Slot {
    std::shared_ptr<CompiledKernel> kernel;  ///< nullptr = negative entry
    bool ready = false;     ///< compile finished (kernel may be null)
    bool compiling = false; ///< a thread owns the single-flight compile
    std::uint64_t generation = 0;
    std::list<std::string>::iterator lruIt;
    bool inLru = false;
  };

  void touchLocked(const std::string& key, Slot& slot);
  void evictExcessLocked();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Slot> map_;
  std::list<std::string> lru_;  ///< front = most recent
  std::size_t capacity_ = 256;
  std::uint64_t generation_ = 0;  ///< bumped by clearForTesting
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> declines_{0};
  std::atomic<std::uint64_t> compileFails_{0};
};

}  // namespace tssa::texpr::jit
