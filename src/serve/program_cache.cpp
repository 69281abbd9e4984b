#include "src/serve/program_cache.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "src/support/error.h"

namespace tssa::serve {

std::string ProgramKey::toString() const {
  // Every config knob that splits the key must render here too: the batcher
  // groups open batches and the Router routes shards on this string, so a
  // knob missing from it would let two differently-configured programs share
  // a batch or a shard slot.
  // Tuned knobs render only at non-default values: a default-config key
  // keeps the exact string it had before the knob existed, so adding a knob
  // never re-shuffles untuned traffic across the Router's hash ring.
  std::ostringstream os;
  os << workload << "/" << runtime::pipelineName(kind) << "/" << signature
     << "/" << options.device.name << "/threads=" << options.threads;
  if (options.fusionMaxOps != 0) os << "/fuse=" << options.fusionMaxOps;
  if (options.parallelizeMask != ~std::uint64_t{0})
    os << "/par=" << std::hex << options.parallelizeMask << std::dec;
  return os.str();
}

std::size_t ProgramKeyHash::operator()(const ProgramKey& key) const {
  std::size_t h = std::hash<std::string>{}(key.workload);
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(std::hash<int>{}(static_cast<int>(key.kind)));
  mix(std::hash<std::string>{}(key.signature));
  mix(runtime::hashValue(key.options));
  return h;
}

ProgramCache::ProgramCache(std::size_t capacity, std::int64_t negativeTtlUs)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      negativeTtl_(std::chrono::microseconds(std::max<std::int64_t>(
          negativeTtlUs, 0))) {}

ProgramCache::Lookup ProgramCache::getOrCompile(const ProgramKey& key,
                                                const CompileFn& compile) {
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsedUs = [&t0] {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  std::shared_ptr<CachedProgram> program;
  bool weCompile = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      // A ready entry holding an expired failure ends its generation here:
      // unlink it and fall through to the miss path, which starts exactly
      // one fresh compile. (Lock order is always mutex_ → stateMutex.)
      bool expired = false;
      {
        std::lock_guard<std::mutex> slock(it->second.program->stateMutex);
        expired = it->second.program->ready &&
                  it->second.program->error != nullptr &&
                  t0 - it->second.program->failedAt >= negativeTtl_;
      }
      if (expired) {
        if (it->second.negative) --negativeCount_;
        lru_.erase(it->second.lruIt);
        map_.erase(it);
        it = map_.end();
      }
    }
    if (it != map_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lruIt);  // touch
      program = it->second.program;
    } else {
      ++stats_.misses;
      program = std::make_shared<CachedProgram>();
      lru_.push_front(key);
      map_.emplace(key, Slot{program, lru_.begin()});
      evictExcess(key);
      weCompile = true;
    }
  }

  if (weCompile) {
    std::unique_ptr<runtime::Pipeline> compiled;
    std::exception_ptr error;
    try {
      compiled = compile();
      TSSA_CHECK(compiled != nullptr, "program compile returned null");
    } catch (...) {
      error = std::current_exception();
    }
    const double us = elapsedUs();
    {
      std::lock_guard<std::mutex> lock(program->stateMutex);
      program->pipeline = std::move(compiled);
      program->compileUs = us;
      program->error = error;
      program->failedAt = std::chrono::steady_clock::now();
      program->ready = true;
    }
    program->readyCv.notify_all();
    if (error != nullptr) {
      // Negative-cache the failure for the TTL (the entry stays and later
      // lookups get the error without compiling); with no TTL, forget it so
      // the next lookup retries.
      if (negativeTtl_ == std::chrono::steady_clock::duration::zero())
        forget(key, program.get());
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.compileFailures;
      // Mark the surviving entry negative so it stops counting toward the
      // LRU capacity (it holds no program — see Slot::negative).
      auto failedIt = map_.find(key);
      if (failedIt != map_.end() &&
          failedIt->second.program.get() == program.get() &&
          !failedIt->second.negative) {
        failedIt->second.negative = true;
        ++negativeCount_;
      }
      // The entry just became ready (as a failure) and now counts toward
      // the negative budget; trim whichever class this pushed over.
      evictExcess(key);
      Lookup lookup;
      lookup.program = std::move(program);
      lookup.error = error;
      lookup.waitUs = us;
      return lookup;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.compiles;
      stats_.compileUsTotal += us;
      // Budgets count only ready entries, so the insert-time eviction saw
      // this entry as pending; now that it is ready, trim the excess.
      evictExcess(key);
    }
    Lookup lookup;
    lookup.program = std::move(program);
    lookup.waitUs = us;
    return lookup;
  }

  // Someone else is (or was) compiling: wait for the rendezvous.
  Lookup lookup;
  lookup.hit = true;
  {
    std::unique_lock<std::mutex> lock(program->stateMutex);
    lookup.wasReady = program->ready;
    program->readyCv.wait(lock, [&] { return program->ready; });
    if (program->error != nullptr) {
      lookup.error = program->error;
      lookup.negative = lookup.wasReady;  // served a cached failure
      lookup.wasReady = false;
    }
  }
  if (lookup.negative) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.negativeHits;
  }
  lookup.program = std::move(program);
  lookup.waitUs = elapsedUs();
  return lookup;
}

void ProgramCache::evictExcess(const ProgramKey& justInserted) {
  // Walk from the LRU tail; never evict the entry we are about to compile.
  // Healthy entries and negative (cached-failure) entries are budgeted
  // separately: a storm of failing keys fills the negative budget without
  // ever displacing a healthy compiled program, and vice versa.
  // Only ready entries are budgeted: an in-flight compile may turn out to
  // be a failure, and charging it to the healthy budget up front would let
  // a storm of failing keys displace healthy compiled programs. The map may
  // exceed capacity while compiles are in flight; the insert after they
  // finish trims whichever class went over.
  std::size_t ready = 0;
  for (const auto& [key, slot] : map_) {
    std::lock_guard<std::mutex> slock(slot.program->stateMutex);
    if (slot.program->ready) ++ready;
  }
  auto it = lru_.end();
  std::size_t negatives = negativeCount_;
  std::size_t healthy = ready - negatives;
  while ((healthy > capacity_ || negatives > capacity_) &&
         it != lru_.begin()) {
    --it;
    if (*it == justInserted) continue;
    auto mapIt = map_.find(*it);
    {
      // Never evict an entry whose compile is still in flight: a re-request
      // of the key would miss and start a duplicate compile of the same
      // program, breaking single-flight. The map may exceed capacity until
      // those compiles finish; a later insert evicts them. (Lock order is
      // always mutex_ → stateMutex, never the reverse.)
      std::lock_guard<std::mutex> slock(mapIt->second.program->stateMutex);
      if (!mapIt->second.program->ready) continue;
    }
    const bool negative = mapIt->second.negative;
    if (negative ? negatives <= capacity_ : healthy <= capacity_) continue;
    if (negative) {
      --negativeCount_;
      --negatives;
    } else {
      --healthy;
    }
    mapIt->second.program.reset();  // in-flight users keep their shared_ptr
    map_.erase(mapIt);
    it = lru_.erase(it);
    ++stats_.evictions;
  }
}

void ProgramCache::forget(const ProgramKey& key, const CachedProgram* program) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it == map_.end() || it->second.program.get() != program) return;
  if (it->second.negative) --negativeCount_;
  lru_.erase(it->second.lruIt);
  map_.erase(it);
}

ProgramCache::Stats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.size = map_.size();
  s.negativeSize = negativeCount_;
  return s;
}

std::size_t ProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

}  // namespace tssa::serve
