// Paged per-session KV-cache allocator for autoregressive decode serving.
//
// A decode session appends one (K row, V row) pair per step and reads its
// whole history back every step; sessions are born and die continuously.
// A per-session contiguous buffer would fragment (every session has a
// different, growing length) and make bulk free expensive. Instead the cache
// is paged, vLLM-style: storage is carved into fixed-size pages of
// `pageTokens` token slots, each session owns a *page table* (an ordered list
// of page ids), a step appends into the session's last partial page or grabs
// a fresh page from the free list, and ending a session returns every page
// with one splice — O(pages), no per-token bookkeeping.
//
// Backing slabs are plain heap Storage: a slab is zeroed when allocated and
// freed when clear() drops it or the cache dies. Every touch of the cache
// happens under its own mutex, because a KvCache is shared between the
// decode scheduler thread and whoever scrapes stats.
//
// Admission is reservation-based: a session reserves its worst-case page
// count (ceil(totalTokens / pageTokens)) *before* it is admitted, so a
// mid-generation append can never fail — KV exhaustion is a typed admission
// outcome (RejectReason::KvExhausted in src/serve), never a mid-flight
// crash. `maxPages` bounds the whole cache; reservation denials are counted
// as eviction pressure (`exhaustedReservations`).
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/tensor/storage.h"

namespace tssa {

struct KvCacheOptions {
  /// Token slots per page. Small pages waste less on short sessions; large
  /// pages mean fewer page-table entries. 16 tokens ≈ 4KiB at tokenFloats=64.
  std::int64_t pageTokens = 16;
  /// Floats per token slot: one K row plus one V row (2 × head dim).
  std::int64_t tokenFloats = 64;
  /// Hard capacity in pages across all sessions; 0 = unbounded. When a
  /// session's reservation would push past it, tryReserve fails and the
  /// caller sheds the session (kv_exhausted).
  std::int64_t maxPages = 0;
  /// Pages per backing slab (one allocation covers this many pages).
  std::int64_t slabPages = 64;
};

class KvCache {
 public:
  struct Stats {
    std::int64_t pagesInUse = 0;     ///< pages allocated to session tables
    std::int64_t pagesReserved = 0;  ///< worst-case pages promised to sessions
    std::int64_t pagesHighWater = 0; ///< max pagesInUse ever observed
    std::int64_t pageCapacity = 0;   ///< maxPages (0 = unbounded)
    std::int64_t pageAllocs = 0;     ///< pages handed to sessions (lifetime)
    std::int64_t pageFrees = 0;      ///< pages returned by ended sessions
    /// Eviction pressure: reservations denied because maxPages would be
    /// exceeded — each one is a session shed with kv_exhausted.
    std::int64_t exhaustedReservations = 0;
    std::int64_t appendedTokens = 0;
    std::int64_t activeSessions = 0;
    std::int64_t slabBytes = 0;      ///< backing storage held (all slabs)
  };

  explicit KvCache(KvCacheOptions options = {});

  /// Worst-case page count for a session of `totalTokens` appends.
  std::int64_t pagesNeededFor(std::int64_t totalTokens) const;

  /// Opens `session` by reserving its worst-case page count. Returns false
  /// (and counts an exhausted reservation) when the reservation would exceed
  /// maxPages — the session must be shed, nothing is allocated. Throws if
  /// the session already exists or totalTokens < 1.
  bool tryReserve(const std::string& session, std::int64_t totalTokens);

  /// Appends one token (K row + V row, each tokenFloats/2 floats) to the
  /// session, allocating a page on a page boundary. Never fails for a
  /// session within its reservation; overrunning the reservation throws.
  void append(const std::string& session, std::span<const float> kRow,
              std::span<const float> vRow);

  /// Tokens appended to `session` so far.
  std::int64_t tokens(const std::string& session) const;

  /// Copies the session's history into caller-owned contiguous buffers of
  /// `bucket` rows each (kOut/vOut hold bucket × tokenFloats/2 floats),
  /// zero-padding rows past the session's length — exactly the layout the
  /// bucketed decode_step workload consumes. Throws if bucket < tokens.
  void gather(const std::string& session, std::int64_t bucket, float* kOut,
              float* vOut) const;

  /// Ends the session: its pages go back to the free list in one splice and
  /// its reservation is released. Unknown sessions are ignored (a shed
  /// session may never have reserved).
  void release(const std::string& session);

  /// Releases every session and frees all slabs.
  void clear();

  Stats stats() const;
  const KvCacheOptions& options() const { return options_; }

 private:
  struct SessionState {
    std::vector<std::int32_t> pageTable;
    std::int64_t tokens = 0;
    std::int64_t reservedPages = 0;
  };

  /// Pointer to the first float of page `id` (mutex_ held).
  float* pageData(std::int32_t id);
  const float* pageData(std::int32_t id) const;
  /// Grabs a page from the free list, growing a new slab if needed
  /// (mutex_ held; capacity was checked at reservation time).
  std::int32_t allocPage();

  const KvCacheOptions options_;
  mutable std::mutex mutex_;
  std::vector<StoragePtr> slabs_;
  std::vector<std::int32_t> freePages_;
  std::int64_t pagesAllocated_ = 0;  ///< pages carved out of slabs so far
  std::unordered_map<std::string, SessionState> sessions_;
  Stats stats_;
};

}  // namespace tssa
