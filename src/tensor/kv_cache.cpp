#include "src/tensor/kv_cache.h"

#include <algorithm>
#include <cstring>

#include "src/support/error.h"

namespace tssa {

KvCache::KvCache(KvCacheOptions options) : options_(options) {
  TSSA_CHECK(options_.pageTokens > 0, "pageTokens must be positive");
  TSSA_CHECK(options_.tokenFloats > 0 && options_.tokenFloats % 2 == 0,
             "tokenFloats must be a positive even number (K row + V row)");
  TSSA_CHECK(options_.slabPages > 0, "slabPages must be positive");
  TSSA_CHECK(options_.maxPages >= 0, "maxPages must be >= 0");
}

std::int64_t KvCache::pagesNeededFor(std::int64_t totalTokens) const {
  return (totalTokens + options_.pageTokens - 1) / options_.pageTokens;
}

bool KvCache::tryReserve(const std::string& session,
                         std::int64_t totalTokens) {
  TSSA_CHECK(totalTokens > 0, "session '" << session
                                          << "' must reserve >= 1 token");
  const std::int64_t pages = pagesNeededFor(totalTokens);
  std::lock_guard<std::mutex> lock(mutex_);
  TSSA_CHECK(!sessions_.contains(session),
             "session '" << session << "' already holds a KV reservation");
  if (options_.maxPages > 0 &&
      stats_.pagesReserved + pages > options_.maxPages) {
    ++stats_.exhaustedReservations;
    return false;
  }
  SessionState state;
  state.reservedPages = pages;
  sessions_.emplace(session, std::move(state));
  stats_.pagesReserved += pages;
  stats_.activeSessions = static_cast<std::int64_t>(sessions_.size());
  return true;
}

float* KvCache::pageData(std::int32_t id) {
  const std::int64_t pageFloats = options_.pageTokens * options_.tokenFloats;
  const std::int64_t slab = id / options_.slabPages;
  const std::int64_t inSlab = id % options_.slabPages;
  return slabs_[static_cast<std::size_t>(slab)]->as<float>() +
         inSlab * pageFloats;
}

const float* KvCache::pageData(std::int32_t id) const {
  return const_cast<KvCache*>(this)->pageData(id);
}

std::int32_t KvCache::allocPage() {
  if (freePages_.empty()) {
    const std::int64_t pageFloats = options_.pageTokens * options_.tokenFloats;
    slabs_.push_back(std::make_shared<Storage>(options_.slabPages * pageFloats,
                                               DType::Float32));
    stats_.slabBytes += options_.slabPages * pageFloats *
                        static_cast<std::int64_t>(sizeof(float));
    // Newest pages go to the back of the free list so low page ids (and
    // their slabs) are reused first.
    for (std::int64_t i = options_.slabPages; i > 0; --i)
      freePages_.push_back(
          static_cast<std::int32_t>(pagesAllocated_ + i - 1));
    pagesAllocated_ += options_.slabPages;
  }
  const std::int32_t id = freePages_.back();
  freePages_.pop_back();
  ++stats_.pagesInUse;
  ++stats_.pageAllocs;
  stats_.pagesHighWater = std::max(stats_.pagesHighWater, stats_.pagesInUse);
  return id;
}

void KvCache::append(const std::string& session, std::span<const float> kRow,
                     std::span<const float> vRow) {
  const std::int64_t rowFloats = options_.tokenFloats / 2;
  TSSA_CHECK(static_cast<std::int64_t>(kRow.size()) == rowFloats &&
                 static_cast<std::int64_t>(vRow.size()) == rowFloats,
             "KV rows must each hold tokenFloats/2 = " << rowFloats
                                                       << " floats");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session);
  TSSA_CHECK(it != sessions_.end(),
             "append to unknown KV session '" << session << "'");
  SessionState& state = it->second;
  const std::int64_t slot = state.tokens % options_.pageTokens;
  if (slot == 0) {
    TSSA_CHECK(static_cast<std::int64_t>(state.pageTable.size()) <
                   state.reservedPages,
               "session '" << session << "' overran its KV reservation of "
                           << state.reservedPages << " pages");
    state.pageTable.push_back(allocPage());
  }
  float* page = pageData(state.pageTable.back());
  float* tokenBase = page + slot * options_.tokenFloats;
  std::memcpy(tokenBase, kRow.data(), sizeof(float) * kRow.size());
  std::memcpy(tokenBase + rowFloats, vRow.data(), sizeof(float) * vRow.size());
  ++state.tokens;
  ++stats_.appendedTokens;
}

std::int64_t KvCache::tokens(const std::string& session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session);
  TSSA_CHECK(it != sessions_.end(),
             "unknown KV session '" << session << "'");
  return it->second.tokens;
}

void KvCache::gather(const std::string& session, std::int64_t bucket,
                     float* kOut, float* vOut) const {
  const std::int64_t rowFloats = options_.tokenFloats / 2;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session);
  TSSA_CHECK(it != sessions_.end(),
             "gather from unknown KV session '" << session << "'");
  const SessionState& state = it->second;
  TSSA_CHECK(bucket >= state.tokens,
             "context bucket " << bucket << " cannot hold "
                               << state.tokens << " cached tokens");
  std::memset(kOut, 0, sizeof(float) * static_cast<std::size_t>(
                                           bucket * rowFloats));
  std::memset(vOut, 0, sizeof(float) * static_cast<std::size_t>(
                                           bucket * rowFloats));
  for (std::int64_t t = 0; t < state.tokens; ++t) {
    const std::int32_t page =
        state.pageTable[static_cast<std::size_t>(t / options_.pageTokens)];
    const float* tokenBase = pageData(page) +
                             (t % options_.pageTokens) * options_.tokenFloats;
    std::memcpy(kOut + t * rowFloats, tokenBase, sizeof(float) * rowFloats);
    std::memcpy(vOut + t * rowFloats, tokenBase + rowFloats,
                sizeof(float) * rowFloats);
  }
}

void KvCache::release(const std::string& session) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  SessionState& state = it->second;
  // Bulk free: the whole page table goes back in one splice.
  const std::int64_t freed =
      static_cast<std::int64_t>(state.pageTable.size());
  freePages_.insert(freePages_.end(), state.pageTable.begin(),
                    state.pageTable.end());
  stats_.pagesInUse -= freed;
  stats_.pageFrees += freed;
  stats_.pagesReserved -= state.reservedPages;
  sessions_.erase(it);
  stats_.activeSessions = static_cast<std::int64_t>(sessions_.size());
}

void KvCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.pageFrees += stats_.pagesInUse;
  stats_.pagesInUse = 0;
  stats_.pagesReserved = 0;
  stats_.activeSessions = 0;
  stats_.slabBytes = 0;
  sessions_.clear();
  freePages_.clear();
  pagesAllocated_ = 0;
  slabs_.clear();
}

KvCache::Stats KvCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.pageCapacity = options_.maxPages;
  return s;
}

}  // namespace tssa
