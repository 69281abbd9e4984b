// Sharded serving tier: a Router fronting N in-process Engine shards.
//
// One Engine on one pool is a single failure and capacity domain; the router
// turns the same machine (or, eventually, a fleet) into N isolated shards,
// each with its own ThreadPool and ProgramCache. Placement is
// *cache-affine*: a request is routed by consistent hash of the program key
// Engine::keyFor resolves it to, so every request that would share a
// compiled program lands on the same shard and the tier-wide compile count
// stays exactly what one engine would pay — shard count scales throughput,
// not compilation (bench/shard_scaling.cpp gates this in CI). Decode
// sessions route the same way through the one polymorphic decode_step key.
//
// Overload and restarts are first-class (DESIGN.md §14):
//   * shed-and-retry — when the home shard's bounded admission sheds with
//     QueueFull, the router retries the next *distinct* shard in ring order,
//     up to maxRetryHops; the retried shard compiles its own copy of the
//     program, trading a compile for availability. Rejections are detected
//     synchronously: the engine fulfills a shed request's future before
//     submit returns, so a ready future at submit-return is inspected and
//     everything still pending belongs to the shard that admitted it.
//   * rolling restarts — drainShard() flips a shard Serving → Draining
//     (routing skips it without consuming retry budget), waits out its
//     in-flight requests via Engine::shutdown, and parks it Drained;
//     restartShard() replaces the engine with a fresh one (empty cache, warm
//     pool) and resumes routing to it.
//
// Observability: every shard exports its tssa_serve_* / tssa_decode_* series
// under a `shard="i"` label into one shared MetricsRegistry (the labels are
// what keeps N engines from overwriting each other's canonical names), the
// router adds an unlabeled merged view on top, and every trace span an
// engine emits carries the shard id — one Chrome trace shows the whole tier.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/serve/decode.h"
#include "src/serve/engine.h"

namespace tssa::serve {

/// Consistent-hash ring with virtual nodes. Deterministic by construction:
/// placement depends only on the key bytes and the member shard ids (FNV-1a
/// + splitmix64, never std::hash), so the same key maps to the same shard
/// across runs, builds, and platforms — routing decisions are reproducible
/// and benchable. Virtual nodes (64 ring points per shard) keep
/// the load split near-uniform; adding or removing one shard moves only the
/// keys whose arc changed hands, ~K/N of them (tests/router_test.cpp pins
/// both properties).
///
/// Not thread-safe for mutation; the Router only mutates membership during
/// construction. Reads are const and safe to share.
class HashRing {
 public:
  explicit HashRing(int shards = 0);

  void addShard(int shard);
  void removeShard(int shard);
  int shardCount() const { return static_cast<int>(shardIds_.size()); }
  const std::vector<int>& shardIds() const { return shardIds_; }

  /// The key's home shard: the first ring point at or clockwise of
  /// hashKey(key). Requires a non-empty ring.
  int shardFor(std::string_view key) const;

  /// The first `count` *distinct* shards in ring order starting at the
  /// key's home — the shed-and-retry preference list. Deterministic for a
  /// given membership; always starts with shardFor(key).
  std::vector<int> preferenceFor(std::string_view key, int count) const;

  /// Stable 64-bit key hash (FNV-1a over the bytes, splitmix64-finalized).
  static std::uint64_t hashKey(std::string_view key);

 private:
  std::vector<int> shardIds_;  ///< sorted member ids
  /// Ring points (hash, shard), sorted by hash.
  std::vector<std::pair<std::uint64_t, int>> points_;

  void rebuild();
};

struct RouterOptions {
  int shards = 2;
  /// Shed-and-retry budget: how many *additional* ring positions a request
  /// may try after its home shard sheds it with QueueFull (or is found
  /// shutting down mid-flight). 0 disables retries — required when the
  /// tier-wide compile count must stay deterministic, because a retried
  /// request compiles its program on a non-home shard.
  int maxRetryHops = 1;
  /// Template for every shard's engine. executePool and shardId are
  /// overwritten per shard; everything else (pipeline, cache capacity,
  /// admission bounds, batching) applies to each shard individually.
  EngineOptions engine{};
  /// When true each shard also hosts a DecodeScheduler (built from
  /// `decode`, with executePool/shardId overwritten like the engine's).
  bool enableDecode = false;
  DecodeOptions decode{};
};

/// The shard tier front door. Thread-safe: submit / submitDecode / metrics
/// may be called from any thread; drainShard / restartShard are control-
/// plane calls that may run concurrently with traffic.
class Router {
 public:
  enum class ShardState : int { Serving = 0, Draining, Drained };

  struct Stats {
    std::uint64_t routed = 0;        ///< one-shot requests routed
    std::uint64_t decodeRouted = 0;  ///< decode sessions routed
    std::uint64_t retryHops = 0;     ///< shed-and-retry hops taken
    std::uint64_t drainSkips = 0;    ///< candidates skipped for not Serving
    std::uint64_t exhausted = 0;     ///< requests that ran out of shards/hops
    std::uint64_t drains = 0;        ///< drainShard transitions completed
    std::uint64_t restarts = 0;      ///< restartShard transitions completed
  };

  explicit Router(RouterOptions options);
  /// Shuts every shard down (outstanding futures are fulfilled first).
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Routes to the home shard of the request's program key; sheds-and-
  /// retries per RouterOptions::maxRetryHops. Futures behave exactly like
  /// Engine::submit's (RejectedError on refusal, tssa::Error on execution
  /// failure); BadRequest still throws synchronously.
  std::future<Response> submit(Request request);

  /// Routes a decode session to the decode_step key's home shard (all
  /// sessions share the one polymorphic step program, so they share a
  /// home). Requires RouterOptions::enableDecode.
  std::future<DecodeResult> submitDecode(DecodeRequest request);

  /// The shard submit(request) would try first.
  int homeShard(const Request& request) const;
  /// The home shard of every decode session.
  int decodeHomeShard() const;

  /// Serving → Draining (routing skips it) → engine drained → Drained.
  /// Blocks until the shard's in-flight requests have all been delivered.
  /// No-op unless the shard is currently Serving.
  void drainShard(int shard);
  /// Drained → Serving with a fresh Engine (and DecodeScheduler, when
  /// enabled): empty program cache, reset metrics, same warm pool. No-op
  /// unless the shard is currently Drained.
  void restartShard(int shard);
  ShardState shardState(int shard) const;

  /// Blocks until every in-flight request on every shard has completed.
  void drain();
  /// Drains and stops every shard; subsequent submits are rejected.
  void shutdown();

  int shards() const { return static_cast<int>(shards_.size()); }
  const HashRing& ring() const { return ring_; }
  Stats stats() const;

  /// Per-shard engine snapshots, indexed by shard id. A Drained shard
  /// reports the snapshot of its (stopped) engine.
  std::vector<MetricsSnapshot> shardMetrics() const;
  std::vector<DecodeMetricsSnapshot> shardDecodeMetrics() const;
  /// Tier-wide aggregate: scalar counters summed across shards, latency
  /// percentiles recomputed over the union of every shard's samples.
  /// throughputRps is the sum of per-shard rates (an approximation — the
  /// bench derives tier throughput from wall clock instead). Restarted
  /// shards report their fresh engine only.
  MetricsSnapshot mergedMetrics() const;

  /// Exports the whole tier into `registry`: every shard's engine (and
  /// decode scheduler) under `shard="i"` labels, plus the unlabeled merged
  /// serve aggregate.
  void exportMetrics(obs::MetricsRegistry& registry) const;

  /// Direct shard access for tests and benches (engine lifetime is only
  /// guaranteed while the shard is not concurrently restarted).
  Engine& engine(int shard);
  DecodeScheduler* decode(int shard);

 private:
  struct Shard {
    /// Declared before the engine so batches still executing during engine
    /// teardown keep a live pool.
    std::unique_ptr<runtime::ThreadPool> pool;
    std::shared_ptr<Engine> engine;
    std::unique_ptr<DecodeScheduler> decode;
    ShardState state = ShardState::Serving;
  };

  /// The ring key for a one-shot request (its program key, rendered).
  std::string routingKey(const Request& request) const;

  /// Snapshot a shard's engine (and state) under the lock.
  std::shared_ptr<Engine> engineIfServing(int shard);
  std::shared_ptr<Engine> engineOf(int shard) const;

  EngineOptions engineOptionsFor(int shard, runtime::ThreadPool* pool) const;
  DecodeOptions decodeOptionsFor(int shard, runtime::ThreadPool* pool) const;

  const RouterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Guards every shard's engine/decode pointers and state transitions.
  mutable std::mutex mutex_;
  std::string decodeKey_;  ///< ring key shared by every decode session

  std::atomic<std::uint64_t> routed_{0};
  std::atomic<std::uint64_t> decodeRouted_{0};
  std::atomic<std::uint64_t> retryHops_{0};
  std::atomic<std::uint64_t> drainSkips_{0};
  std::atomic<std::uint64_t> exhausted_{0};
  std::atomic<std::uint64_t> drains_{0};
  std::atomic<std::uint64_t> restarts_{0};
};

}  // namespace tssa::serve
