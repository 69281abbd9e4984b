#include "src/serve/router.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/runtime/thread_pool.h"
#include "src/support/error.h"

namespace tssa::serve {

// ---- HashRing --------------------------------------------------------------

namespace {

/// Ring points per shard: enough that each shard's share of the keys stays
/// near 1/N.
constexpr std::size_t kVnodesPerShard = 64;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string shardLabel(int shard) {
  return "shard=\"" + std::to_string(shard) + "\"";
}

}  // namespace

std::uint64_t HashRing::hashKey(std::string_view key) {
  // FNV-1a 64, splitmix64-finalized. Deliberately NOT std::hash: placement
  // must be identical across runs, standard libraries, and platforms.
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return splitmix64(h);
}

HashRing::HashRing(int shards) {
  TSSA_CHECK(shards >= 0, "shard count must be >= 0");
  for (int s = 0; s < shards; ++s) shardIds_.push_back(s);
  rebuild();
}

void HashRing::addShard(int shard) {
  if (std::find(shardIds_.begin(), shardIds_.end(), shard) != shardIds_.end())
    return;
  shardIds_.push_back(shard);
  std::sort(shardIds_.begin(), shardIds_.end());
  rebuild();
}

void HashRing::removeShard(int shard) {
  auto it = std::find(shardIds_.begin(), shardIds_.end(), shard);
  if (it == shardIds_.end()) return;
  shardIds_.erase(it);
  rebuild();
}

void HashRing::rebuild() {
  points_.clear();
  points_.reserve(shardIds_.size() * kVnodesPerShard);
  for (int shard : shardIds_)
    for (std::size_t v = 0; v < kVnodesPerShard; ++v)
      points_.emplace_back(hashKey("shard-" + std::to_string(shard) + "#" +
                                   std::to_string(v)),
                           shard);
  // Sort by hash; break (astronomically unlikely) hash ties by shard id so
  // the ring order itself is fully deterministic.
  std::sort(points_.begin(), points_.end());
}

int HashRing::shardFor(std::string_view key) const {
  TSSA_CHECK(!points_.empty(), "hash ring is empty");
  const std::uint64_t h = hashKey(key);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const std::pair<std::uint64_t, int>& p, std::uint64_t hash) {
        return p.first < hash;
      });
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->second;
}

std::vector<int> HashRing::preferenceFor(std::string_view key,
                                         int count) const {
  std::vector<int> order;
  if (points_.empty() || count <= 0) return order;
  const std::uint64_t h = hashKey(key);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const std::pair<std::uint64_t, int>& p, std::uint64_t hash) {
        return p.first < hash;
      });
  const std::size_t start =
      it == points_.end() ? 0 : static_cast<std::size_t>(it - points_.begin());
  const std::size_t want =
      std::min<std::size_t>(static_cast<std::size_t>(count),
                            shardIds_.size());
  for (std::size_t i = 0; i < points_.size() && order.size() < want; ++i) {
    const int shard = points_[(start + i) % points_.size()].second;
    if (std::find(order.begin(), order.end(), shard) == order.end())
      order.push_back(shard);
  }
  return order;
}

// ---- Router ----------------------------------------------------------------

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.shards) {
  TSSA_CHECK(options_.shards >= 1, "router needs >= 1 shard");
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->pool = std::make_unique<runtime::ThreadPool>();
    shard->engine =
        std::make_shared<Engine>(engineOptionsFor(s, shard->pool.get()));
    if (options_.enableDecode)
      shard->decode = std::make_unique<DecodeScheduler>(
          decodeOptionsFor(s, shard->pool.get()));
    shards_.push_back(std::move(shard));
  }
  // Every decode session resolves to the one polymorphic decode_step key,
  // so they all share a home shard; the ring key only has to be that key —
  // stable across runs — not the inner engine's exact rendering.
  Request decodeProbe;
  decodeProbe.workload = "decode_step";
  decodeProbe.config.seed = options_.decode.seed;
  EngineOptions decodeEngine;
  decodeEngine.kind = options_.decode.kind;
  decodeEngine.pipeline = options_.decode.pipeline;
  decodeKey_ = Engine::keyFor(decodeEngine, decodeProbe).toString();
}

Router::~Router() { shutdown(); }

EngineOptions Router::engineOptionsFor(int shard,
                                       runtime::ThreadPool* pool) const {
  EngineOptions eo = options_.engine;
  eo.executePool = pool;
  eo.shardId = shard;
  return eo;
}

DecodeOptions Router::decodeOptionsFor(int shard,
                                       runtime::ThreadPool* pool) const {
  DecodeOptions d = options_.decode;
  d.executePool = pool;
  d.shardId = shard;
  return d;
}

std::string Router::routingKey(const Request& request) const {
  try {
    return Engine::keyFor(options_.engine, request).toString();
  } catch (const Error&) {
    // An unknown workload has no program key: route it by its name, so its
    // home shard's engine refuses it as a BadRequest and counts the refusal.
    return request.workload;
  }
}

int Router::homeShard(const Request& request) const {
  return ring_.shardFor(routingKey(request));
}

int Router::decodeHomeShard() const { return ring_.shardFor(decodeKey_); }

std::shared_ptr<Engine> Router::engineIfServing(int shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  return s.state == ShardState::Serving ? s.engine : nullptr;
}

std::shared_ptr<Engine> Router::engineOf(int shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shards_[static_cast<std::size_t>(shard)]->engine;
}

std::future<Response> Router::submit(Request request) {
  ++routed_;
  const std::vector<int> order =
      ring_.preferenceFor(routingKey(request), shards());
  int hopsLeft = std::max(0, options_.maxRetryHops);
  std::exception_ptr lastRejection;
  bool attempted = false;
  for (int candidate : order) {
    // Skipping a non-serving (draining/drained) shard costs no retry hop —
    // the drain is the router's own doing, not overload. A hop is consumed
    // only when a second serving shard is actually tried after a shed.
    std::shared_ptr<Engine> engine = engineIfServing(candidate);
    if (engine == nullptr) {
      ++drainSkips_;
      continue;
    }
    if (attempted) {
      if (hopsLeft == 0) break;
      --hopsLeft;
      ++retryHops_;
    }
    attempted = true;
    std::future<Response> future = engine->submit(request);
    // Shed detection is synchronous by contract: the engine fulfills a
    // refused request's future *before* submit returns, so a future that is
    // not ready here has been admitted — it belongs to this shard now.
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
      return future;
    try {
      // Ready this early is a refusal in practice, but a value is handled
      // all the same (re-wrapped, since get() consumed it).
      Response response = future.get();
      std::promise<Response> done;
      done.set_value(std::move(response));
      return done.get_future();
    } catch (const RejectedError& rejected) {
      lastRejection = std::current_exception();
      if (rejected.reason() != RejectReason::QueueFull &&
          rejected.reason() != RejectReason::ShuttingDown)
        break;  // deadline etc.: shard-independent, retrying cannot help
    } catch (...) {
      lastRejection = std::current_exception();
      break;
    }
  }
  ++exhausted_;
  std::promise<Response> done;
  done.set_exception(
      lastRejection != nullptr
          ? lastRejection
          : std::make_exception_ptr(RejectedError(
                RejectReason::ShuttingDown, "no serving shard available")));
  return done.get_future();
}

std::future<DecodeResult> Router::submitDecode(DecodeRequest request) {
  TSSA_CHECK(options_.enableDecode,
             "router was built without enableDecode");
  ++decodeRouted_;
  const std::vector<int> order = ring_.preferenceFor(decodeKey_, shards());
  int hopsLeft = std::max(0, options_.maxRetryHops);
  std::exception_ptr lastRejection;
  bool attempted = false;
  for (int candidate : order) {
    DecodeScheduler* scheduler = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      Shard& s = *shards_[static_cast<std::size_t>(candidate)];
      if (s.state == ShardState::Serving) scheduler = s.decode.get();
    }
    if (scheduler == nullptr) {
      ++drainSkips_;
      continue;
    }
    if (attempted) {
      if (hopsLeft == 0) break;
      --hopsLeft;
      ++retryHops_;
    }
    attempted = true;
    std::future<DecodeResult> future = scheduler->submit(request);
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
      return future;
    try {
      DecodeResult result = future.get();
      std::promise<DecodeResult> done;
      done.set_value(std::move(result));
      return done.get_future();
    } catch (const RejectedError& rejected) {
      lastRejection = std::current_exception();
      if (rejected.reason() != RejectReason::QueueFull &&
          rejected.reason() != RejectReason::ShuttingDown)
        break;
    } catch (...) {
      lastRejection = std::current_exception();
      break;
    }
  }
  ++exhausted_;
  std::promise<DecodeResult> done;
  done.set_exception(
      lastRejection != nullptr
          ? lastRejection
          : std::make_exception_ptr(RejectedError(
                RejectReason::ShuttingDown, "no serving shard available")));
  return done.get_future();
}

void Router::drainShard(int shard) {
  std::shared_ptr<Engine> engine;
  DecodeScheduler* decode = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Shard& s = *shards_[static_cast<std::size_t>(shard)];
    if (s.state != ShardState::Serving) return;
    s.state = ShardState::Draining;  // routing now skips this shard
    engine = s.engine;
    decode = s.decode.get();
  }
  // Outside the lock: shutdown blocks until in-flight requests deliver, and
  // traffic to the *other* shards must keep flowing meanwhile.
  if (decode != nullptr) decode->shutdown();
  engine->shutdown();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shards_[static_cast<std::size_t>(shard)]->state = ShardState::Drained;
  }
  ++drains_;
}

void Router::restartShard(int shard) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shards_[static_cast<std::size_t>(shard)]->state !=
        ShardState::Drained)
      return;
  }
  // Build the replacements outside the lock (engine construction spawns the
  // batcher thread), then swap them in. The old engine is destroyed after
  // the swap; it was already drained, so teardown is instant. The pool
  // pointer is stable for the router's lifetime (never reassigned).
  runtime::ThreadPool* pool =
      shards_[static_cast<std::size_t>(shard)]->pool.get();
  auto engine = std::make_shared<Engine>(engineOptionsFor(shard, pool));
  std::unique_ptr<DecodeScheduler> decode;
  if (options_.enableDecode)
    decode = std::make_unique<DecodeScheduler>(decodeOptionsFor(shard, pool));
  std::shared_ptr<Engine> retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Shard& s = *shards_[static_cast<std::size_t>(shard)];
    retired = std::exchange(s.engine, std::move(engine));
    s.decode = std::move(decode);
    s.state = ShardState::Serving;
  }
  ++restarts_;
}

Router::ShardState Router::shardState(int shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shards_[static_cast<std::size_t>(shard)]->state;
}

void Router::drain() {
  for (int s = 0; s < shards(); ++s) {
    DecodeScheduler* decode = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      decode = shards_[static_cast<std::size_t>(s)]->decode.get();
    }
    if (decode != nullptr) decode->drain();
    engineOf(s)->drain();
  }
}

void Router::shutdown() {
  for (int s = 0; s < shards(); ++s) {
    DecodeScheduler* decode = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      decode = shards_[static_cast<std::size_t>(s)]->decode.get();
    }
    if (decode != nullptr) decode->shutdown();
    engineOf(s)->shutdown();
  }
}

Router::Stats Router::stats() const {
  Stats s;
  s.routed = routed_.load();
  s.decodeRouted = decodeRouted_.load();
  s.retryHops = retryHops_.load();
  s.drainSkips = drainSkips_.load();
  s.exhausted = exhausted_.load();
  s.drains = drains_.load();
  s.restarts = restarts_.load();
  return s;
}

std::vector<MetricsSnapshot> Router::shardMetrics() const {
  std::vector<MetricsSnapshot> out;
  out.reserve(shards_.size());
  for (int s = 0; s < shards(); ++s) out.push_back(engineOf(s)->metrics());
  return out;
}

std::vector<DecodeMetricsSnapshot> Router::shardDecodeMetrics() const {
  std::vector<DecodeMetricsSnapshot> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(shards_.size());
  for (const auto& s : shards_)
    out.push_back(s->decode != nullptr ? s->decode->metrics()
                                       : DecodeMetricsSnapshot{});
  return out;
}

MetricsSnapshot Router::mergedMetrics() const {
  MetricsSnapshot merged;
  obs::MetricsRegistry samples;  // scratch: only its histograms are read
  double batchWeighted = 0;
  for (int i = 0; i < shards(); ++i) {
    std::shared_ptr<Engine> engine = engineOf(i);
    const MetricsSnapshot s = engine->metrics();
    merged.requests += s.requests;
    merged.errors += s.errors;
    merged.batches += s.batches;
    batchWeighted += s.meanBatchSize * static_cast<double>(s.batches);
    merged.throughputRps += s.throughputRps;
    merged.cacheHits += s.cacheHits;
    merged.cacheMisses += s.cacheMisses;
    merged.cacheEvictions += s.cacheEvictions;
    merged.cacheCompiles += s.cacheCompiles;
    merged.cacheCompileFailures += s.cacheCompileFailures;
    merged.cacheNegativeHits += s.cacheNegativeHits;
    merged.cacheSize += s.cacheSize;
    merged.compileUsTotal += s.compileUsTotal;
    merged.sessionsOpened += s.sessionsOpened;
    for (int r = 0; r < kNumRejectReasons; ++r)
      merged.rejected[r] += s.rejected[r];
    merged.fallbackRequests += s.fallbackRequests;
    merged.decoalescedBatches += s.decoalescedBatches;
    merged.simBusyUs += s.simBusyUs;
    // Merge the latency samples; scalar names collide in the scratch
    // registry but only the histograms are read back.
    engine->exportMetrics(samples);
  }
  merged.meanBatchSize =
      merged.batches == 0
          ? 0.0
          : batchWeighted / static_cast<double>(merged.batches);
  const obs::MetricsRegistry::Snapshot snap = samples.snapshot();
  merged.total = toLatencyStats(snap.histogram("tssa_serve_request_latency_us"));
  merged.queue = toLatencyStats(snap.histogram("tssa_serve_queue_latency_us"));
  merged.exec = toLatencyStats(snap.histogram("tssa_serve_exec_latency_us"));
  return merged;
}

void Router::exportMetrics(obs::MetricsRegistry& registry) const {
  for (int s = 0; s < shards(); ++s) {
    const std::string label = shardLabel(s);
    engineOf(s)->exportMetrics(registry, label);
    DecodeScheduler* decode = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      decode = shards_[static_cast<std::size_t>(s)]->decode.get();
    }
    if (decode != nullptr) decode->exportMetrics(registry, label);
  }
  // The unlabeled merged view. The histograms merge by exporting each
  // shard's samples unlabeled (observeMany appends, so shards accumulate
  // instead of overwriting); those calls also write transiently wrong
  // unlabeled scalars, which exportSnapshot(merged) below overwrites with
  // the true sums.
  for (int s = 0; s < shards(); ++s) engineOf(s)->exportMetrics(registry);
  exportSnapshot(mergedMetrics(), registry);
}

Engine& Router::engine(int shard) { return *engineOf(shard); }

DecodeScheduler* Router::decode(int shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  return shards_[static_cast<std::size_t>(shard)]->decode.get();
}

}  // namespace tssa::serve
