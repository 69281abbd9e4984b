#include "src/runtime/interpreter.h"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "src/ir/printer.h"
#include "src/obs/trace.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/ops.h"

namespace tssa::runtime {

using ir::Node;
using ir::OpKind;

void Interpreter::setThreads(int threads) {
  threads_ = threads == 0 ? ThreadPool::hardwareThreads()
                          : std::max(threads, 1);
}

// ---- Operands ---------------------------------------------------------------

/// A node's operands looked up once: the runtime values plus their metadata
/// views for the op rules (non-owning: they point into the values). Inline
/// storage covers every leaf op; only wide nodes (long lists, big fusion
/// groups) spill to the heap.
class Interpreter::Operands {
 public:
  Operands(const Node& node, const Env& env, const Interpreter& interp)
      : Operands(node.numInputs()) {
    for (std::size_t i = 0; i < n_; ++i)
      set(i, interp.get(node.input(i), env));
  }
  Operands(const Operands&) = delete;
  Operands& operator=(const Operands&) = delete;

  const RtValue& value(std::size_t i) const {
    TSSA_CHECK(i < n_, "missing operand " << i);
    return *values_[i];
  }
  const Tensor& tensor(std::size_t i) const { return value(i).tensor(); }
  Scalar scalar(std::size_t i) const { return value(i).scalar(); }
  std::span<const analysis::Operand> meta() const { return {meta_, n_}; }

 private:
  static constexpr std::size_t kInline = 6;

  explicit Operands(std::size_t n) : n_(n) {
    if (n_ > kInline) {
      heapValues_.resize(n_);
      heapMeta_.resize(n_);
      values_ = heapValues_.data();
      meta_ = heapMeta_.data();
    }
  }
  void set(std::size_t i, const RtValue& v) {
    values_[i] = &v;
    meta_[i] = analysis::operandOf(v);
  }

  std::size_t n_;
  // Only the first n_ entries are ever set or read.
  std::array<const RtValue*, kInline> inlineValues_;
  std::array<analysis::Operand, kInline> inlineMeta_;
  std::vector<const RtValue*> heapValues_;
  std::vector<analysis::Operand> heapMeta_;
  const RtValue** values_ = inlineValues_.data();
  analysis::Operand* meta_ = inlineMeta_.data();
};

// ---- Entry ----------------------------------------------------------------------------

std::vector<RtValue> Interpreter::run(const ir::Graph& graph,
                                      std::span<const RtValue> inputs) {
  TSSA_CHECK(inputs.size() == graph.inputs().size(),
             "expected " << graph.inputs().size() << " inputs, got "
                         << inputs.size());
  obs::TraceSpan runSpan("exec", "Interpreter.run");
  runSpan.arg("threads", threads_);
  Env env;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    env[graph.inputs()[i]] = inputs[i];
  ExecContext ctx;
  // With a plan attached, publish the root arena for the whole run:
  // Tensor::empty then draws intermediates from the pool. Graph inputs and
  // outputs are held by the caller (refcount > 1), so they are never pooled
  // and nothing a caller sees ever aliases arena memory.
  std::optional<Arena::Scope> arenaScope;
  Arena::Stats before;
  if (plan_ != nullptr) {
    if (arena_ == nullptr) arena_ = std::make_unique<Arena>();
    ctx.arena = arena_.get();
    before = arena_->stats();
    arenaScope.emplace(arena_.get());
  }
  runBlockBody(*graph.topBlock(), env, ctx);
  std::vector<RtValue> outs = blockReturns(*graph.topBlock(), env);
  // Sweep what is still bound (escaped-to-return values, stale branch
  // bindings) into the pool so the next run of this program starts warm:
  // dropping a binding donates a solely-owned buffer to the scope-current
  // arena (via ~Storage). `outs`, the caller's inputs, and constants keep
  // their storage alive and are refused by the refcount guard.
  env.clear();
  if (plan_ != nullptr && profiler_ != nullptr) {
    const Arena::Stats delta = arena_->stats() - before;
    profiler_->memory(delta.freshAllocs, delta.reusedAllocs, delta.freshBytes,
                      delta.reusedBytes, delta.recycled, delta.recycleMisses);
  }
  return outs;
}

void Interpreter::runBlockBody(const ir::Block& block, Env& env,
                               ExecContext& ctx) {
  for (const Node* node : block) {
    execNode(*node, env, ctx);
    if (plan_ != nullptr) releaseDead(*node, env);
  }
}

void Interpreter::releaseDead(const Node& node, Env& env) {
  const std::vector<const ir::Value*>* dead = plan_->deathsFor(&node);
  if (dead == nullptr) return;
  for (const ir::Value* v : *dead) {
    auto it = env.find(v);
    // Not bound: the value lives in a branch that was not taken, or the plan
    // belongs to another graph. Either way there is nothing to drop.
    if (it == env.end()) continue;
    // Erasing the binding is the release: if it was the last owner, the
    // Storage destructor donates the buffer to the scope-current arena.
    env.erase(it);
  }
}

void Interpreter::dropReturnBindings(const ir::Block& block, Env& env) {
  for (const ir::Value* r : block.returns()) {
    // Values from an outer scope stay bound — later nodes may read them.
    if (r->definingBlock() != &block) continue;
    auto it = env.find(r);
    if (it != env.end()) env.erase(it);
  }
}

std::vector<RtValue> Interpreter::blockReturns(const ir::Block& block,
                                               const Env& env) {
  std::vector<RtValue> out;
  out.reserve(block.numReturns());
  for (const ir::Value* r : block.returns()) out.push_back(get(r, env));
  return out;
}

const RtValue& Interpreter::get(const ir::Value* v, const Env& env) const {
  auto it = env.find(v);
  TSSA_CHECK(it != env.end(), "value %" << v->id() << " not bound");
  return it->second;
}

// ---- Tiled fused bodies -------------------------------------------------------------------

namespace {

/// Tiles run across the pool when the widest tiled value is at least this
/// big: below it, a launch's pool round trip outweighs its tiles' work.
constexpr std::int64_t kParallelGrainBytes = 4 * analysis::kTileBytes;

}  // namespace

std::shared_ptr<const analysis::TilePlan> Interpreter::tilePlanFor(
    const Node& node, std::span<const RtValue> in) {
  // Bodies whose params all fit one tile run whole without planning: the
  // small loop-body cells, whose select indices change every iteration and
  // so would miss the per-signature cache.
  std::int64_t widest = 0;
  for (const RtValue& v : in) {
    if (!v.isTensor()) continue;
    const Tensor& t = v.tensor();
    widest = std::max<std::int64_t>(
        widest, t.numel() * static_cast<std::int64_t>(dtypeSize(t.dtype())));
  }
  if (widest <= analysis::kTileBytes) return nullptr;

  std::vector<std::int64_t> sig = signatureOf(in);
  auto cached = [&]() -> const std::shared_ptr<const analysis::TilePlan>* {
    for (const auto& [key, plan] : tilePlans_[&node].entries)
      if (key == sig) return &plan;
    return nullptr;
  };
  {
    std::lock_guard<std::mutex> lock(tilePlansMutex_);
    if (const auto* plan = cached()) return *plan;
  }
  std::vector<analysis::Operand> params;
  params.reserve(in.size());
  for (const RtValue& v : in) params.push_back(analysis::operandOf(v));
  std::shared_ptr<const analysis::TilePlan> plan;
  if (auto p = analysis::planTiles(*node.block(0), params))
    plan = std::make_shared<const analysis::TilePlan>(std::move(*p));

  std::lock_guard<std::mutex> lock(tilePlansMutex_);
  if (const auto* other = cached()) return *other;  // planned concurrently
  TilePlans& plans = tilePlans_[&node];
  if (plans.entries.size() < kTilePlansPerNode) {
    plans.entries.emplace_back(std::move(sig), plan);
  } else {
    plans.entries[plans.next] = {std::move(sig), plan};
    plans.next = (plans.next + 1) % kTilePlansPerNode;
  }
  return plan;
}

int Interpreter::runTiled(const Node& node, const analysis::TilePlan& plan,
                          std::span<const RtValue> in, ExecContext& ctx,
                          std::vector<RtValue>& rets) {
  // A tile writes in-place Assigns through to its rows of a param. That is
  // the whole body's effect only when no two rows of the param share memory
  // and no other param reads it through another view.
  for (const std::size_t p : plan.writtenParams) {
    const Tensor& t = in[p].tensor();
    if (!t.isContiguous()) return 0;
    for (std::size_t q = 0; q < in.size(); ++q)
      if (q != p && in[q].isTensor() && in[q].tensor().sharesStorageWith(t))
        return 0;
  }
  const ir::Block& body = *node.block(0);

  // What every tile reads whole: the params, and the nodes that read only
  // whole values, run once up front. They are pure (an in-place Assign
  // never runs whole), so running them early changes nothing.
  Env shared;
  for (std::size_t i = 0; i < in.size(); ++i) shared[body.param(i)] = in[i];
  std::size_t k = 0;
  for (const Node* n : body)
    if (!plan.nodes[k++].tiled) execNode(*n, shared, ctx);

  // Whole returns, allocated once per launch; each tile fills its rows.
  rets.assign(plan.returns.size(), RtValue());
  for (std::size_t r = 0; r < rets.size(); ++r) {
    const analysis::TilePlan::Result& result = plan.returns[r];
    if (result.param >= 0) {
      rets[r] = in[static_cast<std::size_t>(result.param)];
    } else if (result.cut.dim < 0) {
      rets[r] = get(body.returns()[r], shared);
    } else {
      rets[r] = Tensor::empty(result.meta.sizes, result.meta.dtype);
    }
  }

  const int workers =
      threads_ > 1 && !ctx.onWorker && plan.widestBytes >= kParallelGrainBytes
          ? static_cast<int>(std::min<std::int64_t>(threads_, plan.tiles))
          : 1;
  if (workers == 1) {
    Env env;
    for (std::int64_t t = 0; t < plan.tiles; ++t)
      runTile(body, plan, t, in, shared, rets, env);
    env.clear();
    return workers;
  }
  std::vector<Arena::Stats> workerArenaDeltas(static_cast<std::size_t>(workers));
  ThreadPool::shared().parallelFor(
      plan.tiles, workers,
      [&](std::int64_t begin, std::int64_t end, int chunk) {
        ExecContext wctx;
        std::optional<Arena::Scope> scope;
        Arena::Stats before;
        enterWorker(wctx, scope, before);
        Env env;
        for (std::int64_t t = begin; t < end; ++t)
          runTile(body, plan, t, in, shared, rets, env);
        env.clear();
        if (wctx.arena != nullptr)
          workerArenaDeltas[static_cast<std::size_t>(chunk)] +=
              wctx.arena->stats() - before;
      });
  recordWorkerArenas(workerArenaDeltas);
  return workers;
}

void Interpreter::runTile(const ir::Block& body,
                          const analysis::TilePlan& plan, std::int64_t tile,
                          std::span<const RtValue> in, const Env& shared,
                          std::span<RtValue> rets, Env& env) {
  // Rebinding drops the previous tile's values, so their buffers are back
  // in the arena before this tile allocates.
  env = shared;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const analysis::TilePlan::Cut& cut = plan.params[i];
    if (cut.dim < 0) continue;
    const auto [begin, end] = plan.rows(cut.extent, tile);
    env[body.param(i)] = in[i].tensor().narrow(cut.dim, begin, end - begin);
  }
  std::size_t k = 0;
  for (const Node* node : body) {
    const analysis::TilePlan::NodeStep& step = plan.nodes[k++];
    if (!step.tiled) continue;
    analysis::SizesPatch patch;
    if (step.view.dim >= 0) {
      const auto [begin, end] = plan.rows(step.view.extent, tile);
      patch = {step.view.dim, end - begin};
    }
    RtValue out;
    execLeaf(*node, Operands(*node, env, *this), std::span(&out, 1), patch);
    env[node->output(0)] = std::move(out);
    if (plan_ != nullptr) releaseDead(*node, env);
  }
  for (std::size_t r = 0; r < rets.size(); ++r) {
    const analysis::TilePlan::Result& result = plan.returns[r];
    if (result.cut.dim < 0 || result.param >= 0) continue;
    const auto [begin, end] = plan.rows(result.cut.extent, tile);
    std::as_const(rets[r])
        .tensor()
        .narrow(result.cut.dim, begin, end - begin)
        .copy_(get(body.returns()[r], env).tensor());
  }
}

// ---- Loops ----------------------------------------------------------------------------------

void Interpreter::runIterations(const ir::Block& body, std::int64_t trip,
                                std::vector<RtValue>& carried, Env& env,
                                ExecContext& ctx) {
  for (std::int64_t it = 0; it < trip; ++it) {
    env[body.param(0)] = Scalar(it);
    for (std::size_t i = 0; i < carried.size(); ++i) {
      // The previous iteration's carried value dies at this rebind (its
      // planned "death" is escape via the body Return, which the copy in
      // `carried` satisfied). First iteration / shared buffers are safe:
      // the initial values are still referenced from the outer env, so
      // recycle refuses them.
      // Move, don't copy: a copy left in `carried` would pin the
      // refcount at 2 for the whole body, so the param's planned death
      // could never free the buffer. The overwrite also drops any stale
      // binding a param without a planned death still holds.
      env[body.param(i + 1)] = std::move(carried[i]);
    }
    runBlockBody(body, env, ctx);
    carried = blockReturns(body, env);
    if (ctx.arena != nullptr) dropReturnBindings(body, env);
  }
}

// ---- Pool workers --------------------------------------------------------------------------

void Interpreter::enterWorker(ExecContext& wctx,
                              std::optional<Arena::Scope>& scope,
                              Arena::Stats& before) {
  wctx.onWorker = true;
  // Planned runs give each worker its own thread-local arena (no
  // contention); the Scope nests over whatever arena the calling thread had
  // published, which matters when the helping barrier runs a chunk on the
  // root thread.
  if (plan_ != nullptr) {
    wctx.arena = &Arena::threadLocal();
    before = wctx.arena->stats();
    scope.emplace(wctx.arena);
  }
}

void Interpreter::recordWorkerArenas(std::span<const Arena::Stats> deltas) {
  if (profiler_ == nullptr || plan_ == nullptr) return;
  // Worker-arena traffic, merged at the barrier (a single-threaded point).
  // The fresh/reuse split legitimately varies with the thread count — each
  // worker warms its own pool.
  Arena::Stats total;
  for (const Arena::Stats& d : deltas) total += d;
  profiler_->memory(total.freshAllocs, total.reusedAllocs, total.freshBytes,
                    total.reusedBytes, total.recycled, total.recycleMisses);
}

// ---- Threaded ParallelMap ----------------------------------------------------------------

bool Interpreter::tryParallelMap(const Node& node, Env& env, ExecContext& ctx,
                                 std::int64_t trip,
                                 const std::vector<RtValue>& carried) {
  // Preconditions: a worker budget, top-level context (a ParallelMap cannot
  // nest inside another one's body, but be defensive), and the converting
  // pass's independence proof attached as metadata.
  if (threads_ <= 1 || trip <= 1 || ctx.onWorker) return false;
  if (!node.attrs().has("par_dims")) return false;
  const std::vector<std::int64_t>& dims = node.attrs().ints("par_dims");
  if (dims.size() != carried.size()) return false;
  for (std::size_t k = 0; k < carried.size(); ++k) {
    if (dims[k] < 0) continue;  // read-only pass-through
    if (!carried[k].isTensor()) return false;
    const Tensor& t = carried[k].tensor();
    // Every iteration writes slice `i` of this dimension, so the extent must
    // cover the trip count (the serial path would throw out-of-range too —
    // let it produce that error).
    if (dims[k] >= t.dim() || t.size(dims[k]) < trip) return false;
  }

  const ir::Block& body = *node.block(0);

  // Pre-allocated output slots. Written slots get a private buffer cloned
  // from the carried input: slices the loop never writes (trip < extent)
  // keep their input values, exactly as in serial execution. The clone is an
  // execution artifact of the threaded engine, not a modelled kernel.
  std::vector<RtValue> outs(carried.size());
  for (std::size_t k = 0; k < carried.size(); ++k)
    outs[k] = dims[k] >= 0 ? RtValue(carried[k].tensor().clone()) : carried[k];

  const int workers =
      static_cast<int>(std::min<std::int64_t>(threads_, trip));
  std::vector<Arena::Stats> workerArenaDeltas(static_cast<std::size_t>(workers));

  ThreadPool::shared().parallelFor(
      trip, workers, [&](std::int64_t begin, std::int64_t end, int chunk) {
        // Worker-side span: one per chunk, on the executing thread's
        // timeline — this is what makes thread utilization visible in the
        // trace (idle workers show as gaps between chunk spans).
        obs::TraceSpan chunkSpan("exec", "ParallelMap.chunk");
        chunkSpan.arg("chunk", chunk);
        chunkSpan.arg("begin", begin);
        chunkSpan.arg("end", end);
        // Private environment: binding values is cheap (tensors are views).
        // Iterations of this chunk run serially against it, exactly like the
        // serial executor, but read the ParallelMap's *input* versions of
        // the carried values — legal because the pass proved each iteration
        // touches only its own slice.
        Env wenv = env;
        ExecContext wctx;
        std::optional<Arena::Scope> warenaScope;
        Arena::Stats wbefore;
        enterWorker(wctx, warenaScope, wbefore);
        for (std::int64_t it = begin; it < end; ++it) {
          wenv[body.param(0)] = Scalar(it);
          for (std::size_t k = 0; k < carried.size(); ++k)
            wenv[body.param(k + 1)] = carried[k];
          runBlockBody(body, wenv, wctx);
          std::vector<RtValue> rets = blockReturns(body, wenv);
          if (wctx.arena != nullptr) dropReturnBindings(body, wenv);
          for (std::size_t k = 0; k < carried.size(); ++k) {
            if (dims[k] < 0) continue;
            // This iteration owns slice `it` exclusively — lock-free write.
            Tensor dst = outs[k].tensor().select(dims[k], it);
            dst.copy_(rets[k].tensor().select(dims[k], it));
          }
          // `rets` dies here: the per-iteration results were copied into the
          // shared output slots above, so their buffers flow back into this
          // worker's pool for the next iteration (pass-through carried
          // values stay shared with the caller and are not donated).
        }
        wenv.clear();
        if (wctx.arena != nullptr)
          workerArenaDeltas[static_cast<std::size_t>(chunk)] +=
              wctx.arena->stats() - wbefore;
      });

  recordWorkerArenas(workerArenaDeltas);
  for (std::size_t k = 0; k < outs.size(); ++k)
    env[node.output(k)] = std::move(outs[k]);
  return true;
}

// ---- Node execution ----------------------------------------------------------------------

void Interpreter::execNode(const Node& node, Env& env, ExecContext& ctx) {
  auto bindOut = [&](std::size_t i, RtValue v) {
    env[node.output(i)] = std::move(v);
  };

  switch (node.kind()) {
    case OpKind::If: {
      const bool cond = get(node.input(0), env).scalar().toBool();
      const ir::Block& block = *node.block(cond ? 0 : 1);
      runBlockBody(block, env, ctx);
      auto rets = blockReturns(block, env);
      // Re-home the branch returns onto the If's outputs: keeping the
      // branch-local binding too would pin the refcount when the output's
      // planned death tries to recycle.
      if (ctx.arena != nullptr) dropReturnBindings(block, env);
      for (std::size_t i = 0; i < rets.size(); ++i)
        bindOut(i, std::move(rets[i]));
      return;
    }
    case OpKind::Loop:
    case OpKind::ParallelMap: {
      const std::int64_t trip = get(node.input(0), env).scalar().toInt();
      std::vector<RtValue> carried;
      for (std::size_t i = 1; i < node.numInputs(); ++i)
        carried.push_back(get(node.input(i), env));
      if (node.kind() == OpKind::Loop) {
        runIterations(*node.block(0), trip, carried, env, ctx);
      } else {
        // Semantics of Loop, modelled as one batched kernel per kernel
        // position: the horizontal parallelization result (§4.2.2).
        // Iterations are independent by construction (the pass proved it),
        // so the threaded engine really runs them concurrently; without
        // metadata or a worker budget they run as a Loop.
        obs::TraceSpan span("exec", "ParallelMap");
        span.arg("trip", trip);
        const bool threaded = tryParallelMap(node, env, ctx, trip, carried);
        span.arg("threaded", std::int64_t{threaded ? 1 : 0});
        if (threaded) {
          span.arg("workers", static_cast<std::int64_t>(
                                  std::min<std::int64_t>(threads_, trip)));
          return;
        }
        runIterations(*node.block(0), trip, carried, env, ctx);
      }
      for (std::size_t i = 0; i < carried.size(); ++i)
        bindOut(i, std::move(carried[i]));
      return;
    }
    case OpKind::FusionGroup: {
      // One modelled kernel. It runs in tiles when the body tiles, else
      // whole, node by node.
      obs::TraceSpan span("exec", "FusionGroup");
      const ir::Block& body = *node.block(0);
      std::vector<RtValue> groupInputs;
      groupInputs.reserve(node.numInputs());
      for (std::size_t i = 0; i < node.numInputs(); ++i)
        groupInputs.push_back(get(node.input(i), env));

      std::vector<RtValue> rets;
      const auto plan = tilePlanFor(node, groupInputs);
      if (const int workers =
              plan ? runTiled(node, *plan, groupInputs, ctx, rets) : 0) {
        span.arg("backend", "tiled");
        span.arg("tiles", plan->tiles);
        span.arg("workers", static_cast<std::int64_t>(workers));
      } else {
        span.arg("backend", "interp");
        span.arg("tiles", std::int64_t{1});
        span.arg("workers", std::int64_t{1});
        for (std::size_t i = 0; i < node.numInputs(); ++i)
          env[body.param(i)] = groupInputs[i];
        runBlockBody(body, env, ctx);
        rets = blockReturns(body, env);
        if (ctx.arena != nullptr) dropReturnBindings(body, env);
      }
      for (std::size_t i = 0; i < rets.size(); ++i)
        bindOut(i, std::move(rets[i]));
      return;
    }
    default:
      break;
  }

  // Leaf op.
  constexpr std::size_t kMaxOutputs = 2;
  TSSA_CHECK(node.numOutputs() <= kMaxOutputs,
             "interpreter: " << opName(node.kind()) << " has "
                             << node.numOutputs() << " outputs");
  const Operands in(node, env, *this);
  std::array<RtValue, kMaxOutputs> outs;
  const std::span<RtValue> out(outs.data(), node.numOutputs());
  execLeaf(node, in, out);
  for (std::size_t i = 0; i < out.size(); ++i) bindOut(i, std::move(out[i]));
}

void Interpreter::execLeaf(const Node& node, const Operands& in,
                          std::span<RtValue> out,
                          analysis::SizesPatch patch) const {
  const OpKind kind = node.kind();
  const auto& attrs = node.attrs();
  const ir::OpCategory category = ir::opCategory(kind);
  // Scalar ops compute their value from metadata alone: the shared rule.
  if (category == ir::OpCategory::Scalar) {
    out[0] = analysis::scalarResult(node, in.meta());
    return;
  }
  if (category == ir::OpCategory::ViewOp) {
    out[0] = analysis::applyView(kind, node, in.tensor(0), in.meta(), 1);
    return;
  }
  switch (kind) {
    // ---- structural -------------------------------------------------------
    case OpKind::Constant:
      out[0] = attrs.has("tensor") ? RtValue(attrs.tensor("tensor"))
                                   : RtValue(attrs.scalar("value"));
      return;
    case OpKind::ListConstruct: {
      std::vector<Tensor> list;
      list.reserve(node.numInputs());
      for (std::size_t i = 0; i < node.numInputs(); ++i)
        list.push_back(in.tensor(i));
      out[0] = std::move(list);
      return;
    }
    case OpKind::ListIndex: {
      const auto& list = in.value(0).list();
      const std::int64_t i = in.scalar(1).toInt();
      TSSA_CHECK(i >= 0 && i < static_cast<std::int64_t>(list.size()),
                 "list index out of range");
      out[0] = list[static_cast<std::size_t>(i)];
      return;
    }
    case OpKind::Return:
      TSSA_THROW("return sentinel must not be executed");
    case OpKind::Update:
      TSSA_THROW("tssa::update is annotation-only and must be removed "
                 "before execution");
    case OpKind::Cat:
      out[0] = ops::cat(in.value(0).list(), attrs.i("dim"));
      return;
    case OpKind::Stack:
      out[0] = ops::stack(in.value(0).list(), attrs.i("dim"));
      return;

    // ---- factories ----------------------------------------------------------
    case OpKind::Zeros:
    case OpKind::Ones: {
      const Shape sizes = analysis::resolvedSizes(node, in.meta(), 0);
      const DType dt = attrs.dtype("dtype");
      out[0] = kind == OpKind::Zeros ? Tensor::zeros(sizes, dt)
                                     : Tensor::ones(sizes, dt);
      return;
    }
    case OpKind::Full:
      out[0] = Tensor::full(analysis::resolvedSizes(node, in.meta(), 1),
                            in.scalar(0), attrs.dtype("dtype"));
      return;
    case OpKind::Arange:
      out[0] = Tensor::arange(in.scalar(0).toInt(), in.scalar(1).toInt(),
                              in.scalar(2).toInt());
      return;
    default:
      break;
  }

  const Tensor& a = in.tensor(0);
  // In-place op: compute the pure equivalent, write through the target
  // view; the result aliases the target (PyTorch semantics: one kernel).
  auto inplace = [&](const Tensor& result) {
    Tensor target = a;
    target.copy_(result);
    out[0] = target;
  };

  switch (kind) {
    // ---- elementwise ------------------------------------------------------
    case OpKind::Add: out[0] = ops::add(a, in.tensor(1)); return;
    case OpKind::Sub: out[0] = ops::sub(a, in.tensor(1)); return;
    case OpKind::Mul: out[0] = ops::mul(a, in.tensor(1)); return;
    case OpKind::Div: out[0] = ops::div(a, in.tensor(1)); return;
    case OpKind::Pow: out[0] = ops::pow(a, in.tensor(1)); return;
    case OpKind::Minimum: out[0] = ops::minimum(a, in.tensor(1)); return;
    case OpKind::Maximum: out[0] = ops::maximum(a, in.tensor(1)); return;
    case OpKind::Eq: out[0] = ops::eq(a, in.tensor(1)); return;
    case OpKind::Ne: out[0] = ops::ne(a, in.tensor(1)); return;
    case OpKind::Lt: out[0] = ops::lt(a, in.tensor(1)); return;
    case OpKind::Le: out[0] = ops::le(a, in.tensor(1)); return;
    case OpKind::Gt: out[0] = ops::gt(a, in.tensor(1)); return;
    case OpKind::Ge: out[0] = ops::ge(a, in.tensor(1)); return;
    case OpKind::LogicalAnd: out[0] = ops::logicalAnd(a, in.tensor(1)); return;
    case OpKind::LogicalOr: out[0] = ops::logicalOr(a, in.tensor(1)); return;
    case OpKind::Neg: out[0] = ops::neg(a); return;
    case OpKind::Exp: out[0] = ops::exp(a); return;
    case OpKind::Log: out[0] = ops::log(a); return;
    case OpKind::Sqrt: out[0] = ops::sqrt(a); return;
    case OpKind::Abs: out[0] = ops::abs(a); return;
    case OpKind::Sigmoid: out[0] = ops::sigmoid(a); return;
    case OpKind::Tanh: out[0] = ops::tanh(a); return;
    case OpKind::Relu: out[0] = ops::relu(a); return;
    case OpKind::LogicalNot: out[0] = ops::logicalNot(a); return;
    case OpKind::Clamp:
      out[0] = ops::clamp(a, attrs.scalar("lo"), attrs.scalar("hi"));
      return;
    case OpKind::Cast: out[0] = a.to(attrs.dtype("dtype")); return;
    case OpKind::Where:
      out[0] = ops::where(a, in.tensor(1), in.tensor(2));
      return;
    case OpKind::MaskedFill:
      out[0] = ops::maskedFill(a, in.tensor(1), in.scalar(2));
      return;

    // ---- reductions -------------------------------------------------------
    case OpKind::Sum: out[0] = ops::sum(a); return;
    case OpKind::SumDim:
      out[0] = ops::sum(a, attrs.i("dim"), attrs.bOr("keepdim", false));
      return;
    case OpKind::Mean:
      out[0] = ops::mean(a, attrs.i("dim"), attrs.bOr("keepdim", false));
      return;
    case OpKind::MaxDim:
      out[0] = ops::maxReduce(a, attrs.i("dim"), attrs.bOr("keepdim", false));
      return;
    case OpKind::MinDim:
      out[0] = ops::minReduce(a, attrs.i("dim"), attrs.bOr("keepdim", false));
      return;
    case OpKind::Argmax:
      out[0] = ops::argmax(a, attrs.i("dim"), attrs.bOr("keepdim", false));
      return;
    case OpKind::Softmax: out[0] = ops::softmax(a, attrs.i("dim")); return;
    case OpKind::Cumsum: out[0] = ops::cumsum(a, attrs.i("dim")); return;

    // ---- linear algebra ---------------------------------------------------
    case OpKind::Matmul: out[0] = ops::matmul(a, in.tensor(1)); return;
    case OpKind::Bmm: out[0] = ops::bmm(a, in.tensor(1)); return;

    // ---- shape / data movement ----------------------------------------------
    case OpKind::IndexSelect:
      out[0] = ops::indexSelect(a, attrs.i("dim"), in.tensor(1));
      return;
    case OpKind::Gather:
      out[0] = ops::gather(a, attrs.i("dim"), in.tensor(1));
      return;
    case OpKind::Topk: {
      auto [values, indices] = ops::topk(a, attrs.i("k"));
      out[0] = std::move(values);
      out[1] = std::move(indices);
      return;
    }
    case OpKind::Argsort:
      out[0] = ops::argsort(a, attrs.b("descending"));
      return;
    case OpKind::Clone: out[0] = a.clone(); return;
    case OpKind::Contiguous: out[0] = a.contiguous(); return;

    // ---- mutation (writes through aliases; Definition 3.2) ------------------
    case OpKind::Copy_:
    case OpKind::Fill_:
    case OpKind::Zero_: {
      Tensor dst = a;
      if (kind == OpKind::Copy_) {
        dst.copy_(in.tensor(1));
      } else {
        dst.fill_(kind == OpKind::Fill_ ? in.scalar(1) : Scalar(0));
      }
      out[0] = dst;
      return;
    }
    case OpKind::Add_: return inplace(ops::add(a, in.tensor(1)));
    case OpKind::Sub_: return inplace(ops::sub(a, in.tensor(1)));
    case OpKind::Mul_: return inplace(ops::mul(a, in.tensor(1)));
    case OpKind::Div_: return inplace(ops::div(a, in.tensor(1)));
    case OpKind::Relu_: return inplace(ops::relu(a));
    case OpKind::Sigmoid_: return inplace(ops::sigmoid(a));
    case OpKind::Tanh_: return inplace(ops::tanh(a));
    case OpKind::MaskedFill_:
      return inplace(ops::maskedFill(a, in.tensor(1), in.scalar(2)));

    // ---- TensorSSA (pure semantics of Definitions 3.3/3.4) ------------------
    case OpKind::Access:
      out[0] = analysis::applyView(static_cast<OpKind>(attrs.i("view")), node,
                                   a, in.meta(), 1, patch)
                   .clone();
      return;
    case OpKind::Assign: {
      // Donated buffers (marked by markInplaceAssigns) are written in place:
      // the new version reuses the dead old version's storage.
      Tensor result = attrs.bOr("inplace", false) ? a : a.clone();
      analysis::applyView(static_cast<OpKind>(attrs.i("view")), node, result,
                          in.meta(), 2, patch)
          .copy_(in.tensor(1));
      out[0] = std::move(result);
      return;
    }
    default:
      break;
  }
  TSSA_THROW("interpreter: unhandled op " << opName(kind) << " in\n"
                                          << ir::toString(node));
}

}  // namespace tssa::runtime
