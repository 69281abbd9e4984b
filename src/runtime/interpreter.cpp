#include "src/runtime/interpreter.h"

#include <algorithm>
#include <array>
#include <optional>

#include "src/ir/printer.h"
#include "src/obs/trace.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/ops.h"
#include "src/texpr/jit.h"

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
  explicit Operands(std::span<const RtValue> values)
      : Operands(values.size()) {
    for (std::size_t i = 0; i < n_; ++i) set(i, values[i]);
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
  ExecContext ctx(profiler_);
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
  // bindings) into the pool so the next run of this program starts warm;
  // `outs`, the caller's inputs, and constants keep their storage alive and
  // are refused by the refcount guard.
  recycleEnv(env, ctx);
  if (plan_ != nullptr && profiler_ != nullptr) {
    const Arena::Stats delta = arena_->stats() - before;
    profiler_->memory(delta.freshAllocs, delta.reusedAllocs, delta.freshBytes,
                      delta.reusedBytes, delta.recycled, delta.recycleMisses);
  }
  return outs;
}

void Interpreter::runBlockBody(const ir::Block& block, Env& env,
                               ExecContext& ctx) {
  ctx.sink.enterBlock(block);
  for (const Node* node : block) {
    execNode(*node, env, ctx);
    if (plan_ != nullptr) releaseDead(*node, env, ctx);
  }
}

void Interpreter::releaseDead(const Node& node, Env& env, ExecContext& ctx) {
  (void)ctx;
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

void Interpreter::recycleEnv(Env& env, ExecContext& ctx) {
  (void)ctx;
  // Dropping the bindings donates every solely-owned buffer to the
  // scope-current arena (via ~Storage); without an active scope this is a
  // plain clear. Values still referenced from outside — the returned
  // outputs, the caller's inputs, constants — survive untouched.
  env.clear();
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

// ---- View application --------------------------------------------------------------------

Tensor Interpreter::applyView(OpKind viewKind, const Node& node,
                              const Tensor& base,
                              std::span<const analysis::Operand> in,
                              std::size_t operandStart) const {
  const auto& attrs = node.attrs();
  auto index = [&](std::size_t i) {
    TSSA_CHECK(operandStart + i < in.size(), "view: missing dynamic operand");
    return in[operandStart + i].scalar().toInt();
  };
  switch (viewKind) {
    case OpKind::Identity:
      return base;
    case OpKind::Select:
      return base.select(attrs.i("dim"), index(0));
    case OpKind::Slice:
      return base.slice(attrs.i("dim"), index(0), index(1), attrs.i("step"));
    case OpKind::Reshape: {
      Shape sizes = analysis::resolvedSizes(node, in, operandStart);
      return base.isContiguous() ? base.view(std::move(sizes))
                                 : base.reshape(std::move(sizes));
    }
    case OpKind::Permute:
      return base.permute(attrs.ints("dims"));
    case OpKind::Transpose:
      return base.transpose(attrs.i("dim0"), attrs.i("dim1"));
    case OpKind::Expand:
      return base.expand(analysis::resolvedSizes(node, in, operandStart));
    case OpKind::Squeeze:
      return base.squeeze(attrs.i("dim"));
    case OpKind::Unsqueeze:
      return base.unsqueeze(attrs.i("dim"));
    case OpKind::Flatten:
      return base.flatten(attrs.i("start_dim"), attrs.i("end_dim"));
    default:
      TSSA_THROW("not a view kind: " << opName(viewKind));
  }
}

// ---- Fused-body cache --------------------------------------------------------------------

const Interpreter::FusedBody& Interpreter::fusedBodyFor(const Node& node,
                                                        const ir::Block& body) {
  std::lock_guard<std::mutex> lock(fusedMutex_);
  auto it = fused_.find(&node);
  if (it == fused_.end()) {
    FusedBody fused;
    fused.priced = texpr::Kernel::supports(body);
    if (fused.priced && texprJit_ && texpr::jit::jitEnabled())
      fused.kernel = std::make_unique<texpr::Kernel>(body);
    it = fused_.emplace(&node, std::move(fused)).first;
  }
  return it->second;
}

// ---- Threaded ParallelMap ----------------------------------------------------------------

bool Interpreter::tryParallelMap(const Node& node, Env& env, ExecContext& ctx,
                                 std::int64_t trip,
                                 const std::vector<RtValue>& carried) {
  // Preconditions: a worker budget, top-level context (a ParallelMap cannot
  // nest inside another one's body, but be defensive), and the converting
  // pass's independence proof attached as metadata.
  if (threads_ <= 1 || trip <= 1 || ctx.onWorker || ctx.sink.merging() ||
      ctx.sink.suppressing()) {
    return false;
  }
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
  // execution artifact of the threaded engine, not a modelled kernel — the
  // profiler charge below is derived purely from the merged slots, matching
  // the serial path bit-for-bit.
  std::vector<RtValue> outs(carried.size());
  for (std::size_t k = 0; k < carried.size(); ++k)
    outs[k] = dims[k] >= 0 ? RtValue(carried[k].tensor().clone()) : carried[k];

  const int workers =
      static_cast<int>(std::min<std::int64_t>(threads_, trip));
  std::vector<std::vector<analysis::ChargeSink::Slot>> workerSlots(
      static_cast<std::size_t>(workers));
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
        ExecContext wctx(profiler_);
        wctx.onWorker = true;
        // Planned runs give each worker its own thread-local arena (no
        // contention); the Scope nests over whatever arena the calling
        // thread had published, which matters when the helping barrier runs
        // a chunk on the root thread.
        std::optional<Arena::Scope> warenaScope;
        Arena::Stats wbefore;
        if (plan_ != nullptr) {
          wctx.arena = &Arena::threadLocal();
          wbefore = wctx.arena->stats();
          warenaScope.emplace(wctx.arena);
        }
        analysis::ChargeSink::MergeScope merge(wctx.sink);
        for (std::int64_t it = begin; it < end; ++it) {
          wctx.sink.beginIteration();  // kernel j of every iteration: launch j
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
        recycleEnv(wenv, wctx);
        workerSlots[static_cast<std::size_t>(chunk)] = wctx.sink.takeSlots();
        if (wctx.arena != nullptr)
          workerArenaDeltas[static_cast<std::size_t>(chunk)] +=
              wctx.arena->stats() - wbefore;
      });

  // Deterministic slot merge: chunk order, position-wise. Every iteration
  // records the same kernel sequence (the body has no control flow), so this
  // reproduces the serial accumulation exactly.
  std::vector<analysis::ChargeSink::Slot> slots;
  for (const auto& ws : workerSlots)
    analysis::ChargeSink::accumulate(slots, ws);
  ctx.sink.flushParallelMap(slots);
  if (profiler_ != nullptr) {
    if (plan_ != nullptr) {
      // Worker-arena traffic, merged at the barrier (a single-threaded
      // point). Unlike launch counts, the fresh/reuse split legitimately
      // varies with the thread count — each worker warms its own pool.
      Arena::Stats total;
      for (const Arena::Stats& d : workerArenaDeltas) total += d;
      profiler_->memory(total.freshAllocs, total.reusedAllocs,
                        total.freshBytes, total.reusedBytes, total.recycled,
                        total.recycleMisses);
    }
  }
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
      ctx.sink.branch();
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
    case OpKind::Loop: {
      const std::int64_t trip = get(node.input(0), env).scalar().toInt();
      const ir::Block& body = *node.block(0);
      std::vector<RtValue> carried;
      for (std::size_t i = 1; i < node.numInputs(); ++i)
        carried.push_back(get(node.input(i), env));
      for (std::int64_t it = 0; it < trip; ++it) {
        ctx.sink.loopIteration();
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
      for (std::size_t i = 0; i < carried.size(); ++i)
        bindOut(i, std::move(carried[i]));
      return;
    }
    case OpKind::ParallelMap: {
      // Semantics of Loop, executed as one batched kernel: the horizontal
      // parallelization result (§4.2.2). Iterations are independent by
      // construction (the pass proved it), so the threaded engine really
      // runs them concurrently; without metadata or a worker budget the
      // serial walk below executes the same batched-launch pricing.
      const std::int64_t trip = get(node.input(0), env).scalar().toInt();
      const ir::Block& body = *node.block(0);
      std::vector<RtValue> carried;
      for (std::size_t i = 1; i < node.numInputs(); ++i)
        carried.push_back(get(node.input(i), env));
      obs::TraceSpan span("exec", "ParallelMap");
      span.arg("trip", trip);
      if (tryParallelMap(node, env, ctx, trip, carried)) {
        span.arg("threaded", std::int64_t{1});
        span.arg("workers",
                 static_cast<std::int64_t>(
                     std::min<std::int64_t>(threads_, trip)));
        return;
      }
      span.arg("threaded", std::int64_t{0});
      std::vector<analysis::ChargeSink::Slot> slots;
      {
        analysis::ChargeSink::MergeScope merge(ctx.sink);
        for (std::int64_t it = 0; it < trip; ++it) {
          ctx.sink.beginIteration();  // kernel j of every iteration: launch j
          env[body.param(0)] = Scalar(it);
          for (std::size_t i = 0; i < carried.size(); ++i) {
            // Move for the same reason as the Loop path: the serial
            // ParallelMap walk also chains versions iteration-to-iteration.
            env[body.param(i + 1)] = std::move(carried[i]);
          }
          runBlockBody(body, env, ctx);
          carried = blockReturns(body, env);
          if (ctx.arena != nullptr) dropReturnBindings(body, env);
        }
        slots = ctx.sink.takeSlots();
      }
      ctx.sink.flushParallelMap(slots);
      for (std::size_t i = 0; i < carried.size(); ++i)
        bindOut(i, std::move(carried[i]));
      return;
    }
    case OpKind::FusionGroup: {
      // One kernel. External traffic only: inputs + outputs; intermediates
      // live in registers of the generated kernel.
      obs::TraceSpan span("exec", "FusionGroup");
      const ir::Block& body = *node.block(0);
      std::vector<RtValue> groupInputs;
      groupInputs.reserve(node.numInputs());
      for (std::size_t i = 0; i < node.numInputs(); ++i)
        groupInputs.push_back(get(node.input(i), env));

      // Supported bodies run as native code when the JIT accepts them and
      // node by node otherwise; either way they are charged from their
      // structure (texpr::Kernel::infer), so launches and simulated time do
      // not depend on the path. Other bodies pay what their suppressed
      // kernels count.
      const FusedBody* fused = useTexpr_ ? &fusedBodyFor(node, body) : nullptr;
      std::optional<texpr::Kernel::RunStats> priced;
      std::optional<std::vector<RtValue>> native;
      if (fused != nullptr && fused->kernel != nullptr) {
        // Pool workers must not recurse into the pool: a ParallelMap body's
        // fused kernels run single-threaded inside their iteration.
        native = fused->kernel->run(groupInputs, &priced.emplace(),
                                    ctx.onWorker ? 1 : threads_);
      }

      std::vector<RtValue> rets;
      std::int64_t flops = 0;
      std::int64_t savedBytes = 0;
      if (native) {
        rets = std::move(*native);
      } else {
        for (std::size_t i = 0; i < node.numInputs(); ++i)
          env[body.param(i)] = groupInputs[i];
        analysis::ChargeSink::SuppressScope suppress(ctx.sink);
        runBlockBody(body, env, ctx);
        flops = suppress.flops();
        savedBytes = suppress.savedBytes();
        rets = blockReturns(body, env);
        if (ctx.arena != nullptr) dropReturnBindings(body, env);
      }
      if (ctx.sink.enabled() || span.active()) {
        // Only the charge needs the price of an interpreted supported body.
        if (!priced && fused != nullptr && fused->priced)
          priced =
              texpr::Kernel::infer(body, Operands(groupInputs).meta()).stats;
        if (priced) {
          flops = priced->flops;
          savedBytes = priced->savedBytes;
        }
        const analysis::Charge charge = analysis::fusionGroupCharge(
            Operands(groupInputs).meta(), Operands(rets).meta(), flops,
            savedBytes);
        if (span.active()) {
          span.arg("backend", native ? "jit" : "interp");
          span.arg("bytes", charge.bytes);
          span.arg("flops", flops);
        }
        ctx.sink.charge(node, charge);
      }
      for (std::size_t i = 0; i < rets.size(); ++i)
        bindOut(i, std::move(rets[i]));
      return;
    }
    default:
      break;
  }

  // Leaf op: execute, then charge from the operand/result metadata before
  // binding (a failing launch probe leaves the outputs unbound).
  constexpr std::size_t kMaxOutputs = 2;
  TSSA_CHECK(node.numOutputs() <= kMaxOutputs,
             "interpreter: " << opName(node.kind()) << " has "
                             << node.numOutputs() << " outputs");
  const Operands in(node, env, *this);
  std::array<RtValue, kMaxOutputs> outs;
  const std::span<RtValue> out(outs.data(), node.numOutputs());
  execLeaf(node, in, out);
  if (ctx.sink.enabled()) {
    std::array<analysis::Operand, kMaxOutputs> results;
    for (std::size_t i = 0; i < out.size(); ++i)
      results[i] = analysis::operandOf(out[i]);
    ctx.sink.charge(node, analysis::chargeOf(node, in.meta(),
                                             {results.data(), out.size()}));
  }
  for (std::size_t i = 0; i < out.size(); ++i) bindOut(i, std::move(out[i]));
}

void Interpreter::execLeaf(const Node& node, const Operands& in,
                          std::span<RtValue> out) const {
  const OpKind kind = node.kind();
  const auto& attrs = node.attrs();
  const ir::OpCategory category = ir::opCategory(kind);
  // Scalar ops compute their value from metadata alone: the shared rule.
  if (category == ir::OpCategory::Scalar) {
    out[0] = analysis::scalarResult(node, in.meta());
    return;
  }
  if (category == ir::OpCategory::ViewOp) {
    out[0] = applyView(kind, node, in.tensor(0), in.meta(), 1);
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
      out[0] = applyView(static_cast<OpKind>(attrs.i("view")), node, a,
                         in.meta(), 1)
                   .clone();
      return;
    case OpKind::Assign: {
      // Donated buffers (marked by markInplaceAssigns) are written in place:
      // the new version reuses the dead old version's storage.
      Tensor result = attrs.bOr("inplace", false) ? a : a.clone();
      applyView(static_cast<OpKind>(attrs.i("view")), node, result, in.meta(),
                2)
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
