#include "src/runtime/interpreter.h"

#include <algorithm>
#include <array>
#include <limits>
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
  runBlockBody(*graph.topBlock(), env, /*onWorker=*/false);
  return blockReturns(*graph.topBlock(), env);
}

void Interpreter::runBlockBody(const ir::Block& block, Env& env,
                               bool onWorker) {
  for (const Node* node : block) execNode(*node, env, onWorker);
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

/// Tiles run across the pool when the widest value a tile reads or writes
/// is at least this big, whole: below it, a launch's pool round trip
/// outweighs its tiles' work.
constexpr std::int64_t kParallelGrainBytes = 4 * analysis::kTileBytes;

/// The rows a reduction kernel accumulates side by side (ops::reduceDim):
/// one row's sum is one dependency chain, in a fixed order.
constexpr std::int64_t kReductionRows = 8;

/// How many consecutive tiles one thread runs at once. Tiles keep a body's
/// working set in cache, but a tile of a reduction beside the tiled dim
/// feeds the kernel only its own rows: fewer than kReductionRows leave it
/// waiting on one chain at a time, so that a serial run of such tiles is
/// slower than the whole body. They join until they carry that many rows.
std::int64_t joinedTiles(const ir::Block& body,
                         const analysis::TilePlan& plan) {
  bool reduces = false;
  std::size_t k = 0;
  for (const Node* n : body)
    reduces |= plan.nodes[k++].tiled &&
               ir::opCategory(n->kind()) == ir::OpCategory::Reduction;
  if (!reduces) return 1;
  std::int64_t extent = std::numeric_limits<std::int64_t>::max();
  for (const analysis::TilePlan::Cut& cut : plan.params)
    if (cut.dim >= 0) extent = std::min(extent, cut.extent);
  return std::min(plan.tiles,
                  (kReductionRows * plan.tiles + extent - 1) / extent);
}

}  // namespace

std::shared_ptr<const analysis::TilePlan> Interpreter::tilePlanFor(
    const Node& node, std::span<const RtValue> in) {
  // Bodies whose params all fit one tile run whole without planning: the
  // small loop-body cells.
  std::int64_t widest = 0;
  for (const RtValue& v : in) {
    if (!v.isTensor()) continue;
    const Tensor& t = v.tensor();
    widest = std::max<std::int64_t>(
        widest, t.numel() * static_cast<std::int64_t>(dtypeSize(t.dtype())));
  }
  if (widest <= analysis::kTileBytes) return nullptr;

  // A select index changes no shape: keyed and planned as 0, every loop
  // step that selects by the induction variable shares one plan.
  const ir::Block& body = *node.block(0);
  std::vector<RtValue> keyed(in.begin(), in.end());
  for (std::size_t i = 0; i < keyed.size(); ++i)
    if (analysis::isSelectIndex(*body.param(i)))
      keyed[i] = Scalar(std::int64_t{0});
  std::vector<std::int64_t> sig = signatureOf(keyed);
  // Planning holds the lock: ParallelMap workers that launch the same body
  // wait for its one plan rather than each computing it.
  std::lock_guard<std::mutex> lock(tilePlansMutex_);
  TilePlans& plans = tilePlans_[&node];
  for (const auto& [key, plan] : plans.entries)
    if (key == sig) return plan;
  obs::TraceSpan span("exec", "TilePlan");
  std::vector<analysis::Operand> params;
  params.reserve(keyed.size());
  for (const RtValue& v : keyed) params.push_back(analysis::operandOf(v));
  std::shared_ptr<const analysis::TilePlan> plan;
  if (auto p = analysis::planTiles(body, params))
    plan = std::make_shared<const analysis::TilePlan>(std::move(*p));
  span.arg("tiles", plan ? plan->tiles : std::int64_t{1});
  if (plans.entries.size() < kTilePlansPerNode) {
    plans.entries.emplace_back(std::move(sig), plan);
  } else {
    plans.entries[plans.next] = {std::move(sig), plan};
    plans.next = (plans.next + 1) % kTilePlansPerNode;
  }
  return plan;
}

int Interpreter::runTiled(const Node& node, const analysis::TilePlan& plan,
                          std::span<const RtValue> in, bool onWorker,
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
    if (!plan.nodes[k++].tiled) execNode(*n, shared, onWorker);

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
      threads_ > 1 && !onWorker && plan.widestBytes >= kParallelGrainBytes
          ? static_cast<int>(std::min<std::int64_t>(threads_, plan.tiles))
          : 1;
  // Tiles [begin, end) on one thread, consecutive ones joined by the span.
  const std::int64_t span = joinedTiles(body, plan);
  auto runTiles = [&](std::int64_t begin, std::int64_t end) {
    Env env;
    for (std::int64_t t = begin; t < end; t += span)
      runTile(body, plan, t, std::min(t + span, end), in, shared, rets, env);
  };
  if (workers == 1) {
    runTiles(0, plan.tiles);
    return workers;
  }
  ThreadPool::shared().parallelFor(
      plan.tiles, workers,
      [&](std::int64_t begin, std::int64_t end, int) { runTiles(begin, end); });
  return workers;
}

void Interpreter::runTile(const ir::Block& body,
                          const analysis::TilePlan& plan, std::int64_t first,
                          std::int64_t last, std::span<const RtValue> in,
                          const Env& shared, std::span<RtValue> rets,
                          Env& env) {
  // Rebinding drops the previous tile's values, so their buffers are freed
  // before this tile allocates.
  env = shared;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const analysis::TilePlan::Cut& cut = plan.params[i];
    if (cut.dim < 0) continue;
    const auto [begin, end] = plan.rows(cut.extent, first, last);
    env[body.param(i)] = in[i].tensor().narrow(cut.dim, begin, end - begin);
  }
  std::size_t k = 0;
  for (const Node* node : body) {
    const analysis::TilePlan::NodeStep& step = plan.nodes[k++];
    if (!step.tiled) continue;
    analysis::SizesPatch patch;
    if (step.view.dim >= 0) {
      const auto [begin, end] = plan.rows(step.view.extent, first, last);
      patch = {step.view.dim, end - begin};
    }
    RtValue out;
    execLeaf(*node, Operands(*node, env, *this), std::span(&out, 1), patch);
    env[node->output(0)] = std::move(out);
  }
  for (std::size_t r = 0; r < rets.size(); ++r) {
    const analysis::TilePlan::Result& result = plan.returns[r];
    if (result.cut.dim < 0 || result.param >= 0) continue;
    const auto [begin, end] = plan.rows(result.cut.extent, first, last);
    std::as_const(rets[r])
        .tensor()
        .narrow(result.cut.dim, begin, end - begin)
        .copy_(get(body.returns()[r], env).tensor());
  }
}

// ---- Loops ----------------------------------------------------------------------------------

void Interpreter::runIterations(const ir::Block& body, std::int64_t trip,
                                std::vector<RtValue>& carried, Env& env,
                                bool onWorker) {
  // Each iteration's bindings replace the previous one's, which drops its
  // values.
  for (std::int64_t it = 0; it < trip; ++it) {
    env[body.param(0)] = Scalar(it);
    for (std::size_t i = 0; i < carried.size(); ++i)
      env[body.param(i + 1)] = std::move(carried[i]);
    runBlockBody(body, env, onWorker);
    carried = blockReturns(body, env);
  }
}

// ---- Threaded ParallelMap ----------------------------------------------------------------

bool Interpreter::tryParallelMap(const Node& node, Env& env, bool onWorker,
                                 std::int64_t trip,
                                 const std::vector<RtValue>& carried) {
  // Preconditions: a worker budget, top-level context (a ParallelMap cannot
  // nest inside another one's body, but be defensive), and the converting
  // pass's independence proof attached as metadata.
  if (threads_ <= 1 || trip <= 1 || onWorker) return false;
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
        for (std::int64_t it = begin; it < end; ++it) {
          wenv[body.param(0)] = Scalar(it);
          for (std::size_t k = 0; k < carried.size(); ++k)
            wenv[body.param(k + 1)] = carried[k];
          runBlockBody(body, wenv, /*onWorker=*/true);
          std::vector<RtValue> rets = blockReturns(body, wenv);
          for (std::size_t k = 0; k < carried.size(); ++k) {
            if (dims[k] < 0) continue;
            // This iteration owns slice `it` exclusively — lock-free write.
            Tensor dst = outs[k].tensor().select(dims[k], it);
            dst.copy_(rets[k].tensor().select(dims[k], it));
          }
        }
      });

  for (std::size_t k = 0; k < outs.size(); ++k)
    env[node.output(k)] = std::move(outs[k]);
  return true;
}

// ---- Node execution ----------------------------------------------------------------------

void Interpreter::execNode(const Node& node, Env& env, bool onWorker) {
  auto bindOut = [&](std::size_t i, RtValue v) {
    env[node.output(i)] = std::move(v);
  };

  switch (node.kind()) {
    case OpKind::If: {
      const bool cond = get(node.input(0), env).scalar().toBool();
      const ir::Block& block = *node.block(cond ? 0 : 1);
      runBlockBody(block, env, onWorker);
      auto rets = blockReturns(block, env);
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
        runIterations(*node.block(0), trip, carried, env, onWorker);
      } else {
        // Semantics of Loop, modelled as one batched kernel per kernel
        // position: the horizontal parallelization result (§4.2.2).
        // Iterations are independent by construction (the pass proved it),
        // so the threaded engine really runs them concurrently; without
        // metadata or a worker budget they run as a Loop.
        obs::TraceSpan span("exec", "ParallelMap");
        span.arg("trip", trip);
        const bool threaded =
            tryParallelMap(node, env, onWorker, trip, carried);
        span.arg("threaded", std::int64_t{threaded ? 1 : 0});
        if (threaded) {
          span.arg("workers", static_cast<std::int64_t>(
                                  std::min<std::int64_t>(threads_, trip)));
          return;
        }
        runIterations(*node.block(0), trip, carried, env, onWorker);
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
              plan ? runTiled(node, *plan, groupInputs, onWorker, rets) : 0) {
        span.arg("backend", "tiled");
        span.arg("tiles", plan->tiles);
        span.arg("workers", static_cast<std::int64_t>(workers));
      } else {
        span.arg("backend", "interp");
        span.arg("tiles", std::int64_t{1});
        span.arg("workers", std::int64_t{1});
        for (std::size_t i = 0; i < node.numInputs(); ++i)
          env[body.param(i)] = groupInputs[i];
        runBlockBody(body, env, onWorker);
        rets = blockReturns(body, env);
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
