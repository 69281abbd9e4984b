#include "src/texpr/texpr.h"

#include <algorithm>
#include <cmath>

#include "src/runtime/thread_pool.h"
#include "src/tensor/shape.h"
#include "src/texpr/codegen.h"
#include "src/texpr/jit.h"

namespace tssa::texpr {

using ir::Block;
using ir::Node;
using ir::OpKind;
using ir::Value;
using runtime::RtValue;

namespace {

OpKind viewRuleOf(const Node& node) {
  return static_cast<OpKind>(node.attrs().i("view"));
}

bool supportedViewRule(OpKind rule, bool forAssign) {
  switch (rule) {
    case OpKind::Identity:
    case OpKind::Select:
    case OpKind::Slice:
    case OpKind::Transpose:
    case OpKind::Permute:
    case OpKind::Squeeze:
    case OpKind::Unsqueeze:
    case OpKind::Reshape:
    case OpKind::Flatten:
      return true;
    case OpKind::Expand:
      // Assign-through-expand writes one output element from several source
      // elements (iteration-order dependent): interpreter only.
      return !forAssign;
    default:
      return false;
  }
}

/// Rounds a double to the value a tensor of `dtype` would store.
double roundTo(DType dtype, double v) {
  switch (dtype) {
    case DType::Float32:
      return static_cast<double>(static_cast<float>(v));
    case DType::Int64:
      return static_cast<double>(static_cast<std::int64_t>(v));
    case DType::Bool:
      return v != 0.0 ? 1.0 : 0.0;
  }
  return v;
}

/// Trailing-dimension broadcast alignment: coordinate of an operand with
/// `shape` corresponding to output coordinate `coord`.
Shape alignCoord(std::span<const std::int64_t> coord,
                 std::span<const std::int64_t> shape) {
  Shape out(shape.size());
  for (std::size_t i = 0; i < shape.size(); ++i) {
    const std::size_t od = coord.size() - shape.size() + i;
    out[i] = shape[i] == 1 ? 0 : coord[od];
  }
  return out;
}

std::int64_t linearize(std::span<const std::int64_t> coord,
                       std::span<const std::int64_t> shape) {
  std::int64_t lin = 0;
  for (std::size_t i = 0; i < shape.size(); ++i) lin = lin * shape[i] + coord[i];
  return lin;
}

Shape delinearize(std::int64_t lin, std::span<const std::int64_t> shape) {
  Shape coord(shape.size());
  for (std::size_t i = shape.size(); i-- > 0;) {
    coord[i] = lin % shape[i];
    lin /= shape[i];
  }
  return coord;
}

}  // namespace

// ---- Per-run binding ---------------------------------------------------------------

struct Kernel::Binding {
  std::span<const RtValue> inputs;
  BodyMeta meta;
  /// View shape of each Assign through Reshape/Flatten, resolved once per
  /// run instead of once per evaluated element.
  std::unordered_map<const Node*, Shape> assignViews;

  const Shape& shapeOf(const Value* v) const {
    return meta.tensors.at(v).sizes;
  }
  DType dtypeOf(const Value* v) const { return meta.tensors.at(v).dtype; }
  Scalar scalarOf(const Value* v) const { return meta.scalars.at(v); }
};

// ---- Support check -------------------------------------------------------------------

bool Kernel::supports(const Block& body) {
  for (const Node* node : body) {
    if (node->numBlocks() != 0) return false;
    switch (ir::opCategory(node->kind())) {
      case ir::OpCategory::EwiseUnary:
      case ir::OpCategory::EwiseBinary:
      case ir::OpCategory::EwiseTernary:
        break;
      case ir::OpCategory::Immut:
        // Dynamic-extent view rules ("dyn" marker: sizes bound from scalar
        // operands at run time) stay on the per-node interpreter path —
        // the coordinate maps below read "sizes" as static (-1 means infer
        // there).
        if (node->attrs().has("dyn")) return false;
        if (node->kind() == OpKind::Access) {
          if (!supportedViewRule(viewRuleOf(*node), /*forAssign=*/false))
            return false;
        } else if (node->kind() == OpKind::Assign) {
          if (!supportedViewRule(viewRuleOf(*node), /*forAssign=*/true))
            return false;
        } else {
          return false;
        }
        break;
      default:
        return false;
    }
  }
  return true;
}

Kernel::Kernel(const Block& body, bool allowJit) : body_(body) {
  TSSA_CHECK(supports(body), "unsupported fusion body for texpr");
  if (allowJit && jit::jitEnabled())
    gen_ = std::make_unique<codegen::Generator>(body);
}

Kernel::~Kernel() = default;

// ---- Shape/dtype inference ---------------------------------------------------------------

Kernel::BodyMeta Kernel::infer(const Block& body,
                               std::span<const analysis::Operand> params) {
  TSSA_CHECK(params.size() == body.numParams(),
             "texpr body expects " << body.numParams() << " params");
  BodyMeta m;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].isTensor()) {
      m.tensors[body.param(i)] = params[i].meta();
    } else if (params[i].isScalar()) {
      m.scalars[body.param(i)] = params[i].scalar();
    }
  }
  std::vector<analysis::Operand> in;
  for (const Node* node : body) {
    in.clear();
    for (const Value* v : node->inputs()) {
      if (auto t = m.tensors.find(v); t != m.tensors.end()) {
        in.push_back(analysis::Operand::tensor(t->second));
      } else if (auto s = m.scalars.find(v); s != m.scalars.end()) {
        in.push_back(analysis::Operand::scalar(s->second));
      } else {
        in.emplace_back();  // defined outside the body: the rule rejects it
      }
    }
    analysis::CostValue out;
    analysis::inferOutputs(*node, in, std::span(&out, 1));
    const analysis::TensorMeta& meta =
        m.tensors[node->output(0)] = out.tensorMeta();
    // One flop per produced element per op; donated assigns save traffic.
    m.stats.flops += meta.numel();
    const analysis::Operand result = analysis::Operand::tensor(meta);
    m.stats.savedBytes +=
        analysis::chargeOf(*node, in, std::span(&result, 1)).savedBytes;
  }
  return m;
}

namespace {

/// For an Access: the base coordinate that view coordinate `coord` reads.
Shape accessBaseCoord(const Node& node, OpKind rule,
                      std::span<const std::int64_t> coord, const Shape& base,
                      std::size_t operandStart, const Kernel::Binding& b) {
  const auto& attrs = node.attrs();
  auto dynInt = [&](std::size_t i) {
    return b.scalarOf(node.input(i)).toInt();
  };
  switch (rule) {
    case OpKind::Identity:
      return Shape(coord.begin(), coord.end());
    case OpKind::Select: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      const std::int64_t idx =
          normalizeIndex(dynInt(operandStart), base[static_cast<std::size_t>(d)]);
      Shape out(coord.begin(), coord.end());
      out.insert(out.begin() + d, idx);
      return out;
    }
    case OpKind::Slice: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      std::int64_t start = dynInt(operandStart);
      std::int64_t end = dynInt(operandStart + 1);
      normalizeSliceBounds(base[static_cast<std::size_t>(d)], start, end);
      Shape out(coord.begin(), coord.end());
      out[static_cast<std::size_t>(d)] =
          start + coord[static_cast<std::size_t>(d)] * attrs.i("step");
      return out;
    }
    case OpKind::Transpose: {
      const auto d0 = static_cast<std::size_t>(normalizeDim(
          attrs.i("dim0"), static_cast<std::int64_t>(base.size())));
      const auto d1 = static_cast<std::size_t>(normalizeDim(
          attrs.i("dim1"), static_cast<std::int64_t>(base.size())));
      Shape out(coord.begin(), coord.end());
      std::swap(out[d0], out[d1]);
      return out;
    }
    case OpKind::Permute: {
      const auto& dims = attrs.ints("dims");
      const auto rank = static_cast<std::int64_t>(base.size());
      Shape out(base.size());
      for (std::size_t i = 0; i < dims.size(); ++i)
        out[static_cast<std::size_t>(normalizeDim(dims[i], rank))] = coord[i];
      return out;
    }
    case OpKind::Squeeze: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      Shape out(coord.begin(), coord.end());
      out.insert(out.begin() + d, 0);
      return out;
    }
    case OpKind::Unsqueeze: {
      const std::int64_t rank = static_cast<std::int64_t>(base.size());
      std::int64_t d = attrs.i("dim");
      if (d < 0) d += rank + 1;
      Shape out(coord.begin(), coord.end());
      out.erase(out.begin() + d);
      return out;
    }
    case OpKind::Reshape:
    case OpKind::Flatten:
      return delinearize(linearize(coord, b.shapeOf(node.output(0))), base);
    case OpKind::Expand: {
      Shape out(base.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        const std::size_t vd = coord.size() - base.size() + i;
        out[i] = base[i] == 1 ? 0 : coord[vd];
      }
      return out;
    }
    default:
      TSSA_THROW("unsupported view rule in texpr: " << opName(rule));
  }
}

/// For an Assign: whether base coordinate `coord` lies in the written view
/// region; if so, `viewCoord` receives the view-space coordinate.
bool assignCovers(const Node& node, OpKind rule,
                  std::span<const std::int64_t> coord, const Shape& base,
                  const Kernel::Binding& b, Shape& viewCoord) {
  const auto& attrs = node.attrs();
  auto dynInt = [&](std::size_t i) {
    return b.scalarOf(node.input(i)).toInt();
  };
  switch (rule) {
    case OpKind::Identity:
      viewCoord.assign(coord.begin(), coord.end());
      return true;
    case OpKind::Select: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      const std::int64_t idx =
          normalizeIndex(dynInt(2), base[static_cast<std::size_t>(d)]);
      if (coord[static_cast<std::size_t>(d)] != idx) return false;
      viewCoord.assign(coord.begin(), coord.end());
      viewCoord.erase(viewCoord.begin() + d);
      return true;
    }
    case OpKind::Slice: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      std::int64_t start = dynInt(2);
      std::int64_t end = dynInt(3);
      normalizeSliceBounds(base[static_cast<std::size_t>(d)], start, end);
      const std::int64_t step = attrs.i("step");
      const std::int64_t c = coord[static_cast<std::size_t>(d)];
      if (c < start || c >= end || (c - start) % step != 0) return false;
      viewCoord.assign(coord.begin(), coord.end());
      viewCoord[static_cast<std::size_t>(d)] = (c - start) / step;
      return true;
    }
    case OpKind::Transpose: {
      const auto d0 = static_cast<std::size_t>(normalizeDim(
          attrs.i("dim0"), static_cast<std::int64_t>(base.size())));
      const auto d1 = static_cast<std::size_t>(normalizeDim(
          attrs.i("dim1"), static_cast<std::int64_t>(base.size())));
      viewCoord.assign(coord.begin(), coord.end());
      std::swap(viewCoord[d0], viewCoord[d1]);
      return true;
    }
    case OpKind::Permute: {
      const auto& dims = attrs.ints("dims");
      const auto rank = static_cast<std::int64_t>(base.size());
      viewCoord.resize(base.size());
      for (std::size_t i = 0; i < dims.size(); ++i)
        viewCoord[i] =
            coord[static_cast<std::size_t>(normalizeDim(dims[i], rank))];
      return true;
    }
    case OpKind::Squeeze: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      viewCoord.assign(coord.begin(), coord.end());
      viewCoord.erase(viewCoord.begin() + d);
      return true;
    }
    case OpKind::Unsqueeze: {
      const std::int64_t rank = static_cast<std::int64_t>(base.size());
      std::int64_t d = attrs.i("dim");
      if (d < 0) d += rank + 1;
      viewCoord.assign(coord.begin(), coord.end());
      viewCoord.insert(viewCoord.begin() + d, 0);
      return true;
    }
    case OpKind::Reshape:
    case OpKind::Flatten:
      viewCoord =
          delinearize(linearize(coord, base), b.assignViews.at(&node));
      return true;
    default:
      TSSA_THROW("unsupported assign rule in texpr: " << opName(rule));
  }
}

}  // namespace

// ---- Element evaluation --------------------------------------------------------------------

double Kernel::evalAt(const Value* v, std::span<const std::int64_t> coord,
                      const Binding& b) const {
  const Node* def = v->definingNode();
  if (def == nullptr) {
    // Body parameter: read the bound tensor.
    const RtValue& in = b.inputs[v->defIndex()];
    return in.tensor().scalarAt(coord);
  }
  const auto& attrs = def->attrs();
  auto operand = [&](std::size_t i) -> double {
    const Value* o = def->input(i);
    Shape oc = alignCoord(coord, b.shapeOf(o));
    return evalAt(o, oc, b);
  };
  auto finish = [&](double x) { return roundTo(b.dtypeOf(v), x); };

  switch (def->kind()) {
    case OpKind::Add: return finish(operand(0) + operand(1));
    case OpKind::Sub: return finish(operand(0) - operand(1));
    case OpKind::Mul: return finish(operand(0) * operand(1));
    case OpKind::Div: return finish(operand(0) / operand(1));
    case OpKind::Pow: return finish(std::pow(operand(0), operand(1)));
    case OpKind::Minimum: return finish(std::min(operand(0), operand(1)));
    case OpKind::Maximum: return finish(std::max(operand(0), operand(1)));
    case OpKind::Eq: return operand(0) == operand(1) ? 1.0 : 0.0;
    case OpKind::Ne: return operand(0) != operand(1) ? 1.0 : 0.0;
    case OpKind::Lt: return operand(0) < operand(1) ? 1.0 : 0.0;
    case OpKind::Le: return operand(0) <= operand(1) ? 1.0 : 0.0;
    case OpKind::Gt: return operand(0) > operand(1) ? 1.0 : 0.0;
    case OpKind::Ge: return operand(0) >= operand(1) ? 1.0 : 0.0;
    case OpKind::LogicalAnd:
      return operand(0) != 0.0 && operand(1) != 0.0 ? 1.0 : 0.0;
    case OpKind::LogicalOr:
      return operand(0) != 0.0 || operand(1) != 0.0 ? 1.0 : 0.0;
    case OpKind::LogicalNot: return operand(0) == 0.0 ? 1.0 : 0.0;
    case OpKind::Neg: return finish(-operand(0));
    case OpKind::Exp: return finish(std::exp(operand(0)));
    case OpKind::Log: return finish(std::log(operand(0)));
    case OpKind::Sqrt: return finish(std::sqrt(operand(0)));
    case OpKind::Abs: return finish(std::abs(operand(0)));
    case OpKind::Sigmoid:
      return finish(1.0 / (1.0 + std::exp(-operand(0))));
    case OpKind::Tanh: return finish(std::tanh(operand(0)));
    case OpKind::Relu: {
      const double x = operand(0);
      return finish(x > 0 ? x : 0.0);
    }
    case OpKind::Clamp:
      return finish(std::clamp(operand(0), attrs.f("lo"), attrs.f("hi")));
    case OpKind::Cast: return finish(operand(0));
    case OpKind::Where:
      return finish(operand(0) != 0.0 ? operand(1) : operand(2));
    case OpKind::MaskedFill:
      return finish(operand(1) != 0.0 ? b.scalarOf(def->input(2)).toDouble()
                                      : operand(0));
    case OpKind::Access: {
      const Value* base = def->input(0);
      const OpKind rule = viewRuleOf(*def);
      Shape bc = accessBaseCoord(*def, rule, coord, b.shapeOf(base), 1, b);
      return evalAt(base, bc, b);
    }
    case OpKind::Assign: {
      const Value* base = def->input(0);
      const Value* src = def->input(1);
      const OpKind rule = viewRuleOf(*def);
      Shape viewCoord;
      if (assignCovers(*def, rule, coord, b.shapeOf(base), b, viewCoord)) {
        Shape sc = alignCoord(viewCoord, b.shapeOf(src));
        return finish(evalAt(src, sc, b));
      }
      return evalAt(base, coord, b);
    }
    default:
      TSSA_THROW("texpr: unexpected op " << opName(def->kind()));
  }
}

// ---- Entry -------------------------------------------------------------------------------------

namespace {

/// Elements below this count are not worth a trip through the pool.
constexpr std::int64_t kMinParallelElems = 1024;

/// The tensor's base element pointer (storage offset applied), type-erased
/// for the JIT ABI.
void* rawDataOf(const Tensor& t) {
  auto& mt = const_cast<Tensor&>(t);
  switch (t.dtype()) {
    case DType::Float32: return mt.data<float>();
    case DType::Int64: return mt.data<std::int64_t>();
    case DType::Bool: return mt.data<std::uint8_t>();
  }
  return nullptr;
}

}  // namespace

bool Kernel::tryRunJit(std::span<const RtValue> inputs, const Binding& b,
                       std::vector<RtValue>& outputs, int threads) const {
  using codegen::Decline;
  if (gen_ == nullptr) return false;
  jit::KernelCache& cache = jit::KernelCache::instance();
  if (gen_->structuralDecline() != Decline::None) {
    cache.recordDecline(gen_->structuralDecline());
    return false;
  }

  std::vector<codegen::InputSig> sig(body_.numParams());
  for (std::size_t i = 0; i < body_.numParams(); ++i) {
    const RtValue& in = inputs[i];
    if (in.isTensor()) {
      const Tensor& t = in.tensor();
      sig[i].isTensor = true;
      sig[i].dtype = t.dtype();
      sig[i].rank = static_cast<int>(t.dim());
      sig[i].contiguous = t.isContiguous();
    } else if (!in.isScalar()) {
      cache.recordDecline(Decline::Op);
      return false;
    }
  }

  const std::string key = gen_->cacheKey(sig);
  std::shared_ptr<jit::CompiledKernel> kernel;
  bool memoized = false;
  {
    std::lock_guard<std::mutex> lock(jitMutex_);
    auto it = jitMemo_.find(key);
    if (it != jitMemo_.end()) {
      kernel = it->second;
      memoized = true;
    }
  }
  if (memoized) {
    if (kernel == nullptr) {
      cache.recordDecline(Decline::Toolchain);
      return false;
    }
    cache.recordHit();
  } else {
    const Decline reason = gen_->declineFor(sig);
    if (reason != Decline::None) {
      cache.recordDecline(reason);
      return false;
    }
    kernel = cache.getOrCompile(key, [&] { return gen_->emitSource(sig); });
    {
      std::lock_guard<std::mutex> lock(jitMutex_);
      jitMemo_[key] = kernel;
    }
    if (kernel == nullptr) {
      cache.recordDecline(Decline::Toolchain);
      return false;
    }
  }

  // Select indices are validated here because the generated code cannot
  // throw: an out-of-range index falls back to the interpreter, which
  // raises the identical tssa::Error.
  for (const codegen::SelectGuard& guard : gen_->selectGuards()) {
    const Shape& baseShape = b.shapeOf(guard.base);
    const std::int64_t rank = static_cast<std::int64_t>(baseShape.size());
    std::int64_t d = guard.dim < 0 ? guard.dim + rank : guard.dim;
    if (d < 0 || d >= rank) return false;
    const std::int64_t extent = baseShape[static_cast<std::size_t>(d)];
    std::int64_t idx = b.scalarOf(guard.indexParam).toInt();
    if (idx < 0) idx += extent;
    if (idx < 0 || idx >= extent) return false;
  }

  // Dispatch tables: per-slot shape extents, per-param buffers, scalars.
  const auto slotVals = gen_->slotValues();
  std::vector<const std::int64_t*> shapes(slotVals.size(), nullptr);
  for (std::size_t s = 0; s < slotVals.size(); ++s) {
    auto it = b.meta.tensors.find(slotVals[s]);
    if (it != b.meta.tensors.end()) shapes[s] = it->second.sizes.data();
  }
  std::vector<jit::JitBuffer> ins(body_.numParams());
  std::vector<double> scalars(body_.numParams(), 0.0);
  for (std::size_t i = 0; i < body_.numParams(); ++i) {
    const RtValue& in = inputs[i];
    if (in.isTensor()) {
      const Tensor& t = in.tensor();
      ins[i].data = rawDataOf(t);
      ins[i].sizes = t.sizes().data();
      ins[i].strides = t.strides().data();
      if (ins[i].data == nullptr) return false;
    } else {
      scalars[i] = in.scalar().toDouble();
    }
  }

  // The linear fast loop was emitted only for all-contiguous signatures of
  // pure elementwise bodies; it is valid at run time only when every tensor
  // input additionally has exactly the output's shape (no broadcasting).
  bool emittedFast = gen_->fastPathEligible();
  for (const codegen::InputSig& s : sig)
    if (s.isTensor && !s.contiguous) emittedFast = false;

  jit::EntryFn entry = kernel->entry();
  outputs.reserve(body_.numReturns());
  std::int32_t outIndex = 0;
  for (const Value* r : body_.returns()) {
    Tensor out = Tensor::empty(b.shapeOf(r), b.dtypeOf(r));
    const std::int64_t numel = out.numel();
    std::int32_t flags = 0;
    if (emittedFast) {
      bool linear = true;
      for (std::size_t i = 0; i < body_.numParams(); ++i) {
        if (inputs[i].isTensor() &&
            inputs[i].tensor().sizes() != out.sizes())
          linear = false;
      }
      if (linear) flags = 1;
    }
    jit::JitBuffer ob{rawDataOf(out), out.sizes().data(),
                      out.strides().data()};
    if (threads > 1 && numel >= kMinParallelElems) {
      runtime::ThreadPool::shared().parallelFor(
          numel, threads,
          [&](std::int64_t begin, std::int64_t end, int /*chunk*/) {
            entry(ins.data(), &ob, shapes.data(), scalars.data(), outIndex,
                  begin, end, flags);
          });
    } else {
      entry(ins.data(), &ob, shapes.data(), scalars.data(), outIndex, 0,
            numel, flags);
    }
    outputs.emplace_back(std::move(out));
    ++outIndex;
  }
  return true;
}

std::vector<RtValue> Kernel::run(std::span<const RtValue> inputs,
                                 RunStats* stats, int threads) const {
  TSSA_CHECK(inputs.size() == body_.numParams(),
             "texpr kernel expects " << body_.numParams() << " inputs");
  std::vector<analysis::Operand> params;
  params.reserve(inputs.size());
  for (const RtValue& in : inputs) params.push_back(analysis::operandOf(in));
  Binding b{inputs, infer(body_, params), {}};
  if (stats != nullptr) {
    stats->flops += b.meta.stats.flops;
    stats->savedBytes += b.meta.stats.savedBytes;
  }

  std::vector<RtValue> outputs;
  if (tryRunJit(inputs, b, outputs, threads)) return outputs;
  for (const Node* node : body_) {
    const OpKind rule = node->kind() == OpKind::Assign ? viewRuleOf(*node)
                                                       : OpKind::Identity;
    if (rule != OpKind::Reshape && rule != OpKind::Flatten) continue;
    // Static view rules only ("dyn" bodies stay off texpr): no operands.
    b.assignViews[node] =
        analysis::viewMeta(rule, *node,
                           analysis::Operand::tensor(
                               b.meta.tensors.at(node->input(0))),
                           {}, 2)
            .sizes;
  }
  outputs.reserve(body_.numReturns());
  for (const Value* r : body_.returns()) {
    Tensor out = Tensor::empty(b.shapeOf(r), b.dtypeOf(r));
    const std::int64_t numel = out.numel();
    if (threads > 1 && numel >= kMinParallelElems) {
      // Each chunk writes a disjoint contiguous range of the fresh output;
      // evalAt reads only the immutable Binding and input tensors.
      runtime::ThreadPool::shared().parallelFor(
          numel, threads,
          [&](std::int64_t begin, std::int64_t end, int /*chunk*/) {
            Shape coord = delinearize(begin, out.sizes());
            for (std::int64_t lin = begin; lin < end; ++lin) {
              out.setScalarAt(coord, evalAt(r, coord, b));
              for (std::int64_t d =
                       static_cast<std::int64_t>(coord.size()) - 1;
                   d >= 0; --d) {
                const auto ud = static_cast<std::size_t>(d);
                if (++coord[ud] < out.sizes()[ud]) break;
                coord[ud] = 0;
              }
            }
          });
    } else {
      for (IndexIterator it(out.sizes()); it.valid(); it.next())
        out.setScalarAt(it.index(), evalAt(r, it.index(), b));
    }
    outputs.emplace_back(std::move(out));
  }
  return outputs;
}

}  // namespace tssa::texpr
