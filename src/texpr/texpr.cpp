#include "src/texpr/texpr.h"

#include "src/runtime/thread_pool.h"
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

}  // namespace

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
        // the generated coordinate maps read "sizes" as static (-1 means
        // infer there).
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

Kernel::Kernel(const Block& body) : body_(body) {
  TSSA_CHECK(supports(body), "unsupported fusion body for texpr");
  gen_ = std::make_unique<codegen::Generator>(body);
}

Kernel::~Kernel() = default;

// ---- Shape/dtype inference ---------------------------------------------------------------

Kernel::BodyMeta Kernel::infer(const Block& body,
                               std::span<const analysis::Operand> params) {
  BodyMeta m;
  static_cast<analysis::BodyValues&>(m) = analysis::inferBody(body, params);
  std::vector<analysis::Operand> in;
  for (const Node* node : body) {
    in.clear();
    for (const Value* v : node->inputs()) in.push_back(m.operandOf(v));
    const analysis::TensorMeta& meta = m.tensors.at(node->output(0));
    // One flop per produced element per op; donated assigns save traffic.
    m.stats.flops += meta.numel();
    const analysis::Operand result = analysis::Operand::tensor(meta);
    m.stats.savedBytes +=
        analysis::chargeOf(*node, in, std::span(&result, 1)).savedBytes;
  }
  return m;
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

std::shared_ptr<jit::CompiledKernel> Kernel::compiled(
    std::span<const codegen::InputSig> sig) const {
  using codegen::Decline;
  jit::KernelCache& cache = jit::KernelCache::instance();
  if (gen_->structuralDecline() != Decline::None) {
    cache.recordDecline(gen_->structuralDecline());
    return nullptr;
  }
  const std::string key = gen_->cacheKey(sig);
  {
    std::lock_guard<std::mutex> lock(jitMutex_);
    if (auto it = jitMemo_.find(key); it != jitMemo_.end()) {
      if (it->second == nullptr) {
        cache.recordDecline(Decline::Toolchain);
      } else {
        cache.recordHit();
      }
      return it->second;
    }
  }
  const Decline reason = gen_->declineFor(sig);
  if (reason != Decline::None) {
    cache.recordDecline(reason);
    return nullptr;
  }
  std::shared_ptr<jit::CompiledKernel> kernel =
      cache.getOrCompile(key, [&] { return gen_->emitSource(sig); });
  {
    std::lock_guard<std::mutex> lock(jitMutex_);
    jitMemo_[key] = kernel;
  }
  if (kernel == nullptr) cache.recordDecline(Decline::Toolchain);
  return kernel;
}

std::optional<std::vector<RtValue>> Kernel::run(
    std::span<const RtValue> inputs, int threads) const {
  TSSA_CHECK(inputs.size() == body_.numParams(),
             "texpr kernel expects " << body_.numParams() << " inputs");
  std::vector<analysis::Operand> params;
  params.reserve(inputs.size());
  for (const RtValue& in : inputs) params.push_back(analysis::operandOf(in));
  const BodyMeta meta = infer(body_, params);

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
      jit::KernelCache::instance().recordDecline(codegen::Decline::Op);
      return std::nullopt;
    }
  }
  const std::shared_ptr<jit::CompiledKernel> kernel = compiled(sig);
  if (kernel == nullptr) return std::nullopt;

  // Select indices are validated here because the generated code cannot
  // throw: an out-of-range index declines, and the interpreted body raises
  // the tssa::Error.
  for (const codegen::SelectGuard& guard : gen_->selectGuards()) {
    const Shape& baseShape = meta.tensors.at(guard.base).sizes;
    const std::int64_t rank = static_cast<std::int64_t>(baseShape.size());
    std::int64_t d = guard.dim < 0 ? guard.dim + rank : guard.dim;
    if (d < 0 || d >= rank) return std::nullopt;
    const std::int64_t extent = baseShape[static_cast<std::size_t>(d)];
    std::int64_t idx = meta.scalars.at(guard.indexParam).toInt();
    if (idx < 0) idx += extent;
    if (idx < 0 || idx >= extent) return std::nullopt;
  }

  // Dispatch tables: per-slot shape extents, per-param buffers, scalars.
  const auto slotVals = gen_->slotValues();
  std::vector<const std::int64_t*> shapes(slotVals.size(), nullptr);
  for (std::size_t s = 0; s < slotVals.size(); ++s) {
    auto it = meta.tensors.find(slotVals[s]);
    if (it != meta.tensors.end()) shapes[s] = it->second.sizes.data();
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
      if (ins[i].data == nullptr) return std::nullopt;
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
  std::vector<RtValue> outputs;
  outputs.reserve(body_.numReturns());
  std::int32_t outIndex = 0;
  for (const Value* r : body_.returns()) {
    const analysis::TensorMeta& rm = meta.tensors.at(r);
    Tensor out = Tensor::empty(rm.sizes, rm.dtype);
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
  return outputs;
}

}  // namespace tssa::texpr
