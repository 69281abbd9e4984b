#include "src/analysis/op_rules.h"

#include <algorithm>
#include <string>

#include "src/support/error.h"

namespace tssa::analysis {

using ir::Node;
using ir::OpKind;

// ---- Values and operands ----------------------------------------------------

const TensorMeta& CostValue::tensorMeta() const {
  const TensorMeta* t = std::get_if<TensorMeta>(&value_);
  TSSA_CHECK(t != nullptr, "cost value is not a tensor");
  return *t;
}

Scalar CostValue::scalarValue() const {
  const Scalar* s = std::get_if<Scalar>(&value_);
  TSSA_CHECK(s != nullptr, "cost value is not a known scalar");
  return *s;
}

const std::vector<TensorMeta>& CostValue::listMeta() const {
  const auto* l = std::get_if<std::vector<TensorMeta>>(&value_);
  TSSA_CHECK(l != nullptr, "cost value is not a tensor list");
  return *l;
}

Operand CostValue::operand() const {
  if (const auto* t = std::get_if<TensorMeta>(&value_))
    return Operand::tensor(*t);
  if (const auto* s = std::get_if<Scalar>(&value_)) return Operand::scalar(*s);
  if (const auto* l = std::get_if<std::vector<TensorMeta>>(&value_))
    return Operand::list(*l);
  return Operand();
}

std::span<const std::int64_t> Operand::sizes() const {
  TSSA_CHECK(kind_ == Kind::Tensor, "operand is not a known tensor");
  return sizes_;
}

DType Operand::dtype() const {
  TSSA_CHECK(kind_ == Kind::Tensor, "operand is not a known tensor");
  return dtype_;
}

Scalar Operand::scalar() const {
  TSSA_CHECK(kind_ == Kind::Scalar, "operand is not a known scalar");
  return scalar_;
}

std::span<const TensorMeta> Operand::list() const {
  TSSA_CHECK(kind_ == Kind::List, "operand is not a known tensor list");
  return list_;
}

Operand operandOf(const runtime::RtValue& v) {
  if (v.isTensor()) {
    const Tensor& t = v.tensor();
    return t.defined() ? Operand::tensor(t.sizes(), t.dtype()) : Operand();
  }
  if (v.isScalar()) return Operand::scalar(v.scalar());
  return Operand();
}

// ---- Output metadata --------------------------------------------------------

namespace {

std::int64_t ceilDiv(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Extent `i` of a tensor operand, range-checked.
std::int64_t extent(const Operand& t, std::size_t i) {
  const auto sizes = t.sizes();
  TSSA_CHECK(i < sizes.size(), "dimension " << i << " out of range for rank "
                                            << sizes.size());
  return sizes[i];
}

/// Tensor::view's -1 inference on metadata.
Shape inferView(std::int64_t numel, Shape sizes) {
  std::int64_t inferDim = -1;
  std::int64_t known = 1;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == -1) {
      TSSA_CHECK(inferDim == -1, "at most one -1 dimension in view");
      inferDim = static_cast<std::int64_t>(i);
    } else {
      known *= sizes[i];
    }
  }
  if (inferDim >= 0) {
    TSSA_CHECK(known != 0 && numel % known == 0,
               "cannot infer view dimension");
    sizes[static_cast<std::size_t>(inferDim)] = numel / known;
  }
  TSSA_CHECK(numelOf(sizes) == numel, "view shape has wrong element count");
  return sizes;
}

/// A reduction over `dim` of `a`: that extent drops (or becomes 1).
Shape reducedSizes(const Operand& a, std::int64_t dim, bool keep) {
  Shape sizes(a.sizes().begin(), a.sizes().end());
  const auto d = static_cast<std::size_t>(normalizeDim(dim, a.rank()));
  if (keep) {
    sizes[d] = 1;
  } else {
    sizes.erase(sizes.begin() + static_cast<std::ptrdiff_t>(d));
  }
  return sizes;
}

TensorMeta catMeta(const Node& node, std::span<const TensorMeta> list) {
  TSSA_CHECK(!list.empty(), "cat/stack of zero tensors");
  std::vector<TensorMeta> items(list.begin(), list.end());
  std::int64_t d = node.attrs().i("dim");
  if (node.kind() == OpKind::Stack) {
    const auto rank = static_cast<std::int64_t>(items[0].sizes.size());
    if (d < 0) d += rank + 1;
    TSSA_CHECK(d >= 0 && d <= rank, "stack dim out of range");
    for (TensorMeta& m : items) m.sizes.insert(m.sizes.begin() + d, 1);
  } else {
    d = normalizeDim(d, static_cast<std::int64_t>(items[0].sizes.size()));
  }
  TensorMeta out = items[0];
  std::int64_t total = 0;
  for (const TensorMeta& m : items) {
    TSSA_CHECK(m.sizes.size() == out.sizes.size(), "cat rank mismatch");
    for (std::size_t i = 0; i < m.sizes.size(); ++i) {
      if (static_cast<std::int64_t>(i) != d)
        TSSA_CHECK(m.sizes[i] == out.sizes[i], "cat shape mismatch");
    }
    total += m.sizes[static_cast<std::size_t>(d)];
    out.dtype = promoteTypes(out.dtype, m.dtype);
  }
  out.sizes[static_cast<std::size_t>(d)] = total;
  return out;
}

TensorMeta matmulMeta(const Operand& a, const Operand& b) {
  if (a.rank() == 3 && b.rank() == 3) {
    TSSA_CHECK(extent(a, 0) == extent(b, 0) && extent(a, 2) == extent(b, 1),
               "bmm dims disagree");
    return TensorMeta{{extent(a, 0), extent(a, 1), extent(b, 2)},
                      DType::Float32};
  }
  TSSA_CHECK(a.rank() == 2 && b.rank() == 2 && extent(a, 1) == extent(b, 0),
             "matmul dims disagree");
  return TensorMeta{{extent(a, 0), extent(b, 1)}, DType::Float32};
}

}  // namespace

Shape resolvedSizes(const Node& node, std::span<const Operand> in,
                    std::size_t operandStart) {
  Shape sizes = node.attrs().ints("sizes");
  if (!node.attrs().has("dyn")) return sizes;
  // Symbolic-dim graphs leave runtime extents as -1 placeholders bound from
  // trailing scalar operands, in order (IRBuilder's dynamic-size overloads).
  std::size_t k = operandStart;
  for (std::int64_t& s : sizes) {
    if (s != -1) continue;
    TSSA_CHECK(k < in.size(), "dyn sizes: missing extent operand");
    s = in[k++].scalar().toInt();
    TSSA_CHECK(s >= 0, "dyn sizes: negative runtime extent " << s);
  }
  return sizes;
}

TensorMeta viewMeta(OpKind viewKind, const Node& node, const Operand& base,
                    std::span<const Operand> in, std::size_t operandStart) {
  const auto& attrs = node.attrs();
  const std::int64_t rank = base.rank();
  TensorMeta out = base.meta();
  Shape& sizes = out.sizes;
  auto operand = [&](std::size_t i) -> const Operand& {
    TSSA_CHECK(operandStart + i < in.size(), "view: missing dynamic operand");
    return in[operandStart + i];
  };
  switch (viewKind) {
    case OpKind::Identity:
      return out;
    case OpKind::Select: {
      const std::int64_t d = normalizeDim(attrs.i("dim"), rank);
      normalizeIndex(operand(0).scalar().toInt(),
                     sizes[static_cast<std::size_t>(d)]);
      sizes.erase(sizes.begin() + d);
      return out;
    }
    case OpKind::Slice: {
      const std::int64_t d = normalizeDim(attrs.i("dim"), rank);
      const std::int64_t step = attrs.i("step");
      TSSA_CHECK(step > 0, "slice step must be positive");
      std::int64_t start = operand(0).scalar().toInt();
      std::int64_t end = operand(1).scalar().toInt();
      normalizeSliceBounds(sizes[static_cast<std::size_t>(d)], start, end);
      sizes[static_cast<std::size_t>(d)] = ceilDiv(end - start, step);
      return out;
    }
    case OpKind::Reshape:
      sizes = inferView(base.numel(), resolvedSizes(node, in, operandStart));
      return out;
    case OpKind::Permute: {
      const std::vector<std::int64_t>& dims = attrs.ints("dims");
      TSSA_CHECK(static_cast<std::int64_t>(dims.size()) == rank,
                 "permute needs one entry per dimension");
      std::vector<bool> seen(dims.size(), false);
      for (std::size_t i = 0; i < dims.size(); ++i) {
        const auto d = static_cast<std::size_t>(normalizeDim(dims[i], rank));
        TSSA_CHECK(!seen[d], "duplicate dimension in permute");
        seen[d] = true;
        sizes[i] = base.sizes()[d];
      }
      return out;
    }
    case OpKind::Transpose: {
      const std::int64_t d0 = normalizeDim(attrs.i("dim0"), rank);
      const std::int64_t d1 = normalizeDim(attrs.i("dim1"), rank);
      std::swap(sizes[static_cast<std::size_t>(d0)],
                sizes[static_cast<std::size_t>(d1)]);
      return out;
    }
    case OpKind::Expand: {
      Shape target = resolvedSizes(node, in, operandStart);
      TSSA_CHECK(broadcastableTo(base.sizes(), target),
                 "cannot expand to target shape");
      sizes = std::move(target);
      return out;
    }
    case OpKind::Squeeze: {
      const std::int64_t d = normalizeDim(attrs.i("dim"), rank);
      TSSA_CHECK(sizes[static_cast<std::size_t>(d)] == 1,
                 "squeeze of non-unit dimension");
      sizes.erase(sizes.begin() + d);
      return out;
    }
    case OpKind::Unsqueeze: {
      std::int64_t d = attrs.i("dim");
      if (d < 0) d += rank + 1;
      TSSA_CHECK(d >= 0 && d <= rank, "unsqueeze dim out of range");
      sizes.insert(sizes.begin() + d, 1);
      return out;
    }
    case OpKind::Flatten: {
      const std::int64_t s = normalizeDim(attrs.i("start_dim"), rank);
      const std::int64_t e = normalizeDim(attrs.i("end_dim"), rank);
      TSSA_CHECK(s <= e, "flatten start after end");
      std::int64_t merged = 1;
      for (std::int64_t d = s; d <= e; ++d)
        merged *= sizes[static_cast<std::size_t>(d)];
      sizes.erase(sizes.begin() + s + 1, sizes.begin() + e + 1);
      sizes[static_cast<std::size_t>(s)] = merged;
      return out;
    }
    default:
      TSSA_THROW("not a view kind: " << opName(viewKind));
  }
}

DType elementwiseDType(const Node& node, std::span<const DType> in) {
  auto operand = [&](std::size_t i) {
    TSSA_CHECK(i < in.size(), opName(node.kind()) << ": missing operand");
    return in[i];
  };
  switch (node.kind()) {
    case OpKind::Add:
    case OpKind::Sub:
    case OpKind::Mul:
    case OpKind::Minimum:
    case OpKind::Maximum:
      return promoteTypes(operand(0), operand(1));
    case OpKind::Div:
    case OpKind::Pow:
    case OpKind::Exp:
    case OpKind::Log:
    case OpKind::Sqrt:
    case OpKind::Sigmoid:
    case OpKind::Tanh:
      return DType::Float32;
    case OpKind::Eq:
    case OpKind::Ne:
    case OpKind::Lt:
    case OpKind::Le:
    case OpKind::Gt:
    case OpKind::Ge:
    case OpKind::LogicalAnd:
    case OpKind::LogicalOr:
    case OpKind::LogicalNot:
      return DType::Bool;
    case OpKind::Cast:
      return node.attrs().dtype("dtype");
    case OpKind::Where:
      return promoteTypes(operand(1), operand(2));
    case OpKind::Neg:
    case OpKind::Abs:
    case OpKind::Relu:
    case OpKind::Clamp:
    // ops::maskedFill = where(mask, full-scalar, a): the rank-0 fill is
    // created in a's dtype (or Float32 for float a), so a's dtype survives.
    case OpKind::MaskedFill:
      return operand(0);
    default:
      TSSA_THROW("not an elementwise op: " << opName(node.kind()));
  }
}

Scalar scalarResult(const Node& node, std::span<const Operand> in) {
  const OpKind kind = node.kind();
  if (kind == OpKind::SizeOf) {
    TSSA_CHECK(!in.empty(), "aten::size takes a tensor");
    const std::int64_t d = normalizeDim(node.attrs().i("dim"), in[0].rank());
    return Scalar(in[0].sizes()[static_cast<std::size_t>(d)]);
  }
  TSSA_CHECK(in.size() == 2, opName(kind) << " takes two scalars");
  const Scalar a = in[0].scalar();
  const Scalar b = in[1].scalar();
  switch (kind) {
    case OpKind::ScalarLt: return Scalar(a.toDouble() < b.toDouble());
    case OpKind::ScalarLe: return Scalar(a.toDouble() <= b.toDouble());
    case OpKind::ScalarGt: return Scalar(a.toDouble() > b.toDouble());
    case OpKind::ScalarGe: return Scalar(a.toDouble() >= b.toDouble());
    case OpKind::ScalarEq: return Scalar(a.toDouble() == b.toDouble());
    case OpKind::ScalarNe: return Scalar(a.toDouble() != b.toDouble());
    default: break;
  }
  if (a.isFloat() || b.isFloat()) {
    const double x = a.toDouble(), y = b.toDouble();
    switch (kind) {
      case OpKind::ScalarAdd: return Scalar(x + y);
      case OpKind::ScalarSub: return Scalar(x - y);
      case OpKind::ScalarMul: return Scalar(x * y);
      case OpKind::ScalarMin: return Scalar(std::min(x, y));
      case OpKind::ScalarMax: return Scalar(std::max(x, y));
      case OpKind::ScalarMod: TSSA_THROW("mod of float scalars");
      default: break;
    }
  } else {
    const std::int64_t x = a.toInt(), y = b.toInt();
    switch (kind) {
      case OpKind::ScalarAdd: return Scalar(x + y);
      case OpKind::ScalarSub: return Scalar(x - y);
      case OpKind::ScalarMul: return Scalar(x * y);
      case OpKind::ScalarMin: return Scalar(std::min(x, y));
      case OpKind::ScalarMax: return Scalar(std::max(x, y));
      case OpKind::ScalarMod:
        TSSA_CHECK(y != 0, "mod by zero");
        return Scalar(x % y);
      default: break;
    }
  }
  TSSA_THROW("not a scalar op: " << opName(kind));
}

void inferOutputs(const Node& node, std::span<const Operand> in,
                  std::span<CostValue> out) {
  const OpKind kind = node.kind();
  const auto& attrs = node.attrs();
  TSSA_CHECK(out.size() == node.numOutputs(),
             opName(kind) << ": expected " << node.numOutputs()
                          << " output slots");
  TSSA_CHECK(in.size() == node.numInputs(),
             opName(kind) << ": expected " << node.numInputs() << " operands");
  auto arg = [&](std::size_t i) -> const Operand& {
    TSSA_CHECK(i < in.size(), opName(kind) << ": missing operand " << i);
    return in[i];
  };
  auto tensor = [&](std::size_t i) -> const Operand& {
    (void)arg(i).sizes();  // unknown or non-tensor operand -> tssa::Error
    return in[i];
  };
  auto bind = [&](TensorMeta m) { out[0] = CostValue::tensor(std::move(m)); };

  switch (ir::opCategory(kind)) {
    case ir::OpCategory::Scalar:
      out[0] = CostValue::scalar(scalarResult(node, in));
      return;
    case ir::OpCategory::EwiseUnary:
    case ir::OpCategory::EwiseBinary:
    case ir::OpCategory::EwiseTernary: {
      // masked_fill's third operand is its scalar fill value.
      const std::size_t tensors = kind == OpKind::MaskedFill ? 2 : in.size();
      DType dtypes[3];
      TSSA_CHECK(tensors >= 1 && tensors <= 3,
                 opName(kind) << ": bad operand count " << in.size());
      Shape sizes(tensor(0).sizes().begin(), tensor(0).sizes().end());
      dtypes[0] = in[0].dtype();
      for (std::size_t i = 1; i < tensors; ++i) {
        sizes = broadcastShapes(sizes, tensor(i).sizes());
        dtypes[i] = in[i].dtype();
      }
      if (kind == OpKind::MaskedFill) (void)arg(2).scalar();
      bind(TensorMeta{std::move(sizes),
                      elementwiseDType(node, std::span(dtypes, tensors))});
      return;
    }
    case ir::OpCategory::ViewOp:
      bind(viewMeta(kind, node, tensor(0), in, 1));
      return;
    case ir::OpCategory::Mutation:
      // The result aliases the target: shape/dtype unchanged. Operands are
      // still read so an unknown one makes the op unknown.
      switch (kind) {
        case OpKind::Copy_:
        case OpKind::Add_:
        case OpKind::Sub_:
        case OpKind::Mul_:
        case OpKind::Div_:
          (void)tensor(1);
          break;
        case OpKind::Fill_:
          (void)arg(1).scalar();
          break;
        case OpKind::MaskedFill_:
          (void)tensor(1);
          (void)arg(2).scalar();
          break;
        default:
          break;
      }
      bind(tensor(0).meta());
      return;
    default:
      break;
  }

  switch (kind) {
    case OpKind::Constant:
      if (attrs.has("tensor")) {
        const Tensor& t = attrs.tensor("tensor");
        bind(TensorMeta{t.sizes(), t.dtype()});
      } else {
        out[0] = CostValue::scalar(attrs.scalar("value"));
      }
      return;
    case OpKind::ListConstruct: {
      std::vector<TensorMeta> list;
      list.reserve(in.size());
      for (std::size_t i = 0; i < in.size(); ++i)
        list.push_back(tensor(i).meta());
      out[0] = CostValue::list(std::move(list));
      return;
    }
    case OpKind::ListIndex: {
      const std::span<const TensorMeta> list = arg(0).list();
      const std::int64_t i = arg(1).scalar().toInt();
      TSSA_CHECK(i >= 0 && i < static_cast<std::int64_t>(list.size()),
                 "list index out of range");
      bind(list[static_cast<std::size_t>(i)]);
      return;
    }

    // ---- reductions ----
    case OpKind::Sum:
      bind(TensorMeta{Shape{}, tensor(0).dtype() == DType::Bool
                                   ? DType::Int64
                                   : in[0].dtype()});
      return;
    case OpKind::SumDim:
    case OpKind::Mean:
    case OpKind::MaxDim:
    case OpKind::MinDim:
    case OpKind::Argmax: {
      const Operand& a = tensor(0);
      DType dtype = a.dtype();  // Max/MinDim keep a's dtype
      if (kind == OpKind::SumDim && dtype == DType::Bool) dtype = DType::Int64;
      if (kind == OpKind::Mean) dtype = DType::Float32;
      if (kind == OpKind::Argmax) dtype = DType::Int64;
      const bool keep = attrs.bOr("keepdim", false);
      bind(TensorMeta{reducedSizes(a, attrs.i("dim"), keep), dtype});
      return;
    }
    case OpKind::Softmax:
    case OpKind::Cumsum: {
      const Operand& a = tensor(0);
      normalizeDim(attrs.i("dim"), a.rank());
      TensorMeta m = a.meta();
      if (kind == OpKind::Softmax) m.dtype = DType::Float32;
      bind(std::move(m));
      return;
    }

    // ---- linear algebra ----
    case OpKind::Matmul:
      bind(matmulMeta(tensor(0), tensor(1)));
      return;
    case OpKind::Bmm:
      TSSA_CHECK(tensor(0).rank() == 3 && tensor(1).rank() == 3,
                 "bmm dims disagree");
      bind(matmulMeta(in[0], in[1]));
      return;

    // ---- shape / data movement ----
    case OpKind::Cat:
    case OpKind::Stack:
      bind(catMeta(node, arg(0).list()));
      return;
    case OpKind::IndexSelect: {
      TensorMeta m = tensor(0).meta();
      const std::int64_t d = normalizeDim(attrs.i("dim"), in[0].rank());
      m.sizes[static_cast<std::size_t>(d)] = tensor(1).numel();
      bind(std::move(m));
      return;
    }
    case OpKind::Gather:
      bind(TensorMeta{tensor(1).meta().sizes, tensor(0).dtype()});
      return;
    case OpKind::Topk: {
      TensorMeta values = tensor(0).meta();
      TSSA_CHECK(!values.sizes.empty(), "topk needs rank >= 1");
      const std::int64_t k = attrs.i("k");
      TSSA_CHECK(k >= 0 && k <= values.sizes.back(), "topk k out of range");
      values.sizes.back() = k;
      out[1] = CostValue::tensor(values.sizes, DType::Int64);
      bind(std::move(values));
      return;
    }
    case OpKind::Argsort:
      bind(TensorMeta{tensor(0).meta().sizes, DType::Int64});
      return;
    case OpKind::Clone:
    case OpKind::Contiguous:
      bind(tensor(0).meta());
      return;

    // ---- factories ----
    case OpKind::Zeros:
    case OpKind::Ones:
      bind(TensorMeta{resolvedSizes(node, in, 0), attrs.dtype("dtype")});
      return;
    case OpKind::Full:
      (void)arg(0).scalar();
      bind(TensorMeta{resolvedSizes(node, in, 1), attrs.dtype("dtype")});
      return;
    case OpKind::Arange: {
      const std::int64_t start = arg(0).scalar().toInt();
      const std::int64_t end = arg(1).scalar().toInt();
      const std::int64_t step = arg(2).scalar().toInt();
      TSSA_CHECK(step != 0, "arange step must be nonzero");
      std::int64_t n = 0;
      if (step > 0 && end > start) n = ceilDiv(end - start, step);
      if (step < 0 && end < start) n = ceilDiv(start - end, -step);
      bind(TensorMeta{{n}, DType::Int64});
      return;
    }

    // ---- TensorSSA ----
    case OpKind::Access:
      bind(viewMeta(static_cast<OpKind>(attrs.i("view")), node, tensor(0), in,
                    1));
      return;
    case OpKind::Assign:
      (void)tensor(1);
      (void)viewMeta(static_cast<OpKind>(attrs.i("view")), node, tensor(0), in,
                     2);
      bind(in[0].meta());
      return;

    default:
      TSSA_THROW("no output rule for " << opName(kind));
  }
}

// ---- Charges ----------------------------------------------------------------

namespace {

Charge kernelCharge(std::int64_t bytes, std::int64_t flops) {
  Charge c;
  c.launches = 1;
  c.bytes = bytes;
  c.flops = flops;
  return c;
}

}  // namespace

Charge chargeOf(const Node& node, std::span<const Operand> in,
                std::span<const Operand> out) {
  const OpKind kind = node.kind();
  switch (ir::opCategory(kind)) {
    case ir::OpCategory::Scalar:
    case ir::OpCategory::ViewOp: {
      Charge c;
      c.dispatch = true;
      return c;
    }
    case ir::OpCategory::EwiseUnary:
    case ir::OpCategory::EwiseBinary:
    case ir::OpCategory::EwiseTernary: {
      // Every tensor operand is read once, the output written once; one op
      // per output element. (masked_fill's scalar fill moves nothing.)
      std::int64_t bytes = out[0].bytes();
      for (const Operand& o : in) bytes += o.bytes();
      return kernelCharge(bytes, out[0].numel());
    }
    default:
      break;
  }

  switch (kind) {
    case OpKind::ListConstruct:
    case OpKind::ListIndex: {
      Charge c;
      c.dispatch = true;
      return c;
    }

    case OpKind::Sum:
      return kernelCharge(in[0].bytes(), in[0].numel());
    case OpKind::SumDim:
    case OpKind::Mean:
    case OpKind::MaxDim:
    case OpKind::MinDim:
    case OpKind::Argmax:
    case OpKind::Cumsum:
      return kernelCharge(in[0].bytes() + out[0].bytes(), in[0].numel());
    case OpKind::Softmax:
      // max, subtract, exp, sum, divide: five passes' worth of flops, and
      // the input is read twice.
      return kernelCharge(2 * in[0].bytes() + out[0].bytes(),
                          5 * in[0].numel());

    case OpKind::Matmul:
    case OpKind::Bmm: {
      const Operand& a = in[0];
      const Operand& b = in[1];
      const std::int64_t flops =
          a.rank() == 3
              ? 2 * extent(a, 0) * extent(a, 1) * extent(a, 2) * extent(b, 2)
              : 2 * extent(a, 0) * extent(a, 1) * extent(b, 1);
      return kernelCharge(a.bytes() + b.bytes() + out[0].bytes(), flops);
    }

    case OpKind::Cat:
    case OpKind::Stack:
      return kernelCharge(2 * out[0].bytes(), 0);
    case OpKind::IndexSelect:
    case OpKind::Gather:
      return kernelCharge(2 * out[0].bytes() + in[1].bytes(), 0);
    case OpKind::Topk:
    case OpKind::Argsort: {
      // GPU selection/sort runs as a multi-pass primitive (CUB-style) with
      // host synchronization between stages: four dependent kernels plus
      // two device syncs.
      Charge c = kernelCharge(in[0].bytes() + out[0].bytes(), in[0].numel());
      c.launches = 4;
      c.hostSyncs = 2;
      return c;
    }
    case OpKind::Clone:
    case OpKind::Contiguous:
      return kernelCharge(2 * in[0].bytes(), 0);

    case OpKind::Zeros:
    case OpKind::Ones:
    case OpKind::Full:
    case OpKind::Arange:
      return kernelCharge(out[0].bytes(), 0);

    // ---- mutation: one kernel over the target (PyTorch semantics) ----
    case OpKind::Copy_:
      return kernelCharge(in[0].bytes() + in[1].bytes(), 0);
    case OpKind::Fill_:
    case OpKind::Zero_:
      return kernelCharge(in[0].bytes(), 0);
    case OpKind::Add_:
    case OpKind::Sub_:
    case OpKind::Mul_:
    case OpKind::Div_:
    case OpKind::Relu_:
    case OpKind::Sigmoid_:
    case OpKind::Tanh_:
    case OpKind::MaskedFill_:
      return kernelCharge(2 * in[0].bytes(), in[0].numel());

    // ---- TensorSSA ----
    case OpKind::Access:
      return kernelCharge(2 * out[0].bytes(), 0);
    case OpKind::Assign: {
      const std::int64_t base = in[0].bytes();
      const std::int64_t src = in[1].bytes();
      if (!node.attrs().bOr("inplace", false))
        return kernelCharge(2 * base + src, 0);
      // Donated buffers (markInplaceAssigns) are written in place: the new
      // version reuses the dead old version's storage, so traffic is just
      // the written region, not a whole-buffer copy.
      Charge c = kernelCharge(2 * src, 0);
      c.savedBytes = std::max<std::int64_t>(0, 2 * (base - src));
      return c;
    }

    default:
      return Charge{};  // constants and structural ops cost nothing
  }
}

Charge fusionGroupCharge(std::span<const Operand> in,
                         std::span<const Operand> out, std::int64_t flops,
                         std::int64_t savedBytes) {
  std::int64_t bytes = 0;
  for (const Operand& o : in) bytes += o.bytes();
  for (const Operand& o : out) bytes += o.bytes();
  return kernelCharge(std::max<std::int64_t>(0, bytes - savedBytes), flops);
}

// ---- Charge sink ------------------------------------------------------------

void ChargeSink::kernel(OpKind kind, std::int64_t bytes, std::int64_t flops) {
  if (suppressDepth_ > 0) {
    suppressFlops_ += flops;
    return;
  }
  if (mergeDepth_ > 0) {
    if (mergePos_ >= slots_.size()) slots_.push_back(Slot{opName(kind), 0, 0});
    slots_[mergePos_].bytes += bytes;
    slots_[mergePos_].flops += flops;
    ++mergePos_;
    return;
  }
  profiler_->kernel(opName(kind), bytes, flops, profiler_->host().perOpUs);
}

void ChargeSink::charge(const Node& node, const Charge& c) {
  if (profiler_ == nullptr) return;
  if (c.dispatch && mergeDepth_ == 0) profiler_->opDispatch();
  if (suppressDepth_ > 0) suppressSavedBytes_ += c.savedBytes;
  for (int i = 0; i < c.launches; ++i) kernel(node.kind(), c.bytes, c.flops);
  if (c.hostSyncs > 0 && mergeDepth_ == 0 && suppressDepth_ == 0)
    profiler_->hostOnly(c.hostSyncs * profiler_->device().syncLatencyUs);
}

void ChargeSink::loopIteration() {
  if (profiler_ != nullptr && mergeDepth_ == 0) profiler_->loopIteration();
}

void ChargeSink::branch() {
  if (profiler_ != nullptr && mergeDepth_ == 0) profiler_->branch();
}

void ChargeSink::enterBlock(const ir::Block& block) {
  if (profiler_ == nullptr || mergeDepth_ > 0 || suppressDepth_ > 0 ||
      profiler_->host().perRegionCallUs <= 0)
    return;
  for (const Node* node : block) {
    if (node->kind() == OpKind::FusionGroup) {
      profiler_->regionCall();
      return;
    }
  }
}

void ChargeSink::accumulate(std::vector<Slot>& into,
                            std::span<const Slot> from) {
  for (std::size_t j = 0; j < from.size(); ++j) {
    if (j >= into.size()) into.push_back(Slot{from[j].name, 0, 0});
    into[j].bytes += from[j].bytes;
    into[j].flops += from[j].flops;
  }
}

void ChargeSink::flushParallelMap(std::span<const Slot> slots) {
  if (profiler_ == nullptr || mergeDepth_ > 0) return;
  for (const Slot& slot : slots) {
    profiler_->kernel("tssa::ParallelMap(" + std::string(slot.name) + ")",
                      slot.bytes, slot.flops, profiler_->host().perOpUs);
  }
}

}  // namespace tssa::analysis
