#include "src/analysis/op_rules.h"

#include <algorithm>
#include <string>

#include "src/support/error.h"
#include "src/tensor/ops.h"

namespace tssa::analysis {

using ir::Block;
using ir::Node;
using ir::OpKind;
using ir::Value;

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

/// Extent `i` of a tensor operand, range-checked.
std::int64_t extent(const Operand& t, std::size_t i) {
  const auto sizes = t.sizes();
  TSSA_CHECK(i < sizes.size(), "dimension " << i << " out of range for rank "
                                            << sizes.size());
  return sizes[i];
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

Tensor applyView(OpKind viewKind, const Node& node, const Tensor& base,
                 std::span<const Operand> in, std::size_t operandStart,
                 SizesPatch patch) {
  const auto& attrs = node.attrs();
  auto sizesOf = [&] {
    Shape sizes = resolvedSizes(node, in, operandStart);
    const auto d = static_cast<std::size_t>(patch.dim);
    if (patch.dim >= 0 && sizes[d] != -1) sizes[d] = patch.extent;
    return sizes;
  };
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
    case OpKind::Reshape:
      return base.reshape(sizesOf());
    case OpKind::Permute:
      return base.permute(attrs.ints("dims"));
    case OpKind::Transpose:
      return base.transpose(attrs.i("dim0"), attrs.i("dim1"));
    case OpKind::Expand:
      return base.expand(sizesOf());
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

TensorMeta viewMeta(OpKind viewKind, const Node& node, const Operand& base,
                    std::span<const Operand> in, std::size_t operandStart) {
  const Tensor view = applyView(viewKind, node, Tensor::meta(base.meta()), in,
                                operandStart);
  return TensorMeta{view.sizes(), view.dtype()};
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
      return ops::whereDType(operand(0), operand(1), operand(2));
    // ops::maskedFill = where(mask, full-scalar, a): the rank-0 fill is
    // created in a's dtype (or Float32 for float a), so a's dtype survives.
    case OpKind::MaskedFill:
      return ops::whereDType(operand(1), operand(0), operand(0));
    case OpKind::Neg:
    case OpKind::Abs:
    case OpKind::Relu:
    case OpKind::Clamp:
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
  // copy_'s rule: a written source broadcasts to its destination.
  auto broadcastsTo = [&](const Operand& src,
                          std::span<const std::int64_t> dst) {
    TSSA_CHECK(broadcastableTo(src.sizes(), dst),
               opName(kind) << ": source " << bracketed(src.sizes())
                            << " does not broadcast to " << bracketed(dst));
  };

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
          broadcastsTo(tensor(1), tensor(0).sizes());
          break;
        case OpKind::Fill_:
          (void)arg(1).scalar();
          break;
        case OpKind::MaskedFill_:  // where(mask, fill, target), written back
          (void)ops::whereDType(tensor(1).dtype(), tensor(0).dtype(),
                                in[0].dtype());
          broadcastsTo(in[1], in[0].sizes());
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
      bind(TensorMeta{
          Shape{}, ops::reducedDType(ops::Reduction::Sum, tensor(0).dtype())});
      return;
    case OpKind::SumDim:
    case OpKind::Mean:
    case OpKind::MaxDim:
    case OpKind::MinDim:
    case OpKind::Argmax: {
      using ops::Reduction;
      const Reduction op = kind == OpKind::SumDim   ? Reduction::Sum
                           : kind == OpKind::Mean   ? Reduction::Mean
                           : kind == OpKind::MaxDim ? Reduction::Max
                           : kind == OpKind::MinDim ? Reduction::Min
                                                    : Reduction::Argmax;
      bind(ops::reducedMeta(op, tensor(0).sizes(), in[0].dtype(),
                            attrs.i("dim"), attrs.bOr("keepdim", false)));
      return;
    }
    case OpKind::Softmax:
      // ops::softmax subtracts the max along dim first: max's rule applies.
      (void)ops::reducedMeta(ops::Reduction::Max, tensor(0).sizes(),
                             in[0].dtype(), attrs.i("dim"), true);
      bind(TensorMeta{in[0].meta().sizes, DType::Float32});
      return;
    case OpKind::Cumsum:
      normalizeDim(attrs.i("dim"), tensor(0).rank());
      bind(in[0].meta());
      return;

    // ---- linear algebra ----
    case OpKind::Matmul:
      bind(TensorMeta{ops::matmulSizes(tensor(0).sizes(), tensor(1).sizes()),
                      DType::Float32});
      return;
    case OpKind::Bmm:
      bind(TensorMeta{ops::bmmSizes(tensor(0).sizes(), tensor(1).sizes()),
                      DType::Float32});
      return;

    // ---- shape / data movement ----
    case OpKind::Cat:
    case OpKind::Stack: {
      ops::CatRule rule(attrs.i("dim"), kind == OpKind::Stack);
      for (const TensorMeta& m : arg(0).list()) rule.add(m.sizes, m.dtype);
      bind(std::move(rule).result());
      return;
    }
    case OpKind::IndexSelect:
      bind(TensorMeta{ops::indexSelectSizes(tensor(0).sizes(), attrs.i("dim"),
                                            tensor(1).sizes(), in[1].dtype()),
                      in[0].dtype()});
      return;
    case OpKind::Gather:
      bind(TensorMeta{ops::gatherSizes(tensor(0).sizes(), attrs.i("dim"),
                                       tensor(1).sizes(), in[1].dtype()),
                      in[0].dtype()});
      return;
    case OpKind::Topk: {
      Shape sizes = ops::sortedSizes(tensor(0).sizes(), attrs.i("k"));
      out[1] = CostValue::tensor(sizes, DType::Int64);
      bind(TensorMeta{std::move(sizes), in[0].dtype()});
      return;
    }
    case OpKind::Argsort:
      bind(TensorMeta{ops::sortedSizes(tensor(0).sizes(), std::nullopt),
                      DType::Int64});
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
    case OpKind::Arange:
      bind(TensorMeta{Shape{arangeLength(arg(0).scalar().toInt(),
                                         arg(1).scalar().toInt(),
                                         arg(2).scalar().toInt())},
                      DType::Int64});
      return;

    // ---- TensorSSA ----
    case OpKind::Access:
      bind(viewMeta(static_cast<OpKind>(attrs.i("view")), node, tensor(0), in,
                    1));
      return;
    case OpKind::Assign:
      broadcastsTo(tensor(1), viewMeta(static_cast<OpKind>(attrs.i("view")),
                                       node, tensor(0), in, 2)
                                  .sizes);
      bind(in[0].meta());
      return;

    default:
      TSSA_THROW("no output rule for " << opName(kind));
  }
}

Operand BodyValues::operandOf(const Value* v) const {
  if (auto t = tensors.find(v); t != tensors.end())
    return Operand::tensor(t->second);
  if (auto s = scalars.find(v); s != scalars.end())
    return Operand::scalar(s->second);
  return Operand();  // defined outside the body: a rule rejects it
}

BodyValues inferBody(const Block& body, std::span<const Operand> params) {
  TSSA_CHECK(params.size() == body.numParams(),
             "fused body expects " << body.numParams() << " params");
  BodyValues m;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].isTensor()) {
      m.tensors[body.param(i)] = params[i].meta();
    } else if (params[i].isScalar()) {
      m.scalars[body.param(i)] = params[i].scalar();
    }
  }
  std::vector<Operand> in;
  for (const Node* node : body) {
    TSSA_CHECK(node->numBlocks() == 0 && node->numOutputs() == 1,
               "fused body: " << opName(node->kind())
                              << " is not a one-result leaf op");
    in.clear();
    for (const Value* v : node->inputs()) in.push_back(m.operandOf(v));
    CostValue out;
    inferOutputs(*node, in, std::span(&out, 1));
    m.tensors[node->output(0)] = out.tensorMeta();
  }
  return m;
}

// ---- Tiling -----------------------------------------------------------------

namespace {

/// The dim of `view` (view rule `rule` applied to `base`) that carries dim
/// `t` of `base`, or std::nullopt when the rule selects, slices or merges
/// it. `t` has extent > 1.
std::optional<int> viewedDim(OpKind rule, const Node& node,
                             const Operand& base, int t, const Operand& view) {
  const auto& attrs = node.attrs();
  const std::int64_t rank = base.rank();
  const auto dim = [&](const char* name) {
    return normalizeDim(attrs.i(name), rank);
  };
  switch (rule) {
    case OpKind::Identity:
      return t;
    case OpKind::Select: {
      const std::int64_t s = dim("dim");
      if (s == t) return std::nullopt;
      return s < t ? t - 1 : t;
    }
    case OpKind::Slice:
      if (dim("dim") == t) return std::nullopt;
      return t;
    case OpKind::Transpose: {
      const std::int64_t d0 = dim("dim0");
      const std::int64_t d1 = dim("dim1");
      return static_cast<int>(t == d0 ? d1 : t == d1 ? d0 : t);
    }
    case OpKind::Permute: {
      const std::vector<std::int64_t>& dims = attrs.ints("dims");
      for (std::size_t p = 0; p < dims.size(); ++p)
        if (normalizeDim(dims[p], rank) == t) return static_cast<int>(p);
      return std::nullopt;
    }
    case OpKind::Squeeze:  // the squeezed dim has extent 1: never `t`
      return dim("dim") < t ? t - 1 : t;
    case OpKind::Unsqueeze: {
      std::int64_t s = attrs.i("dim");
      if (s < 0) s += rank + 1;
      return s <= t ? t + 1 : t;
    }
    case OpKind::Flatten: {
      const std::int64_t s = dim("start_dim");
      const std::int64_t e = dim("end_dim");
      if (t < s) return t;
      if (t > e) return static_cast<int>(t - (e - s));
      // Merging `t` with other dims of extent > 1 interleaves tiles.
      for (std::int64_t d = s; d <= e; ++d)
        if (d != t && base.sizes()[static_cast<std::size_t>(d)] != 1)
          return std::nullopt;
      return static_cast<int>(s);
    }
    case OpKind::Reshape: {
      // Row-major order keeps `t` where the result repeats both its extent
      // and the product of the extents before it.
      std::int64_t prefix = 1;
      for (int d = 0; d < t; ++d)
        prefix *= base.sizes()[static_cast<std::size_t>(d)];
      const std::int64_t e = base.sizes()[static_cast<std::size_t>(t)];
      std::int64_t p = 1;
      for (std::size_t j = 0; j < view.sizes().size() && p <= prefix; ++j) {
        if (p == prefix && view.sizes()[j] == e) return static_cast<int>(j);
        p *= view.sizes()[j];
      }
      return std::nullopt;
    }
    case OpKind::Expand:  // trailing-aligned; an extent > 1 stays put
      return static_cast<int>(t + (view.rank() - rank));
    default:
      return std::nullopt;
  }
}

/// A leaf op's tiling rule on fixed operands: which result dim each operand
/// dim carries when the op runs tile by tile. tiledDims checks one
/// assignment of operand dims against it, and dimLinks lists it whole for
/// the tile planner's dim classes.
class TileRule {
 public:
  TileRule(const Node& node, std::span<const Operand> in, const Operand& out)
      : node_(node), in_(in), out_(out) {
    const OpKind kind = node.kind();
    switch (ir::opCategory(kind)) {
      case ir::OpCategory::EwiseUnary:
      case ir::OpCategory::EwiseBinary:
      case ir::OpCategory::EwiseTernary:
        tiles_ = true;
        return;
      case ir::OpCategory::Immut:
        if (node.attrs().has("dyn")) return;
        rule_ = static_cast<OpKind>(node.attrs().i("view"));
        if (kind == OpKind::Access) {
          tiles_ = true;
        } else if (kind == OpKind::Assign && rule_ != OpKind::Expand) {
          region_ = viewMeta(rule_, node, in[0], in, 2);
          tiles_ = true;
        }
        return;
      case ir::OpCategory::Reduction:
        switch (kind) {
          case OpKind::Softmax:
          case OpKind::SumDim:
          case OpKind::Mean:
          case OpKind::MaxDim:
          case OpKind::MinDim:
          case OpKind::Argmax:
            tiles_ = true;
            reduced_ = normalizeDim(node.attrs().i("dim"), in[0].rank());
            kept_ = kind == OpKind::Softmax || node.attrs().bOr("keepdim", false);
            return;
          default:
            return;
        }
      default:
        return;
    }
  }

  /// False for ops that never run per tile, whatever their operands.
  bool tiles() const { return tiles_; }

  /// The result dim that dim `d` (extent > 1) of operand `i` carries, or
  /// std::nullopt when the op selects, slices, merges or reduces over it.
  std::optional<int> carried(std::size_t i, int d) const {
    switch (ir::opCategory(node_.kind())) {
      case ir::OpCategory::EwiseUnary:
      case ir::OpCategory::EwiseBinary:
      case ir::OpCategory::EwiseTernary:
        return static_cast<int>(d + (out_.rank() - in_[i].rank()));
      case ir::OpCategory::Immut:
        if (node_.kind() == OpKind::Access) {
          if (i != 0) return std::nullopt;
          return viewedDim(rule_, node_, in_[0], d, out_);
        }
        if (i == 0) return regionDim(d) ? std::optional<int>(d) : std::nullopt;
        if (i == 1) {
          // The source fills the region: trailing-aligned with it.
          const std::int64_t e =
              d + (static_cast<std::int64_t>(region_.sizes.size()) -
                   in_[1].rank());
          for (int t = 0; t < in_[0].rank(); ++t)
            if (in_[0].sizes()[static_cast<std::size_t>(t)] > 1 &&
                regionDim(t) == e)
              return t;
        }
        return std::nullopt;
      case ir::OpCategory::Reduction:
        if (i != 0 || d == reduced_) return std::nullopt;
        return kept_ || reduced_ > d ? d : d - 1;
      default:
        return std::nullopt;
    }
  }

  /// Access/Assign: the dim of the view's result that carries the result
  /// dim `o`; -1 for every other op.
  int viewDim(int o) const {
    if (node_.kind() == OpKind::Access) return o;
    if (node_.kind() == OpKind::Assign) return regionDim(o).value_or(-1);
    return -1;
  }

 private:
  /// Assign: the dim of the written region that carries base dim `t`.
  std::optional<int> regionDim(int t) const {
    // An in-place write reaches its base through a view of the base's
    // tile. A reshape or flatten copies a tile that is not contiguous,
    // which a dim of extent > 1 before the tiled one makes it.
    if (node_.attrs().bOr("inplace", false) &&
        (rule_ == OpKind::Reshape || rule_ == OpKind::Flatten)) {
      for (int d = 0; d < t; ++d)
        if (in_[0].sizes()[static_cast<std::size_t>(d)] != 1)
          return std::nullopt;
    }
    return viewedDim(rule_, node_, in_[0], t, Operand::tensor(region_));
  }

  const Node& node_;
  std::span<const Operand> in_;
  const Operand& out_;
  bool tiles_ = false;
  OpKind rule_ = OpKind::Identity;
  TensorMeta region_;  ///< Assign: the region its source writes
  std::int64_t reduced_ = -1;
  bool kept_ = false;
};

}  // namespace

std::optional<TiledDims> tiledDims(const Node& node,
                                   std::span<const Operand> in,
                                   std::span<const int> dims,
                                   const Operand& out) {
  const TileRule rule(node, in, out);
  if (!rule.tiles()) return std::nullopt;
  int o = -1;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (dims[i] < 0) continue;
    const std::optional<int> c = rule.carried(i, dims[i]);
    if (!c || (o >= 0 && *c != o)) return std::nullopt;
    o = *c;
  }
  if (o < 0) return TiledDims{};
  // Every tile reads the other tensor operands whole: none of their dims
  // of extent > 1 may carry `o` (broadcast operands have extent 1 there).
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (dims[i] >= 0 || !in[i].isTensor()) continue;
    for (int e = 0; e < in[i].rank(); ++e)
      if (in[i].sizes()[static_cast<std::size_t>(e)] > 1 &&
          rule.carried(i, e) == o)
        return std::nullopt;
  }
  return TiledDims{o, rule.viewDim(o)};
}

std::vector<DimLink> dimLinks(const Node& node, std::span<const Operand> in,
                              const Operand& out) {
  std::vector<DimLink> links;
  const TileRule rule(node, in, out);
  if (!rule.tiles()) return links;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (!in[i].isTensor()) continue;
    for (int d = 0; d < in[i].rank(); ++d) {
      if (in[i].sizes()[static_cast<std::size_t>(d)] <= 1) continue;
      if (const std::optional<int> o = rule.carried(i, d))
        links.push_back(DimLink{i, d, *o});
    }
  }
  return links;
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

namespace {

bool staticViewPricesInKernel(const Node& node) {
  // A "dyn" view binds its sizes from scalar operands at run time.
  if (node.attrs().has("dyn")) return false;
  switch (static_cast<OpKind>(node.attrs().i("view"))) {
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
      // Assign-through-expand writes one element from several sources.
      return node.kind() == OpKind::Access;
    default:
      return false;
  }
}

}  // namespace

bool pricesAsOneKernel(const Block& body) {
  for (const Node* node : body) {
    if (node->numBlocks() != 0) return false;
    switch (ir::opCategory(node->kind())) {
      case ir::OpCategory::EwiseUnary:
      case ir::OpCategory::EwiseBinary:
      case ir::OpCategory::EwiseTernary:
        break;
      case ir::OpCategory::Immut:
        if (node->kind() != OpKind::Access && node->kind() != OpKind::Assign)
          return false;
        if (!staticViewPricesInKernel(*node)) return false;
        break;
      default:
        return false;
    }
  }
  return true;
}

FusedBody inferFusedBody(const Block& body, std::span<const Operand> params) {
  FusedBody m;
  static_cast<BodyValues&>(m) = inferBody(body, params);
  std::vector<Operand> in;
  for (const Node* node : body) {
    in.clear();
    for (const Value* v : node->inputs()) in.push_back(m.operandOf(v));
    const TensorMeta& meta = m.tensors.at(node->output(0));
    m.flops += meta.numel();
    const Operand result = Operand::tensor(meta);
    m.savedBytes += chargeOf(*node, in, std::span(&result, 1)).savedBytes;
  }
  return m;
}

}  // namespace tssa::analysis
