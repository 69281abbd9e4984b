// Per-op rules: what every leaf op produces and costs.
//
// The paper's metrics — kernel launches (Fig. 6) and modelled latency
// (Figs. 5/7/8) — come from charging every op a run executes. Three
// consumers need the same per-op facts, and all of them query this module
// instead of keeping a copy:
//
//   * the reference interpreter (src/runtime/interpreter.h) executes real
//     tensors and reads view, size and scalar rules from here;
//   * the cost model (src/analysis/cost.h) propagates metadata only: it
//     infers each op's outputs with inferOutputs() and charges them with
//     chargeOf(). runtime::Pipeline prices every run through it, so it is
//     the one walk that produces Profiler numbers;
//   * the fused-body pricing rule (inferFusedBody) and the tile planner
//     (src/analysis/tile_plan.h) bind the shape/dtype of every fused body
//     value with inferBody(), which applies inferOutputs() node by node.
//
// inferOutputs() validates operands with a typed tssa::Error. It composes
// the rules src/tensor owns, which the kernels check too: Tensor's view
// methods (via applyView), shape.h, and the output-metadata rules of
// tensor/ops.h. It owns the elementwise dtype table, the scalar ops and the
// "dyn" size binding. tiledDims() says whether an
// op maps tiles of its operands to tiles of its result, and dimLinks() lists
// which operand dim maps to which result dim: the rule the tile planner of
// fused bodies is built from (src/analysis/tile_plan.h).
// chargeOf() is the per-op charge, shaped like chainer-compiler's
// CalculateFlops(node): launches (0, 1, or 4 for the multi-pass sorts),
// bytes and flops per launch, host syncs and host dispatch.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "src/ir/ir.h"
#include "src/runtime/rt_value.h"
#include "src/tensor/dtype.h"
#include "src/tensor/scalar.h"
#include "src/tensor/shape.h"
#include "src/tensor/tensor.h"

namespace tssa::analysis {

class Operand;

/// Abstract runtime value of a metadata walk: tensor metadata, a known
/// scalar, a list of tensor metas, or unknown (data-dependent).
class CostValue {
 public:
  CostValue() : value_(Unknown{}) {}

  static CostValue tensor(Shape sizes, DType dtype) {
    return tensor(TensorMeta{std::move(sizes), dtype});
  }
  static CostValue tensor(TensorMeta meta) {
    CostValue v;
    v.value_ = std::move(meta);
    return v;
  }
  static CostValue scalar(Scalar s) {
    CostValue v;
    v.value_ = s;
    return v;
  }
  static CostValue list(std::vector<TensorMeta> items) {
    CostValue v;
    v.value_ = std::move(items);
    return v;
  }
  static CostValue unknown() { return CostValue(); }

  bool isTensor() const { return std::holds_alternative<TensorMeta>(value_); }
  bool isScalar() const { return std::holds_alternative<Scalar>(value_); }
  bool isList() const {
    return std::holds_alternative<std::vector<TensorMeta>>(value_);
  }
  bool isUnknown() const { return std::holds_alternative<Unknown>(value_); }

  /// Typed accessors; throw tssa::Error when the value is of another kind
  /// (estimateCost turns that into an unknown-op, never a crash).
  const TensorMeta& tensorMeta() const;
  Scalar scalarValue() const;
  const std::vector<TensorMeta>& listMeta() const;

  /// A non-owning view of this value for the rules; valid while *this is.
  Operand operand() const;

 private:
  struct Unknown {};
  std::variant<Unknown, TensorMeta, Scalar, std::vector<TensorMeta>> value_;
};

/// One node operand (or result) as the rules read it. Non-owning: tensor
/// sizes and list items point into the caller's value — a Tensor, a
/// CostValue, a BodyValues entry — so building one never allocates.
class Operand {
 public:
  Operand() = default;  ///< unknown: data-dependent or not modelled
  static Operand tensor(std::span<const std::int64_t> sizes, DType dtype) {
    Operand o;
    o.kind_ = Kind::Tensor;
    o.sizes_ = sizes;
    o.dtype_ = dtype;
    return o;
  }
  static Operand tensor(const TensorMeta& meta) {
    return tensor(meta.sizes, meta.dtype);
  }
  static Operand scalar(Scalar s) {
    Operand o;
    o.kind_ = Kind::Scalar;
    o.scalar_ = s;
    return o;
  }
  static Operand list(std::span<const TensorMeta> items) {
    Operand o;
    o.kind_ = Kind::List;
    o.list_ = items;
    return o;
  }

  bool isTensor() const { return kind_ == Kind::Tensor; }
  bool isScalar() const { return kind_ == Kind::Scalar; }

  /// Tensor metadata; throw tssa::Error for any other kind.
  std::span<const std::int64_t> sizes() const;
  DType dtype() const;
  std::int64_t rank() const {
    return static_cast<std::int64_t>(sizes().size());
  }
  std::int64_t numel() const { return numelOf(sizes()); }
  /// Owned copy of the tensor metadata.
  TensorMeta meta() const {
    return TensorMeta{Shape(sizes().begin(), sizes().end()), dtype()};
  }
  /// Bytes of a tensor operand; 0 for every other kind (nothing to move).
  std::int64_t bytes() const {
    return isTensor() ? numelOf(sizes_) *
                            static_cast<std::int64_t>(dtypeSize(dtype_))
                      : 0;
  }
  /// The known scalar; throws tssa::Error otherwise.
  Scalar scalar() const;
  /// Item metadata of a tensor list; throws tssa::Error otherwise.
  std::span<const TensorMeta> list() const;

 private:
  enum class Kind : std::uint8_t { Unknown, Tensor, Scalar, List };
  Kind kind_ = Kind::Unknown;
  DType dtype_ = DType::Float32;
  std::span<const std::int64_t> sizes_;
  Scalar scalar_;
  std::span<const TensorMeta> list_;
};

/// The rules' view of a runtime value: tensors and scalars as themselves,
/// lists and undefined tensors as unknown (no charge reads their metadata).
Operand operandOf(const runtime::RtValue& v);

// ---- Output metadata --------------------------------------------------------

/// Infers the outputs of leaf op `node` from its operands (`in`, one per
/// node input) into `out` (one per node output): shape/dtype of tensors,
/// values of scalar ops, item metadata of lists. Leaf means anything but
/// If/Loop/ParallelMap/FusionGroup. Throws tssa::Error on invalid or
/// unknown operands.
void inferOutputs(const ir::Node& node, std::span<const Operand> in,
                  std::span<CostValue> out);

/// Metadata of every value of a fused body: tensor metadata by value, and
/// the scalar params.
struct BodyValues {
  std::unordered_map<const ir::Value*, TensorMeta> tensors;
  std::unordered_map<const ir::Value*, Scalar> scalars;

  /// The rules' view of `v`; unknown for values defined outside the body.
  /// Valid while *this is.
  Operand operandOf(const ir::Value* v) const;
};

/// Binds `params` (one per param of straight-line `body`) and infers each
/// node's one tensor result with inferOutputs, in body order. The one walk
/// over a fused body's metadata: inferFusedBody prices bodies with it and
/// the tile planner cuts them by it. Throws tssa::Error when a node is
/// not a one-result tensor op or a rule rejects its operands.
BodyValues inferBody(const ir::Block& body, std::span<const Operand> params);

/// The value of a scalar op (scalar arithmetic/comparison, aten::size).
Scalar scalarResult(const ir::Node& node, std::span<const Operand> in);

/// Result dtype of an elementwise op from its tensor operands' dtypes (one
/// per node input; trailing scalar operands may be omitted).
DType elementwiseDType(const ir::Node& node, std::span<const DType> in);

/// A tile's extent for a reshape's or expand's "sizes" entry `dim` (none
/// when dim < 0).
struct SizesPatch {
  int dim = -1;
  std::int64_t extent = 0;
};

/// The one dispatcher from view rule `viewKind` (the node's own kind for
/// view ops, its "view" attr for Access/Assign) to Tensor's view methods;
/// dynamic operands (select index, slice bounds, "dyn" extents) start at
/// `in[operandStart]`.
Tensor applyView(ir::OpKind viewKind, const ir::Node& node, const Tensor& base,
                 std::span<const Operand> in, std::size_t operandStart,
                 SizesPatch patch = {});

/// applyView on a storage-less Tensor::meta of `base`.
TensorMeta viewMeta(ir::OpKind viewKind, const ir::Node& node,
                    const Operand& base, std::span<const Operand> in,
                    std::size_t operandStart);

/// The node's "sizes" attr with -1 placeholders bound from trailing scalar
/// operands when the node carries the "dyn" marker (symbolic-dim graphs).
/// Without "dyn", returns the attr untouched (-1 keeps reshape's static
/// infer meaning).
Shape resolvedSizes(const ir::Node& node, std::span<const Operand> in,
                    std::size_t operandStart);

// ---- Tiling -----------------------------------------------------------------

/// Where a leaf op puts the tiled dim of its operands (see tiledDims).
struct TiledDims {
  /// Dim of the result that carries the operands' tiled dim; -1 when no
  /// operand is tiled and every tile shares the whole result.
  int out = -1;
  /// Access/Assign only: the tiled dim of the view's result (-1 if none).
  /// A tile rewrites a reshape's or expand's "sizes" entry at this dim to
  /// the tile's extent.
  int view = -1;
};

/// The tiling rule of leaf op `node`: `dims` holds, per operand, the dim it
/// is tiled along (-1 for operands every tile reads whole, and for
/// non-tensors); `in` and `out` are the metadata of the whole operands and
/// result. A tiled dim has extent > 1. Returns where the result is tiled
/// when running the op on each tile of its operands yields exactly the
/// matching tile of its whole result — elementwise ops with broadcasting,
/// Access/Assign views that do not select, slice or merge the tiled dim,
/// and softmax and dim reductions over another dim — and std::nullopt for
/// every other op or operand layout: "dyn" views, Assign through expand,
/// in-place Assign through reshape or flatten below the outermost dim of
/// extent > 1 (its tile would be a copy, not the base), whole-tensor
/// reductions, matmul, cat, sort, gather, control flow.
std::optional<TiledDims> tiledDims(const ir::Node& node,
                                   std::span<const Operand> in,
                                   std::span<const int> dims,
                                   const Operand& out);

/// One link of a leaf op's tiling rule: dim `dim` (extent > 1) of operand
/// `operand` carries dim `result` of the node's result.
struct DimLink {
  std::size_t operand = 0;
  int dim = -1;
  int result = -1;
};

/// Every link of `node`'s tiling rule on these operands, the same rule
/// tiledDims checks: elementwise operands trailing-aligned with the result,
/// an Access base's dims the view keeps, an Assign's base dims the written
/// region keeps and the source dims that fill them, and the dims a softmax
/// or dim reduction does not reduce over. Empty for ops that never tile.
std::vector<DimLink> dimLinks(const ir::Node& node,
                              std::span<const Operand> in, const Operand& out);

// ---- Charges ----------------------------------------------------------------

/// What executing one op costs. A launch moves `bytes` and computes `flops`;
/// ops with several launches (topk/argsort) repeat the same launch.
struct Charge {
  int launches = 0;
  std::int64_t bytes = 0;  ///< per launch
  std::int64_t flops = 0;  ///< per launch
  int hostSyncs = 0;       ///< device->host synchronizations
  bool dispatch = false;   ///< host-only op dispatch (views, scalars, lists)
  /// Traffic a donated (in-place) Assign saves its enclosing fused kernel.
  std::int64_t savedBytes = 0;
};

/// The charge of leaf op `node` given its operands and results (`out`, one
/// per node output, read after execution or inference).
Charge chargeOf(const ir::Node& node, std::span<const Operand> in,
                std::span<const Operand> out);

/// A FusionGroup runs as one kernel that moves only its external traffic —
/// tensor inputs plus tensor outputs, less what donated assigns saved —
/// and computes its body's `flops`.
Charge fusionGroupCharge(std::span<const Operand> in,
                         std::span<const Operand> out, std::int64_t flops,
                         std::int64_t savedBytes);

/// True when `body` is priced as one kernel from its structure
/// (inferFusedBody): every node is elementwise compute or an Access/Assign
/// through a static view rule other than Assign-through-expand. Bodies with
/// reductions, matmul, cat, sorts, gathers, control flow, "dyn" views or
/// Assign-through-expand are priced from their interior kernels instead.
/// This set is the one the gated Fig. 5–8 sim_us numbers were recorded
/// with: widening or narrowing it moves them.
bool pricesAsOneKernel(const ir::Block& body);

/// The metadata of every value of a body pricesAsOneKernel accepts, plus
/// its flops (one per produced element per node) and the traffic its
/// donated Assigns save. Throws tssa::Error when a rule rejects the
/// operands.
struct FusedBody : BodyValues {
  std::int64_t flops = 0;
  std::int64_t savedBytes = 0;
};
FusedBody inferFusedBody(const ir::Block& body,
                         std::span<const Operand> params);

}  // namespace tssa::analysis
