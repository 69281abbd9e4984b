// Per-op rules: the one owner of what every leaf op produces and costs.
//
// The paper's metrics — kernel launches (Fig. 6) and modelled latency
// (Figs. 5/7/8) — come from charging every executed op. Three consumers need
// the same per-op facts, and all of them query this module instead of keeping
// a copy:
//
//   * the reference interpreter (src/runtime/interpreter.h) executes real
//     tensors, then charges each op through chargeOf() into a ChargeSink;
//   * the cost model (src/analysis/cost.h) propagates metadata only: it
//     infers each op's outputs with inferOutputs() and charges the same way,
//     into a Profiler of its own;
//   * the texpr backend (src/texpr/texpr.h) binds the shape/dtype of every
//     fused body value with inferOutputs() and derives its RunStats from it.
//
// inferOutputs() owns every output-metadata rule (broadcasting, dtype
// promotion, reductions, every view rule, the "dyn" size binding) and
// validates operands with a typed tssa::Error. chargeOf() is the per-op
// charge, shaped like chainer-compiler's CalculateFlops(node): launches (0, 1,
// or 4 for the multi-pass sorts), bytes and flops per launch, host syncs and
// host dispatch. ChargeSink owns the state that turns charges into Profiler
// events: ParallelMap launch merging, the suppress scope of interpreted
// FusionGroup bodies, and the one `tssa::ParallelMap(<op>)` flush.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/ir/ir.h"
#include "src/runtime/profiler.h"
#include "src/runtime/rt_value.h"
#include "src/tensor/dtype.h"
#include "src/tensor/scalar.h"
#include "src/tensor/shape.h"

namespace tssa::analysis {

/// Shape/dtype of one tensor, without storage.
struct TensorMeta {
  Shape sizes;
  DType dtype = DType::Float32;

  std::int64_t numel() const { return numelOf(sizes); }
  std::int64_t bytes() const {
    return numel() * static_cast<std::int64_t>(dtypeSize(dtype));
  }
  friend bool operator==(const TensorMeta&, const TensorMeta&) = default;
};

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
/// CostValue, a texpr binding — so building one never allocates.
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

/// The value of a scalar op (scalar arithmetic/comparison, aten::size).
Scalar scalarResult(const ir::Node& node, std::span<const Operand> in);

/// Result dtype of an elementwise op from its tensor operands' dtypes (one
/// per node input; trailing scalar operands may be omitted).
DType elementwiseDType(const ir::Node& node, std::span<const DType> in);

/// Applies view rule `viewKind` (the node's own kind for view ops, its
/// "view" attr for Access/Assign) to `base`; dynamic operands (select index,
/// slice bounds, "dyn" extents) start at `in[operandStart]`. Validates like
/// the tensor library does.
TensorMeta viewMeta(ir::OpKind viewKind, const ir::Node& node,
                    const Operand& base, std::span<const Operand> in,
                    std::size_t operandStart);

/// The node's "sizes" attr with -1 placeholders bound from trailing scalar
/// operands when the node carries the "dyn" marker (symbolic-dim graphs).
/// Without "dyn", returns the attr untouched (-1 keeps reshape's static
/// infer meaning).
Shape resolvedSizes(const ir::Node& node, std::span<const Operand> in,
                    std::size_t operandStart);

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

/// Where charges go. One sink per execution thread: it owns the merge and
/// suppress state and records everything else into a Profiler. A sink
/// without a Profiler drops every charge.
class ChargeSink {
 public:
  explicit ChargeSink(runtime::Profiler* profiler)
      : profiler_(profiler) {}

  bool enabled() const { return profiler_ != nullptr; }

  /// Records one op's charge. Inside a merge scope kernel j of the current
  /// iteration joins batched launch slot j and host work is not paid;
  /// inside a suppress scope kernels count only their flops.
  void charge(const ir::Node& node, const Charge& c);

  /// Host control-flow charges; free inside a merge scope.
  void loopIteration();
  void branch();
  /// Graph-break model: entering a block whose segment contains generated
  /// kernels costs one region call (guard checks, Python resume).
  void enterBlock(const ir::Block& block);

  /// One batched launch of a ParallelMap: the j-th kernel of every
  /// iteration, merged (a batched grid).
  struct Slot {
    std::string_view name;
    std::int64_t bytes = 0;
    std::int64_t flops = 0;
  };

  /// ParallelMap iterations: kernels charged inside merge into slots.
  class MergeScope {
   public:
    explicit MergeScope(ChargeSink& sink) : sink_(sink) {
      ++sink_.mergeDepth_;
    }
    ~MergeScope() { --sink_.mergeDepth_; }
    MergeScope(const MergeScope&) = delete;
    MergeScope& operator=(const MergeScope&) = delete;

   private:
    ChargeSink& sink_;
  };
  /// Starts an iteration: its first kernel joins slot 0 again.
  void beginIteration() { mergePos_ = 0; }
  /// Moves the accumulated slots out.
  std::vector<Slot> takeSlots() { return std::exchange(slots_, {}); }
  /// Adds `from` into `into` position-wise (per-worker slot merge).
  static void accumulate(std::vector<Slot>& into, std::span<const Slot> from);
  /// Records each slot as one `tssa::ParallelMap(<op>)` launch; nothing
  /// inside an enclosing merge scope.
  void flushParallelMap(std::span<const Slot> slots);

  /// Interpreted FusionGroup body: kernels count flops (and donated
  /// assigns their savings) instead of launching; the group is charged as
  /// one kernel by its caller. Nests: the outer totals are restored.
  class SuppressScope {
   public:
    explicit SuppressScope(ChargeSink& sink)
        : sink_(sink),
          outerFlops_(sink.suppressFlops_),
          outerSaved_(sink.suppressSavedBytes_) {
      ++sink_.suppressDepth_;
      sink_.suppressFlops_ = 0;
      sink_.suppressSavedBytes_ = 0;
    }
    ~SuppressScope() {
      sink_.suppressFlops_ = outerFlops_;
      sink_.suppressSavedBytes_ = outerSaved_;
      --sink_.suppressDepth_;
    }
    SuppressScope(const SuppressScope&) = delete;
    SuppressScope& operator=(const SuppressScope&) = delete;

    std::int64_t flops() const { return sink_.suppressFlops_; }
    std::int64_t savedBytes() const { return sink_.suppressSavedBytes_; }

   private:
    ChargeSink& sink_;
    std::int64_t outerFlops_;
    std::int64_t outerSaved_;
  };

  bool merging() const { return mergeDepth_ > 0; }
  bool suppressing() const { return suppressDepth_ > 0; }

 private:
  void kernel(ir::OpKind kind, std::int64_t bytes, std::int64_t flops);

  runtime::Profiler* profiler_;
  int mergeDepth_ = 0;
  std::size_t mergePos_ = 0;
  std::vector<Slot> slots_;
  int suppressDepth_ = 0;
  std::int64_t suppressFlops_ = 0;
  std::int64_t suppressSavedBytes_ = 0;
};

}  // namespace tssa::analysis
