// Shared random-program generator used by property tests and repro tools.
#pragma once
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "src/ir/builder.h"
#include "src/runtime/pipeline.h"
#include "src/tensor/random.h"

namespace tssa::testing_support {

using ir::Block;
using ir::Graph;
using ir::IRBuilder;
using ir::Node;
using ir::OpKind;
using ir::Type;
using ir::Value;
using runtime::RtValue;

/// Random-program generator state: tracks live tensor values with their
/// runtime shapes so views and mutations stay in bounds.
class ProgramGenerator {
 public:
  ProgramGenerator(Graph& graph, Rng& rng) : graph_(graph), rng_(rng) {}

  struct Entry {
    Value* value;
    Shape shape;
  };

  /// Builds a random program with `numStatements` statements; returns inputs.
  std::vector<RtValue> generate(std::size_t numStatements) {
    IRBuilder builder(graph_);
    std::vector<RtValue> inputs;
    // 2-3 tensor inputs, cloned to make them mutable buffers.
    const int numInputs = 2 + static_cast<int>(rng_.nextInt(0, 1));
    for (int i = 0; i < numInputs; ++i) {
      Shape shape{rng_.nextInt(2, 4), rng_.nextInt(2, 4), rng_.nextInt(2, 4)};
      Value* in = graph_.addInput(Type::tensor(DType::Float32),
                                  "in" + std::to_string(i));
      inputs.emplace_back(rng_.uniform(shape, -2, 2));
      Value* buffer = builder.clone(in);
      live_.push_back({buffer, shape});
    }
    for (std::size_t s = 0; s < numStatements; ++s) emitStatement(builder, 0);
    // Every live value is observed as an output (maximizes the chance that
    // a bad rewrite is visible).
    for (const Entry& e : live_) graph_.addOutput(e.value);
    return inputs;
  }

 private:
  Entry& randomLive() {
    return live_[static_cast<std::size_t>(
        rng_.nextInt(0, static_cast<std::int64_t>(live_.size()) - 1))];
  }

  /// A random view of `e` (possibly chained), with its shape.
  Entry randomView(IRBuilder& b, const Entry& e) {
    Entry cur = e;
    const int depth = static_cast<int>(rng_.nextInt(1, 2));
    for (int i = 0; i < depth && !cur.shape.empty(); ++i) {
      const std::int64_t rank = static_cast<std::int64_t>(cur.shape.size());
      switch (rng_.nextInt(0, 2)) {
        case 0: {  // select
          const std::int64_t dim = rng_.nextInt(0, rank - 1);
          const std::int64_t idx =
              rng_.nextInt(0, cur.shape[static_cast<std::size_t>(dim)] - 1);
          cur.value = b.select(cur.value, dim, b.constInt(idx));
          cur.shape.erase(cur.shape.begin() + dim);
          break;
        }
        case 1: {  // slice
          const std::int64_t dim = rng_.nextInt(0, rank - 1);
          const std::int64_t extent = cur.shape[static_cast<std::size_t>(dim)];
          const std::int64_t start = rng_.nextInt(0, extent - 1);
          const std::int64_t end = rng_.nextInt(start + 1, extent);
          cur.value = b.slice(cur.value, dim, b.constInt(start),
                              b.constInt(end));
          cur.shape[static_cast<std::size_t>(dim)] = end - start;
          break;
        }
        default: {  // transpose (rank >= 2) or unsqueeze
          if (rank >= 2) {
            const std::int64_t d0 = rng_.nextInt(0, rank - 1);
            const std::int64_t d1 = rng_.nextInt(0, rank - 1);
            cur.value = b.transpose(cur.value, d0, d1);
            std::swap(cur.shape[static_cast<std::size_t>(d0)],
                      cur.shape[static_cast<std::size_t>(d1)]);
          } else {
            cur.value = b.unsqueeze(cur.value, 0);
            cur.shape.insert(cur.shape.begin(), 1);
          }
          break;
        }
      }
    }
    return cur;
  }

  void emitMutation(IRBuilder& b, const Entry& target) {
    switch (rng_.nextInt(0, 3)) {
      case 0: {  // copy_ from a same-shaped computed tensor
        Value* src = b.mul(b.relu(constLike(b)), constLike(b));
        b.copy_(target.value, src);
        break;
      }
      case 1:
        b.add_(target.value, constLike(b));
        break;
      case 2:
        b.relu_(target.value);
        break;
      default:
        b.fill_(target.value, b.constFloat(rng_.nextDouble(-1, 1)));
        break;
    }
  }

  Value* constLike(IRBuilder& b) {
    return b.constTensor(Tensor::full({}, Scalar(rng_.nextDouble(-2, 2))));
  }

  void emitStatement(IRBuilder& b, int depth) {
    const std::int64_t kind = rng_.nextInt(0, depth < 1 ? 9 : 7);
    if (kind <= 2) {
      // Pure compute on a whole live buffer -> new live value.
      Entry& e = randomLive();
      Value* v = nullptr;
      switch (kind) {
        case 0: v = b.sigmoid(e.value); break;
        case 1: v = b.add(e.value, constLike(b)); break;
        default: v = b.relu(e.value); break;
      }
      live_.push_back({v, e.shape});
      return;
    }
    if (kind <= 5) {
      // Mutation through a random view chain.
      Entry target = randomView(b, randomLive());
      emitMutation(b, target);
      return;
    }
    if (kind == 6) {
      // Read through a view, keep as live value.
      Entry v = randomView(b, randomLive());
      live_.push_back({b.relu(v.value), v.shape});
      return;
    }
    if (kind == 7) {
      // Snapshot a buffer (clone) - fresh origin for later mutations.
      Entry& e = randomLive();
      live_.push_back({b.clone(e.value), e.shape});
      return;
    }
    if (kind == 8) {
      // Branch: mutate inside one or both arms.
      Value* cond = b.constBool(rng_.nextBool());
      Node* ifNode = b.makeIf(cond, 0);
      for (Block* arm : ifNode->blocks()) {
        if (rng_.nextBool(0.7)) {
          IRBuilder ib(graph_);
          ib.setInsertionPointToEnd(arm);
          Entry target = randomView(ib, randomLive());
          emitMutation(ib, target);
        }
      }
      return;
    }
    // Loop over the leading dim of a live buffer, mutating row i. Bodies can
    // hold several statements; occasionally a nested inner loop mutates the
    // row element-wise — nested control flow that the parallelization pass
    // must reject (and the serial paths must still execute correctly).
    Entry& e = randomLive();
    if (e.shape.empty()) return;
    Value* trip = b.constInt(e.shape[0]);
    Node* loop = b.makeLoop(trip, {});
    Block* body = loop->block(0);
    IRBuilder ib(graph_);
    ib.setInsertionPointToEnd(body);
    Value* row = ib.select(e.value, 0, body->param(0));
    const int stmts = static_cast<int>(rng_.nextInt(1, 2));
    for (int s = 0; s < stmts; ++s) {
      if (rng_.nextBool()) {
        ib.add_(row, constLike(ib));
      } else {
        Value* other = ib.sigmoid(row);
        ib.copy_(row, other);
      }
    }
    if (e.shape.size() >= 2 && rng_.nextBool(0.3)) {
      Value* innerTrip = ib.constInt(e.shape[1]);
      Node* inner = ib.makeLoop(innerTrip, {});
      Block* innerBody = inner->block(0);
      IRBuilder iib(graph_);
      iib.setInsertionPointToEnd(innerBody);
      Value* cell = iib.select(row, 0, innerBody->param(0));
      iib.add_(cell, constLike(iib));
    }
  }

  Graph& graph_;
  Rng& rng_;
  std::vector<Entry> live_;
};

/// Random fused-element-region generator for the JIT differential fuzz
/// harness (texpr_fuzz_test.cpp). Builds a FusionGroup body of elementwise
/// compute plus Access/Assign view nodes over mixed dtypes, ranks, and
/// broadcasts, together with matching runtime inputs.
///
/// Decisions are split across two Rngs so the fuzz suite can bound JIT
/// compile count: everything that lands in the kernel-cache key (ops, attrs,
/// dtypes, ranks, contiguity — and shapes, which pin attrs like Reshape
/// sizes) comes from `structRng`; runtime-only values (tensor contents,
/// dynamic select indices / slice bounds) come from `dataRng`. Replaying a
/// structure seed with many data seeds exercises one compiled kernel against
/// many input values.
///
/// Value-safety invariant: the generator tracks a conservative magnitude
/// bound and a may-be-NaN flag per value, and only emits Cast-to-Int64 when
/// the operand is provably NaN-free and small — the double→int64 conversion
/// is undefined otherwise (in the interpreter's roundTo just as much as in
/// the generated code), and the fuzz suite runs under sanitizers.
class FusedRegionGenerator {
 public:
  FusedRegionGenerator(Graph& graph, Rng& structRng, Rng& dataRng)
      : graph_(graph), structRng_(structRng), dataRng_(dataRng) {}

  struct Built {
    std::vector<RtValue> inputs;  ///< one per body param
    const Block* body = nullptr;
    Node* group = nullptr;
  };

  Built build() {
    Built built;
    group_ = makeGroup();
    built.group = group_;
    built.body = body_;

    // Region base shape: every tensor param is a trailing suffix of it with
    // dims independently collapsed to 1, so any two values broadcast. A
    // slice of structures uses large extents to push outputs past the
    // parallel-dispatch threshold (exercises the threaded JIT path).
    const bool large = structRng_.nextBool(0.15);
    const int regionRank = static_cast<int>(structRng_.nextInt(1, 3));
    Shape base;
    for (int d = 0; d < regionRank; ++d)
      base.push_back(large && regionRank == 3 ? structRng_.nextInt(11, 12)
                                              : structRng_.nextInt(2, 4));

    const int numTensors = static_cast<int>(structRng_.nextInt(2, 3));
    for (int i = 0; i < numTensors; ++i) addTensorParam(built, base);

    IRBuilder b(graph_);
    b.setInsertionPointToEnd(body_);
    const int numNodes = static_cast<int>(structRng_.nextInt(2, 5));
    for (int s = 0; s < numNodes; ++s) {
      const std::int64_t kind = structRng_.nextInt(0, 9);
      if (kind <= 6) {
        emitEwise(b);
      } else if (kind <= 8) {
        emitAccess(b, built);
      } else {
        emitAssign(b, built);
      }
    }
    for (const Val& v : produced_) body_->addReturn(v.v);
    for (std::size_t i = 0; i < body_->numReturns(); ++i)
      group_->addOutput(Type::tensor());
    for (std::size_t i = 0; i < group_->numOutputs(); ++i)
      graph_.addOutput(group_->output(i));
    return built;
  }

 private:
  struct Val {
    Value* v = nullptr;
    Shape shape;
    DType dtype = DType::Float32;
    double bound = 0;    ///< conservative |value| bound
    bool mayNaN = false; ///< value can be NaN at runtime
  };

  Node* makeGroup() {
    IRBuilder b(graph_);
    Node* group = b.emitNode(OpKind::FusionGroup, {}, 0);
    body_ = group->addBlock();
    return group;
  }

  void addTensorParam(Built& built, const Shape& base) {
    Val val;
    const int rank = static_cast<int>(
        structRng_.nextInt(0, static_cast<std::int64_t>(base.size())));
    for (std::size_t d = base.size() - static_cast<std::size_t>(rank);
         d < base.size(); ++d) {
      val.shape.push_back(structRng_.nextBool(0.25) ? 1 : base[d]);
    }
    const std::int64_t dt = structRng_.nextInt(0, 9);
    // Non-contiguous inputs are a distinct cache-key class: pick from the
    // structure stream.
    const bool transposed = rank >= 2 && structRng_.nextBool(0.25);
    Tensor t;
    if (dt <= 5) {
      val.dtype = DType::Float32;
      val.bound = 2.0;
      t = dataRng_.uniform(val.shape, -2, 2);
    } else if (dt <= 7) {
      val.dtype = DType::Int64;
      val.bound = 3.0;
      t = dataRng_.randint(val.shape, -3, 3);
    } else {
      val.dtype = DType::Bool;
      val.bound = 1.0;
      t = dataRng_.bernoulli(val.shape, 0.5);
    }
    if (transposed) {
      // Materialize the transposed layout, then view it back: same logical
      // shape/content, non-contiguous strides.
      const auto r = static_cast<std::int64_t>(val.shape.size());
      t = t.transpose(r - 2, r - 1).contiguous().transpose(r - 2, r - 1);
    }
    Value* in = graph_.addInput(Type::tensor());
    Value* p = body_->addParam(in->type());
    group_->addInput(in);
    built.inputs.emplace_back(std::move(t));
    val.v = p;
    live_.push_back(val);
  }

  /// Adds a scalar body param carrying `value` at run time.
  Value* addScalarParam(Built& built, std::int64_t value) {
    Value* in = graph_.addInput(Type::integer());
    Value* p = body_->addParam(in->type());
    group_->addInput(in);
    built.inputs.emplace_back(Scalar(value));
    return p;
  }

  Val& pickLive() {
    return live_[static_cast<std::size_t>(structRng_.nextInt(
        0, static_cast<std::int64_t>(live_.size()) - 1))];
  }

  static bool broadcastable(const Shape& a, const Shape& b) {
    const std::size_t r = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < r; ++i) {
      const std::int64_t x = a[a.size() - 1 - i];
      const std::int64_t y = b[b.size() - 1 - i];
      if (x != y && x != 1 && y != 1) return false;
    }
    return true;
  }

  static Shape broadcast(const Shape& a, const Shape& b) {
    Shape out(std::max(a.size(), b.size()));
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::size_t ri = out.size() - 1 - i;
      const std::int64_t x = i < a.size() ? a[a.size() - 1 - i] : 1;
      const std::int64_t y = i < b.size() ? b[b.size() - 1 - i] : 1;
      out[ri] = std::max(x, y);
    }
    return out;
  }

  void push(Value* v, Shape shape, DType dtype, double bound, bool mayNaN) {
    Val val{v, std::move(shape), dtype, std::min(bound, 1e300), mayNaN};
    live_.push_back(val);
    produced_.push_back(val);
  }

  void emitEwise(IRBuilder& b) {
    Val& a = pickLive();
    // Find a broadcast partner; fall back to unary when none fits.
    Val* other = nullptr;
    for (int tries = 0; tries < 3 && other == nullptr; ++tries) {
      Val& cand = pickLive();
      if (broadcastable(a.shape, cand.shape)) other = &cand;
    }
    const Shape outShape =
        other != nullptr ? broadcast(a.shape, other->shape) : a.shape;
    const bool intSafe = !a.mayNaN && a.bound <= 1e12;
    const std::int64_t pick = structRng_.nextInt(0, 13);
    if (other != nullptr) {
      Val& o = *other;
      const DType promoted = promoteTypes(a.dtype, o.dtype);
      const bool arithOk = promoted != DType::Bool && a.bound <= 1e14 &&
                           o.bound <= 1e14;
      const double sum = a.bound + o.bound;
      const bool nan = a.mayNaN || o.mayNaN;
      switch (pick) {
        case 0:
        case 1:
          if (arithOk) {
            push(b.add(a.v, o.v), outShape, promoted, sum, nan);
            return;
          }
          break;
        case 2:
          if (arithOk) {
            push(b.sub(a.v, o.v), outShape, promoted, sum, nan);
            return;
          }
          break;
        case 3:
        case 4:
          // Int64 products must stay far from overflow: the wrap is UB in
          // the double→int64 rounding on both execution paths.
          if (arithOk &&
              (promoted != DType::Int64 || a.bound * o.bound <= 1e14)) {
            push(b.mul(a.v, o.v), outShape, promoted,
                 a.bound * o.bound, nan);
            return;
          }
          break;
        case 5:
          // Division by a random value: ±inf and 0/0 NaN are legal fuzz
          // outputs (allClose treats NaN==NaN and inf==inf as equal).
          push(b.div(a.v, o.v), outShape, DType::Float32, 1e300, true);
          return;
        case 6:
          if (arithOk) {
            push(b.minimum(a.v, o.v), outShape, promoted,
                 std::max(a.bound, o.bound), nan);
            return;
          }
          break;
        case 7:
          if (arithOk) {
            push(b.maximum(a.v, o.v), outShape, promoted,
                 std::max(a.bound, o.bound), nan);
            return;
          }
          break;
        case 8:
          push(b.gt(a.v, o.v), outShape, DType::Bool, 1.0, false);
          return;
        case 9:
          push(b.le(a.v, o.v), outShape, DType::Bool, 1.0, false);
          return;
        case 10:
          push(b.eq(a.v, o.v), outShape, DType::Bool, 1.0, false);
          return;
        case 11:
          push(b.logicalAnd(a.v, o.v), outShape, DType::Bool, 1.0, false);
          return;
        default:
          break;
      }
    }
    // Unary (also the fallback when the binary pick was unsafe).
    switch (pick % 8) {
      case 0:
        if (a.dtype != DType::Bool && a.bound <= 1e14) {
          push(b.neg(a.v), a.shape, a.dtype, a.bound, a.mayNaN);
          return;
        }
        break;
      case 1:
        push(b.relu(a.v), a.shape, a.dtype, a.bound, /*mayNaN=*/false);
        return;
      case 2:
        push(b.sigmoid(a.v), a.shape, DType::Float32, 1.0, a.mayNaN);
        return;
      case 3:
        push(b.tanh(a.v), a.shape, DType::Float32, 1.0, a.mayNaN);
        return;
      case 4:
        if (a.bound <= 8) {
          push(b.exp(a.v), a.shape, DType::Float32, 3000.0, a.mayNaN);
          return;
        }
        break;
      case 5:
        // sqrt of a negative is NaN: legal, tracked.
        push(b.sqrt(a.v), a.shape, DType::Float32,
             std::sqrt(std::max(a.bound, 1.0)), true);
        return;
      case 6:
        if (intSafe) {
          push(b.cast(a.v, DType::Int64), a.shape, DType::Int64, a.bound,
               false);
          return;
        }
        break;
      default:
        break;
    }
    push(b.logicalNot(a.v), a.shape, DType::Bool, 1.0, false);
  }

  Value* makeAccess(IRBuilder& b, Value* base, OpKind rule,
                    std::vector<Value*> dyn) {
    std::vector<Value*> inputs{base};
    inputs.insert(inputs.end(), dyn.begin(), dyn.end());
    Node* n = b.emitNode(OpKind::Access, std::move(inputs), 1);
    n->attrs().set("view", Scalar(static_cast<std::int64_t>(rule)));
    lastNode_ = n;
    return n->output();
  }

  void emitAccess(IRBuilder& b, Built& built) {
    Val& base = pickLive();
    const auto rank = static_cast<std::int64_t>(base.shape.size());
    if (rank == 0) {
      emitEwise(b);
      return;
    }
    switch (structRng_.nextInt(0, 6)) {
      case 0: {  // select, dynamic index (sometimes negative)
        const std::int64_t dim = structRng_.nextInt(0, rank - 1);
        const std::int64_t extent =
            base.shape[static_cast<std::size_t>(dim)];
        std::int64_t idx = dataRng_.nextInt(0, extent - 1);
        if (dataRng_.nextBool(0.3)) idx -= extent;  // negative, still valid
        Value* out = makeAccess(b, base.v, OpKind::Select,
                                {addScalarParam(built, idx)});
        lastNode_->attrs().set("dim", Scalar(dim));
        Shape s = base.shape;
        s.erase(s.begin() + dim);
        push(out, std::move(s), base.dtype, base.bound, base.mayNaN);
        return;
      }
      case 1: {  // slice with structurally-fixed output extent
        const std::int64_t dim = structRng_.nextInt(0, rank - 1);
        const std::int64_t extent =
            base.shape[static_cast<std::size_t>(dim)];
        const std::int64_t step = structRng_.nextInt(1, 2);
        const std::int64_t maxLen = (extent - 1) / step + 1;
        const std::int64_t len = structRng_.nextInt(1, maxLen);
        const std::int64_t covered = (len - 1) * step + 1;
        std::int64_t start = dataRng_.nextInt(0, extent - covered);
        std::int64_t end = start + covered;
        if (dataRng_.nextBool(0.3)) start -= extent;  // negative form
        if (dataRng_.nextBool(0.3) && end < extent) end -= extent;
        Value* out = makeAccess(b, base.v, OpKind::Slice,
                                {addScalarParam(built, start),
                                 addScalarParam(built, end)});
        lastNode_->attrs().set("dim", Scalar(dim));
        lastNode_->attrs().set("step", Scalar(step));
        Shape s = base.shape;
        s[static_cast<std::size_t>(dim)] = len;
        push(out, std::move(s), base.dtype, base.bound, base.mayNaN);
        return;
      }
      case 2: {  // transpose
        const std::int64_t d0 = structRng_.nextInt(0, rank - 1);
        const std::int64_t d1 = structRng_.nextInt(0, rank - 1);
        Value* out = makeAccess(b, base.v, OpKind::Transpose, {});
        lastNode_->attrs().set("dim0", Scalar(d0));
        lastNode_->attrs().set("dim1", Scalar(d1));
        Shape s = base.shape;
        std::swap(s[static_cast<std::size_t>(d0)],
                  s[static_cast<std::size_t>(d1)]);
        push(out, std::move(s), base.dtype, base.bound, base.mayNaN);
        return;
      }
      case 3: {  // permute
        std::vector<std::int64_t> dims(static_cast<std::size_t>(rank));
        for (std::int64_t i = 0; i < rank; ++i)
          dims[static_cast<std::size_t>(i)] = i;
        for (std::int64_t i = rank - 1; i > 0; --i)
          std::swap(dims[static_cast<std::size_t>(i)],
                    dims[static_cast<std::size_t>(
                        structRng_.nextInt(0, i))]);
        Value* out = makeAccess(b, base.v, OpKind::Permute, {});
        lastNode_->attrs().set("dims", dims);
        Shape s(base.shape.size());
        for (std::size_t i = 0; i < s.size(); ++i)
          s[i] = base.shape[static_cast<std::size_t>(dims[i])];
        push(out, std::move(s), base.dtype, base.bound, base.mayNaN);
        return;
      }
      case 4: {  // reshape (flatten to 1-D or split into two factors)
        const std::int64_t numel = numelOf(base.shape);
        Shape sizes;
        if (structRng_.nextBool() || numel <= 1) {
          sizes = {numel};
        } else {
          std::int64_t a = 1;
          for (std::int64_t f = 2; f * f <= numel; ++f)
            if (numel % f == 0) a = f;
          if (a == 1) a = numel;
          sizes = {a, numel / a};
        }
        Value* out = makeAccess(b, base.v, OpKind::Reshape, {});
        lastNode_->attrs().set(
            "sizes", std::vector<std::int64_t>(sizes.begin(), sizes.end()));
        push(out, std::move(sizes), base.dtype, base.bound, base.mayNaN);
        return;
      }
      case 5: {  // unsqueeze
        const std::int64_t dim = structRng_.nextInt(0, rank);
        Value* out = makeAccess(b, base.v, OpKind::Unsqueeze, {});
        lastNode_->attrs().set("dim", Scalar(dim));
        Shape s = base.shape;
        s.insert(s.begin() + dim, 1);
        push(out, std::move(s), base.dtype, base.bound, base.mayNaN);
        return;
      }
      default: {  // expand a size-1 dim (or fall back when none)
        std::int64_t oneDim = -1;
        for (std::size_t i = 0; i < base.shape.size(); ++i)
          if (base.shape[i] == 1) oneDim = static_cast<std::int64_t>(i);
        if (oneDim < 0) {
          emitEwise(b);
          return;
        }
        Shape sizes = base.shape;
        sizes[static_cast<std::size_t>(oneDim)] = structRng_.nextInt(2, 4);
        Value* out = makeAccess(b, base.v, OpKind::Expand, {});
        lastNode_->attrs().set(
            "sizes", std::vector<std::int64_t>(sizes.begin(), sizes.end()));
        push(out, std::move(sizes), base.dtype, base.bound, base.mayNaN);
        return;
      }
    }
  }

  void emitAssign(IRBuilder& b, Built& built) {
    Val& base = pickLive();
    const auto rank = static_cast<std::int64_t>(base.shape.size());
    if (rank == 0) {
      emitEwise(b);
      return;
    }
    // The written view's shape under the chosen rule, plus dynamic operands.
    OpKind rule = OpKind::Identity;
    Shape viewShape = base.shape;
    std::int64_t dim = 0;
    std::int64_t step = 1;
    std::vector<std::int64_t> dynVals;
    switch (structRng_.nextInt(0, 3)) {
      case 0:
        break;  // identity
      case 1: {
        rule = OpKind::Select;
        dim = structRng_.nextInt(0, rank - 1);
        const std::int64_t extent =
            base.shape[static_cast<std::size_t>(dim)];
        std::int64_t idx = dataRng_.nextInt(0, extent - 1);
        if (dataRng_.nextBool(0.3)) idx -= extent;
        dynVals.push_back(idx);
        viewShape.erase(viewShape.begin() + dim);
        break;
      }
      case 2: {
        rule = OpKind::Slice;
        dim = structRng_.nextInt(0, rank - 1);
        const std::int64_t extent =
            base.shape[static_cast<std::size_t>(dim)];
        step = structRng_.nextInt(1, 2);
        const std::int64_t maxLen = (extent - 1) / step + 1;
        const std::int64_t len = structRng_.nextInt(1, maxLen);
        const std::int64_t covered = (len - 1) * step + 1;
        const std::int64_t start = dataRng_.nextInt(0, extent - covered);
        dynVals.push_back(start);
        dynVals.push_back(start + covered);
        viewShape[static_cast<std::size_t>(dim)] = len;
        break;
      }
      default: {
        rule = OpKind::Transpose;
        dim = structRng_.nextInt(0, rank - 1);
        step = structRng_.nextInt(0, rank - 1);  // reused as dim1
        std::swap(viewShape[static_cast<std::size_t>(dim)],
                  viewShape[static_cast<std::size_t>(step)]);
        break;
      }
    }
    // Source: any live value broadcastable INTO the view (ranks must not
    // exceed the view's); fall back to identity self-assign when none fits.
    Val* src = nullptr;
    for (int tries = 0; tries < 4 && src == nullptr; ++tries) {
      Val& cand = pickLive();
      if (cand.shape.size() > viewShape.size() ||
          !broadcastable(cand.shape, viewShape) ||
          broadcast(cand.shape, viewShape) != viewShape)
        continue;
      // Written elements round to the base dtype: a NaN or huge source
      // into an Int64 base would be UB in that conversion.
      if (base.dtype == DType::Int64 && (cand.mayNaN || cand.bound > 1e14))
        continue;
      src = &cand;
    }
    if (src == nullptr) {
      rule = OpKind::Identity;
      dynVals.clear();
      src = &base;
    }
    std::vector<Value*> inputs{base.v, src->v};
    for (std::int64_t v : dynVals) inputs.push_back(addScalarParam(built, v));
    Node* n = b.emitNode(OpKind::Assign, std::move(inputs), 1);
    n->attrs().set("view", Scalar(static_cast<std::int64_t>(rule)));
    if (rule == OpKind::Select) {
      n->attrs().set("dim", Scalar(dim));
    } else if (rule == OpKind::Slice) {
      n->attrs().set("dim", Scalar(dim));
      n->attrs().set("step", Scalar(step));
    } else if (rule == OpKind::Transpose) {
      n->attrs().set("dim0", Scalar(dim));
      n->attrs().set("dim1", Scalar(step));
    }
    push(n->output(), base.shape, base.dtype,
         std::max(base.bound, src->bound), base.mayNaN || src->mayNaN);
  }

  Graph& graph_;
  Rng& structRng_;
  Rng& dataRng_;
  Node* group_ = nullptr;
  Block* body_ = nullptr;
  Node* lastNode_ = nullptr;
  std::vector<Val> live_;
  std::vector<Val> produced_;  ///< node outputs, returned in order
};

/// A strided view of a base tensor, kept as the recipe that derives it so
/// the same layout can be rebuilt over a copy of the base (`on`): kernel
/// and reference then write through identical views of separate storage,
/// and the two bases compare bytewise.
struct ViewRecipe {
  Shape perm;                   ///< base.permute(perm) puts dims in order
  std::int64_t selectDim = -1;  ///< an extra dim selected away (-1: none)
  std::int64_t selectIndex = 0;
  /// Per remaining dim: slice(start, start + len * step, step); step 0
  /// leaves the dim untouched.
  Shape sliceStart, sliceStep, sliceLen;
  Shape expandTo;  ///< empty: no expand

  Tensor on(const Tensor& base) const {
    Tensor t = base.permute(perm);
    if (selectDim >= 0) t = t.select(selectDim, selectIndex);
    for (std::size_t d = 0; d < sliceStep.size(); ++d) {
      if (sliceStep[d] == 0) continue;
      t = t.slice(static_cast<std::int64_t>(d), sliceStart[d],
                  sliceStart[d] + sliceLen[d] * sliceStep[d], sliceStep[d]);
    }
    return expandTo.empty() ? t : t.expand(expandTo);
  }
};

/// Random tensors for kernel-level differential tests: shapes of rank 0-4
/// with extents 0 and 1 among them, reached through random chains of
/// permute/transpose, select, slice and expand views of a fresh base, in
/// Float32, Int64 or Bool. Float32 values include NaN, ±inf and -0.0 unless
/// `finite` is set (casts into Int64 need finite values); Int64 values are
/// small, so every conversion through double is exact.
class ViewedTensorGenerator {
 public:
  explicit ViewedTensorGenerator(Rng& rng) : rng_(rng) {}

  struct Viewed {
    Tensor base;  ///< contiguous storage owner
    ViewRecipe recipe;
    Tensor view() const { return recipe.on(base); }
  };

  DType dtype() {
    static constexpr DType kAll[] = {DType::Float32, DType::Int64,
                                     DType::Bool};
    return kAll[rng_.nextInt(0, 2)];
  }

  /// Rank 0-`maxRank`, extents drawn from {0, 1, 1, 2, 3, 4, 5}.
  Shape shape(int maxRank = 4) {
    static constexpr std::int64_t kExtents[] = {0, 1, 1, 2, 3, 4, 5};
    Shape s(static_cast<std::size_t>(rng_.nextInt(0, maxRank)));
    for (std::int64_t& e : s) e = kExtents[rng_.nextInt(0, 6)];
    return s;
  }

  /// `to` with some dims collapsed to 1 and some leading dims dropped: a
  /// shape that broadcasts to `to`.
  Shape broadcastableTo(const Shape& to) {
    const auto drop = static_cast<std::size_t>(
        rng_.nextInt(0, static_cast<std::int64_t>(to.size())));
    Shape s(to.begin() + static_cast<std::ptrdiff_t>(drop), to.end());
    for (std::int64_t& e : s)
      if (rng_.nextBool(0.3)) e = 1;
    return s;
  }

  /// A contiguous tensor of fresh values.
  Tensor values(const Shape& sizes, DType dtype, bool finite) {
    Tensor t = Tensor::empty(sizes, dtype);
    const std::int64_t n = t.numel();
    switch (dtype) {
      case DType::Float32: {
        float* p = t.data<float>();
        for (std::int64_t i = 0; i < n; ++i) p[i] = floatValue(finite);
        break;
      }
      case DType::Int64: {
        std::int64_t* p = t.data<std::int64_t>();
        for (std::int64_t i = 0; i < n; ++i) p[i] = rng_.nextInt(-6, 6);
        break;
      }
      case DType::Bool: {
        std::uint8_t* p = t.data<std::uint8_t>();
        for (std::int64_t i = 0; i < n; ++i) p[i] = rng_.nextBool() ? 1 : 0;
        break;
      }
    }
    return t;
  }

  /// A view of exactly `sizes` over a fresh base of its own layout: dims
  /// permuted in storage, sliced with an offset and step, an extra dim
  /// selected away, or (unless `writable`) broadcast from extent 1 by
  /// expand — each at random.
  Viewed viewOf(const Shape& sizes, DType dtype, bool finite,
                bool writable = false) {
    const std::size_t rank = sizes.size();
    ViewRecipe r;
    // Dims of the permuted-back base: `rank` target dims plus maybe one
    // extra dim at `selectDim` that select removes.
    Shape ordered;
    const bool expand = !writable && rank > 0 && rng_.nextBool(0.25);
    Shape pre(rank);  // extent of each target dim before expand
    for (std::size_t d = 0; d < rank; ++d)
      pre[d] = expand && rng_.nextBool(0.5) ? 1 : sizes[d];
    if (expand) r.expandTo = sizes;
    r.sliceStart.assign(rank, 0);
    r.sliceStep.assign(rank, 0);
    r.sliceLen.assign(rank, 0);
    for (std::size_t d = 0; d < rank; ++d) {
      std::int64_t extent = pre[d];
      if (pre[d] > 0 && rng_.nextBool(0.3)) {
        r.sliceStep[d] = rng_.nextInt(1, 2);
        r.sliceStart[d] = rng_.nextInt(0, 2);
        r.sliceLen[d] = pre[d];
        extent = r.sliceStart[d] + pre[d] * r.sliceStep[d] + rng_.nextInt(0, 1);
      }
      ordered.push_back(extent);
    }
    if (rng_.nextBool(0.3)) {
      r.selectDim = rng_.nextInt(0, static_cast<std::int64_t>(rank));
      const std::int64_t extent = rng_.nextInt(1, 3);
      r.selectIndex = rng_.nextInt(0, extent - 1);
      ordered.insert(ordered.begin() + r.selectDim, extent);
    }
    // Store the dims in a random order; permute(perm) restores `ordered`.
    Shape storageOrder(ordered.size());
    std::iota(storageOrder.begin(), storageOrder.end(), 0);
    std::shuffle(storageOrder.begin(), storageOrder.end(), rng_.engine());
    Shape stored(ordered.size());
    for (std::size_t i = 0; i < ordered.size(); ++i)
      stored[i] = ordered[static_cast<std::size_t>(storageOrder[i])];
    r.perm.assign(ordered.size(), 0);
    for (std::size_t i = 0; i < ordered.size(); ++i)
      r.perm[static_cast<std::size_t>(storageOrder[i])] =
          static_cast<std::int64_t>(i);
    Viewed v{values(stored, dtype, finite), r};
    TSSA_CHECK(v.view().sizes() == sizes, "ViewedTensorGenerator shape");
    return v;
  }

 private:
  float floatValue(bool finite) {
    if (rng_.nextBool(0.15)) {
      static constexpr float kSpecial[] = {
          0.0f, -0.0f, 1.0f, std::numeric_limits<float>::infinity(),
          -std::numeric_limits<float>::infinity(),
          std::numeric_limits<float>::quiet_NaN()};
      return kSpecial[rng_.nextInt(0, finite ? 2 : 5)];
    }
    // Some integral values, so max/min/argmax see ties.
    if (rng_.nextBool(0.2)) return static_cast<float>(rng_.nextInt(-3, 3));
    return static_cast<float>(rng_.nextDouble(-4, 4));
  }

  Rng& rng_;
};

/// One step of a randomized cache schedule: worker `thread` looks up key
/// index `key`; if that lookup wins the compile (single-flight miss), the
/// compile sleeps `compileDelayUs` and throws iff `failCompile` — failures
/// exercise the negative-cache generation logic, delays stretch the
/// single-flight window so other workers pile onto the rendezvous.
struct CacheScheduleStep {
  std::size_t thread = 0;
  std::size_t key = 0;
  bool failCompile = false;
  int compileDelayUs = 0;
};

/// Random schedule generator for concurrent ProgramCache property tests
/// (lookup / evict / negative-entry interleavings). The schedule is data,
/// not timing: the test replays per-thread step lists concurrently and
/// asserts the cache's invariants (at most one compile per key per
/// generation) over whatever real interleaving occurs — every seed is a
/// different stress pattern, and a failing seed reproduces the pattern.
class ScheduleGenerator {
 public:
  struct Options {
    std::size_t threads = 4;
    std::size_t keys = 3;          ///< distinct program keys in play
    std::size_t steps = 64;        ///< total lookups across all threads
    double failProbability = 0.3;  ///< chance a won compile throws
    int maxCompileDelayUs = 400;   ///< won compiles sleep up to this long
  };

  explicit ScheduleGenerator(Rng& rng) : rng_(rng) {}

  /// Flat schedule in program order; steps are round-robin-free (thread
  /// assignment is random, so some threads are hot and some idle — the
  /// interesting case for rendezvous pile-ups).
  std::vector<CacheScheduleStep> generate(const Options& options) {
    std::vector<CacheScheduleStep> schedule;
    schedule.reserve(options.steps);
    for (std::size_t s = 0; s < options.steps; ++s) {
      CacheScheduleStep step;
      step.thread = static_cast<std::size_t>(rng_.nextInt(
          0, static_cast<std::int64_t>(options.threads) - 1));
      step.key = static_cast<std::size_t>(
          rng_.nextInt(0, static_cast<std::int64_t>(options.keys) - 1));
      step.failCompile = rng_.nextBool(options.failProbability);
      step.compileDelayUs =
          static_cast<int>(rng_.nextInt(0, options.maxCompileDelayUs));
      schedule.push_back(step);
    }
    return schedule;
  }

  /// The same schedule split into per-thread step lists (each preserves
  /// program order within its thread).
  static std::vector<std::vector<CacheScheduleStep>> perThread(
      const std::vector<CacheScheduleStep>& schedule, std::size_t threads) {
    std::vector<std::vector<CacheScheduleStep>> lanes(threads);
    for (const CacheScheduleStep& step : schedule)
      lanes[step.thread].push_back(step);
    return lanes;
  }

 private:
  Rng& rng_;
};

}  // namespace tssa::testing_support
