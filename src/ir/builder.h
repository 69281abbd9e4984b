// IRBuilder: insertion-point-based construction of graph-level IR.
//
// Operand conventions (what is a Value input vs. a static attribute):
// anything that can be data- or loop-dependent (select indices, slice bounds,
// scalar fill values, loop trip counts) is a Value input; static
// configuration (dims, sizes, dtypes, keepdim flags) is an attribute.
//
//   aten::select(t, index:int)            attrs: dim
//   aten::slice(t, start:int, end:int)    attrs: dim, step
//   aten::reshape(t)                      attrs: sizes
//   aten::permute(t)                      attrs: dims
//   aten::transpose(t)                    attrs: dim0, dim1
//   aten::expand(t)                       attrs: sizes
//   aten::squeeze/unsqueeze(t)            attrs: dim
//   aten::flatten(t)                      attrs: start_dim, end_dim
//   immut::access(base, view-operands...)       attrs: view op's attrs + view
//   immut::assign(base, src, view-operands...)  attrs: view op's attrs + view
#pragma once

#include <string>
#include <vector>

#include "src/ir/ir.h"

namespace tssa::ir {

class IRBuilder {
 public:
  explicit IRBuilder(Graph& graph) : graph_(graph) {
    setInsertionPointToEnd(graph.topBlock());
  }

  Graph& graph() const { return graph_; }

  // ---- Insertion point ------------------------------------------------------
  /// New nodes are inserted immediately before `anchor`.
  void setInsertionPoint(Node* anchor) { insertBefore_ = anchor; }
  void setInsertionPointToEnd(Block* block) {
    insertBefore_ = block->returnNode();
  }
  Node* insertionPoint() const { return insertBefore_; }

  /// Inserts an already-created node at the insertion point.
  Node* insert(Node* node) {
    node->insertBefore(insertBefore_);
    return node;
  }

  /// Creates and inserts a node; the single-output overloads return the value.
  Node* emitNode(OpKind kind, std::vector<Value*> inputs,
                 std::size_t numOutputs = 1);
  Value* emit(OpKind kind, std::vector<Value*> inputs);

  // ---- Constants ---------------------------------------------------------------
  Value* constInt(std::int64_t v);
  Value* constFloat(double v);
  Value* constBool(bool v);
  Value* constTensor(Tensor t);

  // ---- Scalar arithmetic ----------------------------------------------------------
  /// `aten::size(t)` with attr dim: the runtime extent of one dimension as a
  /// scalar int. This is how symbolic-dim graphs stay shape-polymorphic:
  /// trip counts and dynamic factory sizes are read off the inputs instead
  /// of being baked in as constants.
  Value* sizeOf(Value* t, std::int64_t dim);
  Value* scalarAdd(Value* a, Value* b);
  Value* scalarMul(Value* a, Value* b);
  Value* scalarGe(Value* a, Value* b);
  Value* scalarEq(Value* a, Value* b);

  // ---- Elementwise compute -----------------------------------------------------------
  Value* add(Value* a, Value* b) { return emit(OpKind::Add, {a, b}); }
  Value* sub(Value* a, Value* b) { return emit(OpKind::Sub, {a, b}); }
  Value* mul(Value* a, Value* b) { return emit(OpKind::Mul, {a, b}); }
  Value* div(Value* a, Value* b) { return emit(OpKind::Div, {a, b}); }
  Value* pow(Value* a, Value* b) { return emit(OpKind::Pow, {a, b}); }
  Value* minimum(Value* a, Value* b) { return emit(OpKind::Minimum, {a, b}); }
  Value* maximum(Value* a, Value* b) { return emit(OpKind::Maximum, {a, b}); }
  Value* neg(Value* a) { return emit(OpKind::Neg, {a}); }
  Value* exp(Value* a) { return emit(OpKind::Exp, {a}); }
  Value* log(Value* a) { return emit(OpKind::Log, {a}); }
  Value* sqrt(Value* a) { return emit(OpKind::Sqrt, {a}); }
  Value* abs(Value* a) { return emit(OpKind::Abs, {a}); }
  Value* sigmoid(Value* a) { return emit(OpKind::Sigmoid, {a}); }
  Value* tanh(Value* a) { return emit(OpKind::Tanh, {a}); }
  Value* relu(Value* a) { return emit(OpKind::Relu, {a}); }
  Value* clamp(Value* a, Scalar lo, Scalar hi);
  Value* cast(Value* a, DType dtype);
  Value* where(Value* cond, Value* a, Value* b) {
    return emit(OpKind::Where, {cond, a, b});
  }
  Value* maskedFill(Value* a, Value* mask, Value* value) {
    return emit(OpKind::MaskedFill, {a, mask, value});
  }
  Value* logicalAnd(Value* a, Value* b) {
    return emit(OpKind::LogicalAnd, {a, b});
  }
  Value* logicalOr(Value* a, Value* b) {
    return emit(OpKind::LogicalOr, {a, b});
  }
  Value* logicalNot(Value* a) { return emit(OpKind::LogicalNot, {a}); }
  Value* eq(Value* a, Value* b) { return emit(OpKind::Eq, {a, b}); }
  Value* lt(Value* a, Value* b) { return emit(OpKind::Lt, {a, b}); }
  Value* le(Value* a, Value* b) { return emit(OpKind::Le, {a, b}); }
  Value* gt(Value* a, Value* b) { return emit(OpKind::Gt, {a, b}); }
  Value* ge(Value* a, Value* b) { return emit(OpKind::Ge, {a, b}); }

  // ---- Reductions / linalg ------------------------------------------------------------
  Value* sum(Value* a) { return emit(OpKind::Sum, {a}); }
  Value* sumDim(Value* a, std::int64_t dim, bool keepDim = false);
  Value* mean(Value* a, std::int64_t dim, bool keepDim = false);
  Value* maxDim(Value* a, std::int64_t dim, bool keepDim = false);
  Value* minDim(Value* a, std::int64_t dim, bool keepDim = false);
  Value* argmax(Value* a, std::int64_t dim, bool keepDim = false);
  Value* softmax(Value* a, std::int64_t dim);
  Value* cumsum(Value* a, std::int64_t dim);
  Value* matmul(Value* a, Value* b) { return emit(OpKind::Matmul, {a, b}); }
  Value* bmm(Value* a, Value* b) { return emit(OpKind::Bmm, {a, b}); }

  // ---- Shape / data movement ------------------------------------------------------------
  Value* listConstruct(std::vector<Value*> elems);
  Value* cat(std::vector<Value*> tensors, std::int64_t dim);
  Value* stack(std::vector<Value*> tensors, std::int64_t dim);
  Value* indexSelect(Value* a, std::int64_t dim, Value* index);
  Value* gather(Value* a, std::int64_t dim, Value* index);
  Node* topk(Value* a, std::int64_t k);  // outputs: values, indices
  Value* argsort(Value* a, bool descending);
  Value* clone(Value* a) { return emit(OpKind::Clone, {a}); }

  // ---- Factories ---------------------------------------------------------------------------
  Value* zeros(std::vector<std::int64_t> sizes, DType dtype = DType::Float32);
  Value* ones(std::vector<std::int64_t> sizes, DType dtype = DType::Float32);
  Value* full(std::vector<std::int64_t> sizes, Value* value,
              DType dtype = DType::Float32);
  Value* arange(Value* start, Value* end, Value* step);

  // Dynamic-extent variants: `sizes` holds -1 at each runtime-determined
  // position; `dynSizes` supplies those extents as scalar int Values, in
  // order, appended as trailing operands. The node carries a "dyn" attr so
  // consumers can tell these -1s from aten::reshape's static infer sentinel.
  Value* zeros(std::vector<std::int64_t> sizes, std::vector<Value*> dynSizes,
               DType dtype = DType::Float32);
  Value* ones(std::vector<std::int64_t> sizes, std::vector<Value*> dynSizes,
              DType dtype = DType::Float32);

  // ---- Views -----------------------------------------------------------------------------
  Value* select(Value* t, std::int64_t dim, Value* index);
  Value* slice(Value* t, std::int64_t dim, Value* start, Value* end,
               std::int64_t step = 1);
  Value* reshape(Value* t, std::vector<std::int64_t> sizes);
  Value* reshape(Value* t, std::vector<std::int64_t> sizes,
                 std::vector<Value*> dynSizes);
  Value* permute(Value* t, std::vector<std::int64_t> dims);
  Value* transpose(Value* t, std::int64_t d0, std::int64_t d1);
  Value* expand(Value* t, std::vector<std::int64_t> sizes);
  Value* expand(Value* t, std::vector<std::int64_t> sizes,
                std::vector<Value*> dynSizes);
  Value* squeeze(Value* t, std::int64_t dim);
  Value* unsqueeze(Value* t, std::int64_t dim);
  Value* flatten(Value* t, std::int64_t startDim = 0,
                 std::int64_t endDim = -1);

  // ---- Mutation ---------------------------------------------------------------------------
  /// In-place ops return the node; output(0) is the mutated alias of input 0.
  Node* copy_(Value* dst, Value* src);
  Node* fill_(Value* dst, Value* value);
  Node* zero_(Value* dst);
  Node* add_(Value* dst, Value* other);
  Node* sub_(Value* dst, Value* other);
  Node* mul_(Value* dst, Value* other);
  Node* div_(Value* dst, Value* other);
  Node* relu_(Value* dst);
  Node* sigmoid_(Value* dst);
  Node* tanh_(Value* dst);
  Node* maskedFill_(Value* dst, Value* mask, Value* value);

  // ---- Control flow ---------------------------------------------------------------------------
  /// Creates `prim::If(cond)` with `numOutputs` outputs and two empty blocks.
  Node* makeIf(Value* cond, std::size_t numOutputs);
  /// Creates `prim::Loop(tripCount, carried...)`; the body block has params
  /// (i:int, carried...) and the node has one output per carried value.
  Node* makeLoop(Value* tripCount, std::vector<Value*> carried);

 private:
  Graph& graph_;
  Node* insertBefore_ = nullptr;
};

/// RAII guard restoring the builder's insertion point.
class InsertionGuard {
 public:
  explicit InsertionGuard(IRBuilder& builder)
      : builder_(builder), saved_(builder.insertionPoint()) {}
  ~InsertionGuard() { builder_.setInsertionPoint(saved_); }
  InsertionGuard(const InsertionGuard&) = delete;
  InsertionGuard& operator=(const InsertionGuard&) = delete;

 private:
  IRBuilder& builder_;
  Node* saved_;
};

}  // namespace tssa::ir
