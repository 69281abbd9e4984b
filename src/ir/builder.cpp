#include "src/ir/builder.h"

namespace tssa::ir {

Node* IRBuilder::emitNode(OpKind kind, std::vector<Value*> inputs,
                          std::size_t numOutputs) {
  Node* n = graph_.create(kind, inputs, numOutputs);
  return insert(n);
}

Value* IRBuilder::emit(OpKind kind, std::vector<Value*> inputs) {
  return emitNode(kind, std::move(inputs), 1)->output();
}

// ---- Constants -----------------------------------------------------------------

Value* IRBuilder::constInt(std::int64_t v) {
  Node* n = emitNode(OpKind::Constant, {}, 1);
  n->attrs().set("value", Scalar(v));
  n->output()->setType(Type::integer());
  return n->output();
}

Value* IRBuilder::constFloat(double v) {
  Node* n = emitNode(OpKind::Constant, {}, 1);
  n->attrs().set("value", Scalar(v));
  n->output()->setType(Type::floating());
  return n->output();
}

Value* IRBuilder::constBool(bool v) {
  Node* n = emitNode(OpKind::Constant, {}, 1);
  n->attrs().set("value", Scalar(v));
  n->output()->setType(Type::boolean());
  return n->output();
}

Value* IRBuilder::constTensor(Tensor t) {
  Node* n = emitNode(OpKind::Constant, {}, 1);
  n->output()->setType(Type::tensor(t.dtype()));
  n->attrs().set("tensor", std::move(t));
  return n->output();
}

// ---- Scalars ---------------------------------------------------------------------

namespace {
Value* scalarBinary(IRBuilder& b, OpKind kind, Value* x, Value* y, Type type) {
  Node* n = b.emitNode(kind, {x, y}, 1);
  n->output()->setType(type);
  return n->output();
}
}  // namespace

Value* IRBuilder::sizeOf(Value* t, std::int64_t dim) {
  Node* n = emitNode(OpKind::SizeOf, {t}, 1);
  n->attrs().set("dim", Scalar(dim));
  n->output()->setType(Type::integer());
  return n->output();
}

Value* IRBuilder::scalarAdd(Value* a, Value* b) {
  return scalarBinary(*this, OpKind::ScalarAdd, a, b, Type::integer());
}
Value* IRBuilder::scalarMul(Value* a, Value* b) {
  return scalarBinary(*this, OpKind::ScalarMul, a, b, Type::integer());
}
Value* IRBuilder::scalarGe(Value* a, Value* b) {
  return scalarBinary(*this, OpKind::ScalarGe, a, b, Type::boolean());
}
Value* IRBuilder::scalarEq(Value* a, Value* b) {
  return scalarBinary(*this, OpKind::ScalarEq, a, b, Type::boolean());
}

// ---- Elementwise with attrs ----------------------------------------------------------

Value* IRBuilder::clamp(Value* a, Scalar lo, Scalar hi) {
  Node* n = emitNode(OpKind::Clamp, {a}, 1);
  n->attrs().set("lo", lo);
  n->attrs().set("hi", hi);
  return n->output();
}

Value* IRBuilder::cast(Value* a, DType dtype) {
  Node* n = emitNode(OpKind::Cast, {a}, 1);
  n->attrs().set("dtype", dtype);
  n->output()->setType(Type::tensor(dtype));
  return n->output();
}

// ---- Reductions ----------------------------------------------------------------------

namespace {
Value* dimReduce(IRBuilder& b, OpKind kind, Value* a, std::int64_t dim,
                 bool keepDim) {
  Node* n = b.emitNode(kind, {a}, 1);
  n->attrs().set("dim", Scalar(dim));
  n->attrs().set("keepdim", Scalar(keepDim));
  return n->output();
}
}  // namespace

Value* IRBuilder::sumDim(Value* a, std::int64_t dim, bool keepDim) {
  return dimReduce(*this, OpKind::SumDim, a, dim, keepDim);
}
Value* IRBuilder::mean(Value* a, std::int64_t dim, bool keepDim) {
  return dimReduce(*this, OpKind::Mean, a, dim, keepDim);
}
Value* IRBuilder::maxDim(Value* a, std::int64_t dim, bool keepDim) {
  return dimReduce(*this, OpKind::MaxDim, a, dim, keepDim);
}
Value* IRBuilder::minDim(Value* a, std::int64_t dim, bool keepDim) {
  return dimReduce(*this, OpKind::MinDim, a, dim, keepDim);
}
Value* IRBuilder::argmax(Value* a, std::int64_t dim, bool keepDim) {
  Value* v = dimReduce(*this, OpKind::Argmax, a, dim, keepDim);
  v->setType(Type::tensor(DType::Int64));
  return v;
}

Value* IRBuilder::softmax(Value* a, std::int64_t dim) {
  Node* n = emitNode(OpKind::Softmax, {a}, 1);
  n->attrs().set("dim", Scalar(dim));
  return n->output();
}

Value* IRBuilder::cumsum(Value* a, std::int64_t dim) {
  Node* n = emitNode(OpKind::Cumsum, {a}, 1);
  n->attrs().set("dim", Scalar(dim));
  return n->output();
}

// ---- Shape / data movement -----------------------------------------------------------------

Value* IRBuilder::listConstruct(std::vector<Value*> elems) {
  Node* n = emitNode(OpKind::ListConstruct, std::move(elems), 1);
  n->output()->setType(Type::tensorList());
  return n->output();
}

Value* IRBuilder::cat(std::vector<Value*> tensors, std::int64_t dim) {
  Value* list = listConstruct(std::move(tensors));
  Node* n = emitNode(OpKind::Cat, {list}, 1);
  n->attrs().set("dim", Scalar(dim));
  return n->output();
}

Value* IRBuilder::stack(std::vector<Value*> tensors, std::int64_t dim) {
  Value* list = listConstruct(std::move(tensors));
  Node* n = emitNode(OpKind::Stack, {list}, 1);
  n->attrs().set("dim", Scalar(dim));
  return n->output();
}

Value* IRBuilder::indexSelect(Value* a, std::int64_t dim, Value* index) {
  Node* n = emitNode(OpKind::IndexSelect, {a, index}, 1);
  n->attrs().set("dim", Scalar(dim));
  return n->output();
}

Value* IRBuilder::gather(Value* a, std::int64_t dim, Value* index) {
  Node* n = emitNode(OpKind::Gather, {a, index}, 1);
  n->attrs().set("dim", Scalar(dim));
  return n->output();
}

Node* IRBuilder::topk(Value* a, std::int64_t k) {
  Node* n = emitNode(OpKind::Topk, {a}, 2);
  n->attrs().set("k", Scalar(k));
  n->output(1)->setType(Type::tensor(DType::Int64));
  return n;
}

Value* IRBuilder::argsort(Value* a, bool descending) {
  Node* n = emitNode(OpKind::Argsort, {a}, 1);
  n->attrs().set("descending", Scalar(descending));
  n->output()->setType(Type::tensor(DType::Int64));
  return n->output();
}

// ---- Factories ----------------------------------------------------------------------------

namespace {
Value* factory(IRBuilder& b, OpKind kind, std::vector<Value*> inputs,
               std::vector<std::int64_t> sizes, DType dtype) {
  Node* n = b.emitNode(kind, std::move(inputs), 1);
  n->attrs().set("sizes", std::move(sizes));
  n->attrs().set("dtype", dtype);
  n->output()->setType(Type::tensor(dtype));
  return n->output();
}
}  // namespace

Value* IRBuilder::zeros(std::vector<std::int64_t> sizes, DType dtype) {
  return factory(*this, OpKind::Zeros, {}, std::move(sizes), dtype);
}
Value* IRBuilder::ones(std::vector<std::int64_t> sizes, DType dtype) {
  return factory(*this, OpKind::Ones, {}, std::move(sizes), dtype);
}
Value* IRBuilder::full(std::vector<std::int64_t> sizes, Value* value,
                       DType dtype) {
  return factory(*this, OpKind::Full, {value}, std::move(sizes), dtype);
}

namespace {
// Validates the dynamic-size convention (one trailing scalar operand per -1
// placeholder) and stamps the "dyn" marker attr that distinguishes these -1s
// from aten::reshape's static infer sentinel.
void markDynSizes(Node* n, const std::vector<std::int64_t>& sizes,
                  std::size_t numDyn) {
  std::size_t holes = 0;
  for (std::int64_t s : sizes) holes += (s == -1);
  TSSA_CHECK(holes == numDyn, "dynamic-size op wants " << holes
                                                       << " extents but got "
                                                       << numDyn);
  TSSA_CHECK(numDyn > 0, "dynamic-size op without dynamic extents");
  n->attrs().set("dyn", Scalar(static_cast<std::int64_t>(numDyn)));
}
}  // namespace

Value* IRBuilder::zeros(std::vector<std::int64_t> sizes,
                        std::vector<Value*> dynSizes, DType dtype) {
  std::size_t numDyn = dynSizes.size();
  Value* v = factory(*this, OpKind::Zeros, std::move(dynSizes), sizes, dtype);
  markDynSizes(v->definingNode(), sizes, numDyn);
  return v;
}

Value* IRBuilder::ones(std::vector<std::int64_t> sizes,
                       std::vector<Value*> dynSizes, DType dtype) {
  std::size_t numDyn = dynSizes.size();
  Value* v = factory(*this, OpKind::Ones, std::move(dynSizes), sizes, dtype);
  markDynSizes(v->definingNode(), sizes, numDyn);
  return v;
}

Value* IRBuilder::arange(Value* start, Value* end, Value* step) {
  Node* n = emitNode(OpKind::Arange, {start, end, step}, 1);
  n->output()->setType(Type::tensor(DType::Int64));
  return n->output();
}

// ---- Views ----------------------------------------------------------------------------------

Value* IRBuilder::select(Value* t, std::int64_t dim, Value* index) {
  Node* n = emitNode(OpKind::Select, {t, index}, 1);
  n->attrs().set("dim", Scalar(dim));
  return n->output();
}

Value* IRBuilder::slice(Value* t, std::int64_t dim, Value* start, Value* end,
                        std::int64_t step) {
  Node* n = emitNode(OpKind::Slice, {t, start, end}, 1);
  n->attrs().set("dim", Scalar(dim));
  n->attrs().set("step", Scalar(step));
  return n->output();
}

Value* IRBuilder::reshape(Value* t, std::vector<std::int64_t> sizes) {
  Node* n = emitNode(OpKind::Reshape, {t}, 1);
  n->attrs().set("sizes", std::move(sizes));
  return n->output();
}

Value* IRBuilder::reshape(Value* t, std::vector<std::int64_t> sizes,
                          std::vector<Value*> dynSizes) {
  std::vector<Value*> inputs{t};
  inputs.insert(inputs.end(), dynSizes.begin(), dynSizes.end());
  Node* n = emitNode(OpKind::Reshape, std::move(inputs), 1);
  n->attrs().set("sizes", sizes);
  markDynSizes(n, sizes, dynSizes.size());
  return n->output();
}

Value* IRBuilder::permute(Value* t, std::vector<std::int64_t> dims) {
  Node* n = emitNode(OpKind::Permute, {t}, 1);
  n->attrs().set("dims", std::move(dims));
  return n->output();
}

Value* IRBuilder::transpose(Value* t, std::int64_t d0, std::int64_t d1) {
  Node* n = emitNode(OpKind::Transpose, {t}, 1);
  n->attrs().set("dim0", Scalar(d0));
  n->attrs().set("dim1", Scalar(d1));
  return n->output();
}

Value* IRBuilder::expand(Value* t, std::vector<std::int64_t> sizes) {
  Node* n = emitNode(OpKind::Expand, {t}, 1);
  n->attrs().set("sizes", std::move(sizes));
  return n->output();
}

Value* IRBuilder::expand(Value* t, std::vector<std::int64_t> sizes,
                         std::vector<Value*> dynSizes) {
  std::vector<Value*> inputs{t};
  inputs.insert(inputs.end(), dynSizes.begin(), dynSizes.end());
  Node* n = emitNode(OpKind::Expand, std::move(inputs), 1);
  n->attrs().set("sizes", sizes);
  markDynSizes(n, sizes, dynSizes.size());
  return n->output();
}

Value* IRBuilder::squeeze(Value* t, std::int64_t dim) {
  Node* n = emitNode(OpKind::Squeeze, {t}, 1);
  n->attrs().set("dim", Scalar(dim));
  return n->output();
}

Value* IRBuilder::unsqueeze(Value* t, std::int64_t dim) {
  Node* n = emitNode(OpKind::Unsqueeze, {t}, 1);
  n->attrs().set("dim", Scalar(dim));
  return n->output();
}

Value* IRBuilder::flatten(Value* t, std::int64_t startDim,
                          std::int64_t endDim) {
  Node* n = emitNode(OpKind::Flatten, {t}, 1);
  n->attrs().set("start_dim", Scalar(startDim));
  n->attrs().set("end_dim", Scalar(endDim));
  return n->output();
}

// ---- Mutation ----------------------------------------------------------------------------------

Node* IRBuilder::copy_(Value* dst, Value* src) {
  return emitNode(OpKind::Copy_, {dst, src}, 1);
}
Node* IRBuilder::fill_(Value* dst, Value* value) {
  return emitNode(OpKind::Fill_, {dst, value}, 1);
}
Node* IRBuilder::zero_(Value* dst) {
  return emitNode(OpKind::Zero_, {dst}, 1);
}
Node* IRBuilder::add_(Value* dst, Value* other) {
  return emitNode(OpKind::Add_, {dst, other}, 1);
}
Node* IRBuilder::sub_(Value* dst, Value* other) {
  return emitNode(OpKind::Sub_, {dst, other}, 1);
}
Node* IRBuilder::mul_(Value* dst, Value* other) {
  return emitNode(OpKind::Mul_, {dst, other}, 1);
}
Node* IRBuilder::div_(Value* dst, Value* other) {
  return emitNode(OpKind::Div_, {dst, other}, 1);
}
Node* IRBuilder::relu_(Value* dst) {
  return emitNode(OpKind::Relu_, {dst}, 1);
}
Node* IRBuilder::sigmoid_(Value* dst) {
  return emitNode(OpKind::Sigmoid_, {dst}, 1);
}
Node* IRBuilder::tanh_(Value* dst) {
  return emitNode(OpKind::Tanh_, {dst}, 1);
}
Node* IRBuilder::maskedFill_(Value* dst, Value* mask, Value* value) {
  return emitNode(OpKind::MaskedFill_, {dst, mask, value}, 1);
}

// ---- Control flow ----------------------------------------------------------------------------------

Node* IRBuilder::makeIf(Value* cond, std::size_t numOutputs) {
  Node* n = emitNode(OpKind::If, {cond}, numOutputs);
  n->addBlock();
  n->addBlock();
  return n;
}

Node* IRBuilder::makeLoop(Value* tripCount, std::vector<Value*> carried) {
  std::vector<Value*> inputs;
  inputs.push_back(tripCount);
  inputs.insert(inputs.end(), carried.begin(), carried.end());
  Node* n = emitNode(OpKind::Loop, std::move(inputs), carried.size());
  Block* body = n->addBlock();
  body->addParam(Type::integer(), "i");
  for (std::size_t i = 0; i < carried.size(); ++i) {
    body->addParam(carried[i]->type());
    n->output(i)->setType(carried[i]->type());
  }
  return n;
}

}  // namespace tssa::ir
