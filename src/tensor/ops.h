// Out-of-place tensor operators (the "aten" compute library).
//
// Every operator here is pure: inputs are never modified and results own fresh
// storage. In-place variants live on Tensor itself (`copy_`, `fill_`) or are
// composed by the runtime as pure-compute + copy_ — mirroring how the
// TensorSSA lower-inplace canonicalization treats them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/tensor/tensor.h"

namespace tssa::ops {

// ---- Elementwise binary (broadcasting) --------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
Tensor pow(const Tensor& a, const Tensor& b);
Tensor minimum(const Tensor& a, const Tensor& b);
Tensor maximum(const Tensor& a, const Tensor& b);

/// Scalar right-hand sides broadcast as rank-0 tensors.
Tensor add(const Tensor& a, Scalar b);
Tensor sub(const Tensor& a, Scalar b);
Tensor mul(const Tensor& a, Scalar b);
Tensor div(const Tensor& a, Scalar b);

// ---- Comparisons (result dtype Bool) ------------------------------------------

Tensor eq(const Tensor& a, const Tensor& b);
Tensor ne(const Tensor& a, const Tensor& b);
Tensor lt(const Tensor& a, const Tensor& b);
Tensor le(const Tensor& a, const Tensor& b);
Tensor gt(const Tensor& a, const Tensor& b);
Tensor ge(const Tensor& a, const Tensor& b);
Tensor logicalAnd(const Tensor& a, const Tensor& b);
Tensor logicalOr(const Tensor& a, const Tensor& b);
Tensor logicalNot(const Tensor& a);

// ---- Elementwise unary -----------------------------------------------------------

Tensor neg(const Tensor& a);
/// exp, log, tanh and sigmoid return Float32: each element is the float32
/// function of src/tensor/fmath.h applied to the operand as a float. An
/// Int64 or Bool operand is read as a double, like every staged operand,
/// rounded to float, and then takes the same function.
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
/// Float32 result: the correctly rounded square root of the operand, a
/// Float32 one in float, an Int64 or Bool one (read as a double) in double.
Tensor sqrt(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor clamp(const Tensor& a, Scalar lo, Scalar hi);

// ---- Selection -------------------------------------------------------------------

/// Elementwise `cond ? a : b` with broadcasting. `cond` must be Bool.
Tensor where(const Tensor& cond, const Tensor& a, const Tensor& b);
/// Copy of `a` with elements where `mask` is true replaced by `value`.
Tensor maskedFill(const Tensor& a, const Tensor& mask, Scalar value);

// ---- Reductions ----------------------------------------------------------------

/// The rows a dim reduction accumulates side by side when each output reads
/// its own run of the input: one row's sum is one dependency chain, in a
/// fixed order, and this many chains hide its latency.
inline constexpr std::int64_t kReductionRows = 8;

Tensor sum(const Tensor& a);                       // rank-0 result
Tensor sum(const Tensor& a, std::int64_t dim, bool keepDim = false);
Tensor mean(const Tensor& a, std::int64_t dim, bool keepDim = false);
Tensor maxReduce(const Tensor& a, std::int64_t dim, bool keepDim = false);
Tensor minReduce(const Tensor& a, std::int64_t dim, bool keepDim = false);
/// Index of the maximum along `dim` (Int64 result).
Tensor argmax(const Tensor& a, std::int64_t dim, bool keepDim = false);
/// Numerically-stable softmax along `dim` (Float32 result).
Tensor softmax(const Tensor& a, std::int64_t dim);

// ---- Linear algebra ---------------------------------------------------------------

/// 2-D matrix product [m,k] x [k,n] -> [m,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// Batched matrix product [b,m,k] x [b,k,n] -> [b,m,n].
Tensor bmm(const Tensor& a, const Tensor& b);

// ---- Shape combinators ---------------------------------------------------------------

/// Concatenates along `dim`; all inputs must match on the other dims.
Tensor cat(std::span<const Tensor> tensors, std::int64_t dim);
/// Stacks along a new leading-at-`dim` dimension.
Tensor stack(std::span<const Tensor> tensors, std::int64_t dim);

// ---- Gather-style indexing (produces copies, not views) ---------------------------------

/// index_select: picks rows of `a` along `dim` by 1-D Int64 `index`.
Tensor indexSelect(const Tensor& a, std::int64_t dim, const Tensor& index);
/// Gathers elements: out[i...] = a[..., index[i...], ...] along `dim`.
Tensor gather(const Tensor& a, std::int64_t dim, const Tensor& index);
/// topk values+indices along last dim, descending. Returns {values, indices}.
std::pair<Tensor, Tensor> topk(const Tensor& a, std::int64_t k);
/// Indices that sort the last dim (descending when `descending`).
Tensor argsort(const Tensor& a, bool descending);
/// Cumulative sum along `dim`.
Tensor cumsum(const Tensor& a, std::int64_t dim);

// ---- Instruction set ---------------------------------------------------------------------
// The elementwise, comparison, unary, where/maskedFill, reduction, softmax
// and matmul/bmm kernels above are compiled twice from one source: for the
// baseline x86-64 target (SSE2) and for AVX2, with the same bits. A process
// runs the AVX2 copy when its CPU has AVX2; there is no option to choose.

enum class KernelIsa : std::uint8_t { Sse2, Avx2 };

/// The copy the kernels run: "avx2" or "sse2".
const char* kernelIsa();

/// Whether this host can run `isa`'s copy.
bool kernelIsaSupported(KernelIsa isa);

/// For tests: every thread runs `isa`'s copy of the kernels while this
/// lives, then the previous copy again. Throws when the host cannot run it.
class ScopedKernelIsa {
 public:
  explicit ScopedKernelIsa(KernelIsa isa);
  ~ScopedKernelIsa();
  ScopedKernelIsa(const ScopedKernelIsa&) = delete;
  ScopedKernelIsa& operator=(const ScopedKernelIsa&) = delete;

 private:
  bool previousAvx2_;
};

// ---- Output metadata ---------------------------------------------------------------------
// The kernels' shape and dtype rules, on metadata alone: each kernel checks
// its operands through its rule and analysis::inferOutputs applies the same
// one. Checks on index values stay in the kernels.

/// Result dtype of where(cond, a, b); `cond` must be Bool.
DType whereDType(DType cond, DType a, DType b);

enum class Reduction : std::uint8_t { Sum, Mean, Max, Min, Argmax };

/// Result dtype of reducing an `in` tensor with `op`: sums widen Bool to
/// Int64, mean is Float32, argmax Int64, max and min keep `in`.
DType reducedDType(Reduction op, DType in);

/// Result of reducing dim `dim` of a (`sizes`, `dtype`) tensor with `op`:
/// the dim drops, or stays with extent 1 under `keepDim`. Max, min and
/// argmax reject an empty dim, which has no identity.
TensorMeta reducedMeta(Reduction op, std::span<const std::int64_t> sizes,
                       DType dtype, std::int64_t dim, bool keepDim);

/// Result sizes of matmul: [m,k] x [k,n] -> [m,n], or bmm's rule when both
/// operands are 3-D.
Shape matmulSizes(std::span<const std::int64_t> a,
                  std::span<const std::int64_t> b);
/// Result sizes of bmm: [b,m,k] x [b,k,n] -> [b,m,n].
Shape bmmSizes(std::span<const std::int64_t> a,
               std::span<const std::int64_t> b);

/// Result of cat (or stack) at `dim`, fed one operand at a time.
class CatRule {
 public:
  CatRule(std::int64_t dim, bool stack) : dim_(dim), stack_(stack) {}
  /// Adds the next operand; throws when it disagrees with the first.
  void add(std::span<const std::int64_t> sizes, DType dtype);
  /// The result's concatenation dim, normalized; valid after the first add.
  std::int64_t dim() const { return dim_; }
  /// The result; throws when no operand was added.
  TensorMeta result() &&;

 private:
  std::int64_t dim_;
  bool stack_;
  bool empty_ = true;
  TensorMeta out_;
};

/// Result sizes of index_select along `dim` by a 1-D Int64 index.
Shape indexSelectSizes(std::span<const std::int64_t> a, std::int64_t dim,
                       std::span<const std::int64_t> index, DType indexDType);

/// Result sizes of gather along `dim`: the index's. The Int64 index has a's
/// rank and fits inside a on every other dim.
Shape gatherSizes(std::span<const std::int64_t> a, std::int64_t dim,
                  std::span<const std::int64_t> index, DType indexDType);

/// Result sizes of topk (`k` set: k of the last dim) and argsort (`k`
/// unset: the whole last dim). Both need rank >= 1.
Shape sortedSizes(std::span<const std::int64_t> sizes,
                  std::optional<std::int64_t> k);

}  // namespace tssa::ops
