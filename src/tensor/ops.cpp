#include "src/tensor/ops.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/tensor/fmath.h"
#include "src/tensor/strided_loop.h"

namespace tssa::ops {
namespace {

using detail::dispatchDType;
using detail::kRowChunk;
using detail::storedAs;
using detail::StridedLoop;

Tensor scalarTensor(Scalar s, DType like) {
  return Tensor::scalar(s, isFloatingPoint(like) ? DType::Float32 : s.dtype());
}

/// Float32 matmul operand as a contiguous buffer: the operand itself when it
/// already is one, else a converted copy.
Tensor contiguousFloat(const Tensor& t) {
  return t.dtype() == DType::Float32 && t.isContiguous() ? t
                                                         : t.to(DType::Float32);
}

}  // namespace
}  // namespace tssa::ops

// The kernels, one source compiled twice: for the baseline target (SSE2 on
// x86-64) and, on x86-64, for AVX2 in a `#pragma GCC target` region. The
// region holds only the second copy, and every #include stays above it: a
// header inline or template instantiated inside the region would be compiled
// for AVX2 and, being COMDAT, could stand in for the baseline copy the rest
// of the program calls. A header template that takes a kernel lambda, such
// as detail::forRow2, must be always_inline, or its baseline instantiation
// cannot inline the AVX2 lambda. FMA stays off: it would change results.

namespace tssa::ops::sse2 {
#include "src/tensor/ops_kernels.inc"
}  // namespace tssa::ops::sse2

#if defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("avx2")
namespace tssa::ops::avx2 {
#include "src/tensor/ops_kernels.inc"
}  // namespace tssa::ops::avx2
#pragma GCC pop_options
#endif

namespace tssa::ops {

// ---- Instruction set ------------------------------------------------------------

bool kernelIsaSupported(KernelIsa isa) {
#if defined(__x86_64__)
  if (isa == KernelIsa::Avx2) {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
  }
  return true;
#else
  return isa == KernelIsa::Sse2;
#endif
}

namespace {

/// Whether the public ops run the AVX2 copy: the host's answer, read once.
std::atomic<bool>& avx2Selected() {
  static std::atomic<bool> selected{kernelIsaSupported(KernelIsa::Avx2)};
  return selected;
}

}  // namespace

const char* kernelIsa() {
  return avx2Selected().load(std::memory_order_relaxed) ? "avx2" : "sse2";
}

ScopedKernelIsa::ScopedKernelIsa(KernelIsa isa)
    : previousAvx2_(avx2Selected().load()) {
  TSSA_CHECK(kernelIsaSupported(isa), "this host cannot run the avx2 kernels");
  avx2Selected().store(isa == KernelIsa::Avx2);
}

ScopedKernelIsa::~ScopedKernelIsa() { avx2Selected().store(previousAvx2_); }

#if defined(__x86_64__)
#define TSSA_KERNEL(call)                                       \
  (avx2Selected().load(std::memory_order_relaxed) ? avx2::call \
                                                  : sse2::call)
#else
#define TSSA_KERNEL(call) sse2::call
#endif

// ---- Binary -------------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) { return TSSA_KERNEL(add(a, b)); }
Tensor sub(const Tensor& a, const Tensor& b) { return TSSA_KERNEL(sub(a, b)); }
Tensor mul(const Tensor& a, const Tensor& b) { return TSSA_KERNEL(mul(a, b)); }
Tensor div(const Tensor& a, const Tensor& b) { return TSSA_KERNEL(div(a, b)); }
Tensor pow(const Tensor& a, const Tensor& b) { return TSSA_KERNEL(pow(a, b)); }
Tensor minimum(const Tensor& a, const Tensor& b) {
  return TSSA_KERNEL(minimum(a, b));
}
Tensor maximum(const Tensor& a, const Tensor& b) {
  return TSSA_KERNEL(maximum(a, b));
}

Tensor add(const Tensor& a, Scalar b) {
  return add(a, scalarTensor(b, a.dtype()));
}
Tensor sub(const Tensor& a, Scalar b) {
  return sub(a, scalarTensor(b, a.dtype()));
}
Tensor mul(const Tensor& a, Scalar b) {
  return mul(a, scalarTensor(b, a.dtype()));
}
Tensor div(const Tensor& a, Scalar b) {
  return div(a, scalarTensor(b, a.dtype()));
}

// ---- Comparisons -----------------------------------------------------------------

Tensor eq(const Tensor& a, const Tensor& b) { return TSSA_KERNEL(eq(a, b)); }
Tensor ne(const Tensor& a, const Tensor& b) { return TSSA_KERNEL(ne(a, b)); }
Tensor lt(const Tensor& a, const Tensor& b) { return TSSA_KERNEL(lt(a, b)); }
Tensor le(const Tensor& a, const Tensor& b) { return TSSA_KERNEL(le(a, b)); }
Tensor gt(const Tensor& a, const Tensor& b) { return TSSA_KERNEL(gt(a, b)); }
Tensor ge(const Tensor& a, const Tensor& b) { return TSSA_KERNEL(ge(a, b)); }
Tensor logicalAnd(const Tensor& a, const Tensor& b) {
  return TSSA_KERNEL(logicalAnd(a, b));
}
Tensor logicalOr(const Tensor& a, const Tensor& b) {
  return TSSA_KERNEL(logicalOr(a, b));
}
Tensor logicalNot(const Tensor& a) { return TSSA_KERNEL(logicalNot(a)); }

// ---- Unary ------------------------------------------------------------------------

Tensor neg(const Tensor& a) { return TSSA_KERNEL(neg(a)); }
Tensor exp(const Tensor& a) { return TSSA_KERNEL(exp(a)); }
Tensor log(const Tensor& a) { return TSSA_KERNEL(log(a)); }
Tensor sqrt(const Tensor& a) { return TSSA_KERNEL(sqrt(a)); }
Tensor abs(const Tensor& a) { return TSSA_KERNEL(abs(a)); }
Tensor sigmoid(const Tensor& a) { return TSSA_KERNEL(sigmoid(a)); }
Tensor tanh(const Tensor& a) { return TSSA_KERNEL(tanh(a)); }
Tensor relu(const Tensor& a) { return TSSA_KERNEL(relu(a)); }
Tensor clamp(const Tensor& a, Scalar lo, Scalar hi) {
  return TSSA_KERNEL(clamp(a, lo, hi));
}

// ---- Selection -----------------------------------------------------------------------

Tensor where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  return TSSA_KERNEL(where(cond, a, b));
}

Tensor maskedFill(const Tensor& a, const Tensor& mask, Scalar value) {
  return where(mask, Tensor::full(Shape{}, value,
                                  isFloatingPoint(a.dtype()) ? DType::Float32
                                                             : a.dtype()),
               a);
}

// ---- Reductions ------------------------------------------------------------------------

Tensor sum(const Tensor& a) { return TSSA_KERNEL(sum(a)); }
Tensor sum(const Tensor& a, std::int64_t dim, bool keepDim) {
  return TSSA_KERNEL(sum(a, dim, keepDim));
}
Tensor mean(const Tensor& a, std::int64_t dim, bool keepDim) {
  return TSSA_KERNEL(mean(a, dim, keepDim));
}
Tensor maxReduce(const Tensor& a, std::int64_t dim, bool keepDim) {
  return TSSA_KERNEL(maxReduce(a, dim, keepDim));
}
Tensor minReduce(const Tensor& a, std::int64_t dim, bool keepDim) {
  return TSSA_KERNEL(minReduce(a, dim, keepDim));
}
Tensor argmax(const Tensor& a, std::int64_t dim, bool keepDim) {
  return TSSA_KERNEL(argmax(a, dim, keepDim));
}
Tensor softmax(const Tensor& a, std::int64_t dim) {
  return TSSA_KERNEL(softmax(a, dim));
}

// ---- Linear algebra -----------------------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  return TSSA_KERNEL(matmul(a, b));
}
Tensor bmm(const Tensor& a, const Tensor& b) { return TSSA_KERNEL(bmm(a, b)); }

#undef TSSA_KERNEL

// ---- Shape combinators -----------------------------------------------------------------------

namespace {

/// cat's and stack's output, allocated by CatRule; `d` gets the
/// concatenation dim.
Tensor catOutput(std::span<const Tensor> tensors, std::int64_t dim,
                 bool stack, std::int64_t& d) {
  CatRule rule(dim, stack);
  for (const Tensor& t : tensors) rule.add(t.sizes(), t.dtype());
  d = rule.dim();
  TensorMeta meta = std::move(rule).result();
  return Tensor::empty(std::move(meta.sizes), meta.dtype);
}

}  // namespace

Tensor cat(std::span<const Tensor> tensors, std::int64_t dim) {
  std::int64_t d = 0;
  Tensor out = catOutput(tensors, dim, /*stack=*/false, d);
  std::int64_t at = 0;
  for (const Tensor& t : tensors) {
    out.narrow(d, at, t.size(d)).copy_(t);
    at += t.size(d);
  }
  return out;
}

Tensor stack(std::span<const Tensor> tensors, std::int64_t dim) {
  std::int64_t d = 0;
  Tensor out = catOutput(tensors, dim, /*stack=*/true, d);
  for (std::size_t i = 0; i < tensors.size(); ++i)
    out.select(d, static_cast<std::int64_t>(i)).copy_(tensors[i]);
  return out;
}

// ---- Indexing -----------------------------------------------------------------------

Tensor indexSelect(const Tensor& a, std::int64_t dim, const Tensor& index) {
  Tensor out = Tensor::empty(
      indexSelectSizes(a.sizes(), dim, index.sizes(), index.dtype()),
      a.dtype());
  const std::int64_t d = normalizeDim(dim, a.dim());
  const std::int64_t n = index.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::int64_t>(index.scalarAtLinear(i));
    out.select(d, i).copy_(a.select(d, idx));
  }
  return out;
}

Tensor gather(const Tensor& a, std::int64_t dim, const Tensor& index) {
  Tensor out = Tensor::empty(
      gatherSizes(a.sizes(), dim, index.sizes(), index.dtype()), a.dtype());
  const std::int64_t d = normalizeDim(dim, a.dim());
  const std::int64_t extent = a.size(d);
  const std::int64_t step = a.strides()[static_cast<std::size_t>(d)];
  // `a` held at element 0 of dim d: the loop walks the other dims of the
  // index block, and each element adds its own index along d.
  const Tensor base = extent > 0 ? a.narrow(d, 0, 1) : a;
  StridedLoop<3> loop(index.sizes(), {&out, &index, &base});
  const std::int64_t n = loop.rowLength();
  const std::int64_t si = loop.rowStride(1);
  const std::int64_t sa = loop.rowStride(2);
  const std::int64_t* pi = index.storage()->as<std::int64_t>();
  dispatchDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    const T* pa = a.storage()->as<T>();
    T* po = out.storage()->as<T>();
    for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow()) {
      const std::int64_t* x = pi + loop.offset(1);
      const T* src = pa + loop.offset(2);
      T* o = po + loop.offset(0);  // out is contiguous: row stride 1
      for (std::int64_t l = 0; l < n; ++l) {
        const std::int64_t j = x[l * si];
        TSSA_CHECK(j >= 0 && j < extent, "gather index "
                                             << j << " out of range for dim "
                                             << d << " of extent " << extent);
        o[l] = storedAs<T>(static_cast<double>(src[l * sa + j * step]));
      }
    }
  });
  return out;
}

namespace {

/// Calls `fn(line, off)` for every line of `t` along dim `d`, in row-major
/// order of the other dims: `line` counts the lines and `off` is the
/// storage offset of the line's first element.
template <typename Fn>
void forEachLine(const Tensor& t, std::int64_t d, Fn&& fn) {
  Shape outer = t.sizes();
  outer[static_cast<std::size_t>(d)] = 1;
  StridedLoop<1> loop(outer, {&t});
  const std::int64_t n = loop.rowLength();
  const std::int64_t s = loop.rowStride(0);
  std::int64_t line = 0;
  for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow())
    for (std::int64_t l = 0; l < n; ++l) fn(line++, loop.offset(0) + l * s);
}

}  // namespace

// topk and argsort read each row once into a double buffer and sort it
// with std::stable_sort under the same double comparisons a per-element
// reader makes, so ties keep their index order and NaN rows order exactly
// as they always have.

std::pair<Tensor, Tensor> topk(const Tensor& a, std::int64_t k) {
  Shape outShape = sortedSizes(a.sizes(), k);
  const std::int64_t last = a.dim() - 1;
  const std::int64_t extent = a.size(last);
  Tensor values = Tensor::empty(outShape, a.dtype());
  Tensor indices = Tensor::empty(std::move(outShape), DType::Int64);
  const std::int64_t step = a.strides()[static_cast<std::size_t>(last)];
  std::int64_t* pi = indices.data<std::int64_t>();
  std::vector<std::pair<double, std::int64_t>> row(
      static_cast<std::size_t>(extent));
  dispatchDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    const T* pa = a.storage()->as<T>();
    T* pv = values.data<T>();
    forEachLine(a, last, [&](std::int64_t line, std::int64_t off) {
      for (std::int64_t j = 0; j < extent; ++j)
        row[static_cast<std::size_t>(j)] = {
            static_cast<double>(pa[off + j * step]), j};
      std::stable_sort(row.begin(), row.end(),
                       [](const auto& x, const auto& y) {
                         return x.first > y.first;
                       });
      for (std::int64_t j = 0; j < k; ++j) {
        const auto& [value, at] = row[static_cast<std::size_t>(j)];
        pv[line * k + j] = storedAs<T>(value);
        pi[line * k + j] = at;
      }
    });
  });
  return {values, indices};
}

Tensor argsort(const Tensor& a, bool descending) {
  Tensor out =
      Tensor::empty(sortedSizes(a.sizes(), std::nullopt), DType::Int64);
  const std::int64_t last = a.dim() - 1;
  const std::int64_t extent = a.size(last);
  const std::int64_t step = a.strides()[static_cast<std::size_t>(last)];
  std::int64_t* po = out.data<std::int64_t>();
  std::vector<double> row(static_cast<std::size_t>(extent));
  dispatchDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    const T* pa = a.storage()->as<T>();
    forEachLine(a, last, [&](std::int64_t line, std::int64_t off) {
      for (std::int64_t j = 0; j < extent; ++j)
        row[static_cast<std::size_t>(j)] = static_cast<double>(pa[off + j * step]);
      std::int64_t* order = po + line * extent;
      std::iota(order, order + extent, std::int64_t{0});
      std::stable_sort(order, order + extent,
                       [&](std::int64_t x, std::int64_t y) {
                         const double vx = row[static_cast<std::size_t>(x)];
                         const double vy = row[static_cast<std::size_t>(y)];
                         return descending ? vx > vy : vx < vy;
                       });
    });
  });
  return out;
}

Tensor cumsum(const Tensor& a, std::int64_t dim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  const std::int64_t extent = a.size(d);
  Tensor out = Tensor::empty(a.sizes(), a.dtype());
  const std::int64_t step = a.strides()[static_cast<std::size_t>(d)];
  const std::int64_t outStep = out.strides()[static_cast<std::size_t>(d)];
  Shape outer = a.sizes();
  outer[static_cast<std::size_t>(d)] = 1;
  StridedLoop<2> loop(outer, {&out, &a});
  const std::int64_t n = loop.rowLength();
  const std::int64_t so = loop.rowStride(0);
  const std::int64_t sa = loop.rowStride(1);
  dispatchDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    const T* pa = a.storage()->as<T>();
    T* po = out.storage()->as<T>();
    for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow()) {
      for (std::int64_t l = 0; l < n; ++l) {
        const T* x = pa + loop.offset(1) + l * sa;
        T* o = po + loop.offset(0) + l * so;
        // The running sum stays a double; each step is stored through T.
        double acc = 0;
        for (std::int64_t j = 0; j < extent; ++j) {
          acc += static_cast<double>(x[j * step]);
          o[j * outStep] = storedAs<T>(acc);
        }
      }
    }
  });
  return out;
}

// ---- Output metadata ---------------------------------------------------------------------

DType whereDType(DType cond, DType a, DType b) {
  TSSA_CHECK(cond == DType::Bool, "where condition must be Bool");
  return promoteTypes(a, b);
}

DType reducedDType(Reduction op, DType in) {
  switch (op) {
    case Reduction::Sum:
      return in == DType::Bool ? DType::Int64 : in;
    case Reduction::Mean:
      return DType::Float32;
    case Reduction::Argmax:
      return DType::Int64;
    case Reduction::Max:
    case Reduction::Min:
      return in;
  }
  TSSA_THROW("unknown reduction");
}

TensorMeta reducedMeta(Reduction op, std::span<const std::int64_t> sizes,
                       DType dtype, std::int64_t dim, bool keepDim) {
  const auto d = static_cast<std::size_t>(
      normalizeDim(dim, static_cast<std::int64_t>(sizes.size())));
  TSSA_CHECK(op == Reduction::Sum || op == Reduction::Mean || sizes[d] > 0,
             "reduction over an empty dimension has no identity");
  TensorMeta out{Shape(sizes.begin(), sizes.end()), reducedDType(op, dtype)};
  if (keepDim) {
    out.sizes[d] = 1;
  } else {
    out.sizes.erase(out.sizes.begin() + static_cast<std::ptrdiff_t>(d));
  }
  return out;
}

Shape bmmSizes(std::span<const std::int64_t> a,
               std::span<const std::int64_t> b) {
  TSSA_CHECK(a.size() == 3 && b.size() == 3, "bmm expects 3-D operands");
  TSSA_CHECK(a[0] == b[0], "bmm batch dims disagree");
  TSSA_CHECK(a[2] == b[1],
             "bmm inner dimensions disagree: " << a[2] << " vs " << b[1]);
  return {a[0], a[1], b[2]};
}

Shape matmulSizes(std::span<const std::int64_t> a,
                  std::span<const std::int64_t> b) {
  if (a.size() == 3 && b.size() == 3) return bmmSizes(a, b);
  TSSA_CHECK(a.size() == 2 && b.size() == 2,
             "matmul expects 2-D operands, got " << a.size() << " and "
                                                 << b.size());
  TSSA_CHECK(a[1] == b[0],
             "matmul inner dimensions disagree: " << a[1] << " vs " << b[0]);
  return {a[0], b[1]};
}

void CatRule::add(std::span<const std::int64_t> sizes, DType dtype) {
  const auto rank = static_cast<std::int64_t>(sizes.size());
  if (empty_) {
    empty_ = false;
    out_.sizes.assign(sizes.begin(), sizes.end());
    out_.dtype = dtype;
    if (stack_) {
      if (dim_ < 0) dim_ += rank + 1;
      TSSA_CHECK(dim_ >= 0 && dim_ <= rank, "stack dim out of range");
      out_.sizes.insert(out_.sizes.begin() + dim_, 0);
    } else {
      dim_ = normalizeDim(dim_, rank);
      out_.sizes[static_cast<std::size_t>(dim_)] = 0;
    }
  }
  TSSA_CHECK(rank + (stack_ ? 1 : 0) ==
                 static_cast<std::int64_t>(out_.sizes.size()),
             "cat rank mismatch");
  // Operand dim i is result dim o; stack's operands skip the new dim.
  for (std::int64_t i = 0; i < rank; ++i) {
    const std::int64_t o = stack_ && i >= dim_ ? i + 1 : i;
    TSSA_CHECK(o == dim_ || sizes[static_cast<std::size_t>(i)] ==
                                out_.sizes[static_cast<std::size_t>(o)],
               "cat shape mismatch on dim " << o);
  }
  out_.sizes[static_cast<std::size_t>(dim_)] +=
      stack_ ? 1 : sizes[static_cast<std::size_t>(dim_)];
  out_.dtype = promoteTypes(out_.dtype, dtype);
}

TensorMeta CatRule::result() && {
  TSSA_CHECK(!empty_, (stack_ ? "stack" : "cat") << " of zero tensors");
  return std::move(out_);
}

Shape indexSelectSizes(std::span<const std::int64_t> a, std::int64_t dim,
                       std::span<const std::int64_t> index, DType indexDType) {
  TSSA_CHECK(indexDType == DType::Int64 && index.size() == 1,
             "indexSelect needs a 1-D Int64 index");
  Shape out(a.begin(), a.end());
  out[static_cast<std::size_t>(
      normalizeDim(dim, static_cast<std::int64_t>(a.size())))] = index[0];
  return out;
}

Shape gatherSizes(std::span<const std::int64_t> a, std::int64_t dim,
                  std::span<const std::int64_t> index, DType indexDType) {
  TSSA_CHECK(indexDType == DType::Int64, "gather needs Int64 indices");
  TSSA_CHECK(index.size() == a.size(), "gather index rank must match input");
  const std::int64_t d = normalizeDim(dim, static_cast<std::int64_t>(a.size()));
  for (std::size_t i = 0; i < a.size(); ++i) {
    TSSA_CHECK(static_cast<std::int64_t>(i) == d || index[i] <= a[i],
               "gather index extent " << index[i] << " exceeds input extent "
                                      << a[i] << " in dim " << i);
  }
  return Shape(index.begin(), index.end());
}

Shape sortedSizes(std::span<const std::int64_t> sizes,
                  std::optional<std::int64_t> k) {
  TSSA_CHECK(!sizes.empty(), (k ? "topk" : "argsort") << " needs rank >= 1");
  Shape out(sizes.begin(), sizes.end());
  if (k) {
    TSSA_CHECK(*k >= 0 && *k <= out.back(), "topk k out of range");
    out.back() = *k;
  }
  return out;
}

}  // namespace tssa::ops
