#include "src/tensor/ops.h"

#include <algorithm>
#include <array>
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

/// The mixed-dtype form of an elementwise kernel over `loop` (operand 0 the
/// fresh contiguous output, operands 1..K the inputs): each chunk of a row is
/// loaded into double buffers, `fn(buf, j)` computes element j, and the
/// chunk is stored through the output dtype. Conversions are those of
/// static_cast<double>/storedAs, picked once per call.
template <std::size_t K, typename Fn>
void stagedRows(StridedLoop<K + 1>& loop,
                const std::array<const Tensor*, K>& in, Tensor& out,
                Fn&& fn) {
  std::array<detail::LoadRowFn, K> load;
  for (std::size_t k = 0; k < K; ++k)
    load[k] = detail::loadRowFor(in[k]->dtype());
  const detail::StoreRowFn store = detail::storeRowFor(out.dtype());
  Storage& stOut = *out.storage();
  const std::int64_t n = loop.rowLength();
  double buf[K][kRowChunk];
  double res[kRowChunk];
  for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow()) {
    for (std::int64_t j0 = 0; j0 < n; j0 += kRowChunk) {
      const std::int64_t c = std::min(kRowChunk, n - j0);
      for (std::size_t k = 0; k < K; ++k) {
        const std::int64_t s = loop.rowStride(k + 1);
        load[k](*in[k]->storage(), loop.offset(k + 1) + j0 * s, s, c, buf[k]);
      }
      for (std::int64_t j = 0; j < c; ++j) res[j] = fn(buf, j);
      // The output is contiguous, so its row stride is 1.
      store(stOut, loop.offset(0) + j0, c, res);
    }
  }
}

/// Broadcasting elementwise binary op evaluated in double precision: one row
/// loop over (out, a, b). All-Float32 operands are read and written
/// directly; any other dtype mix is staged through double buffers.
template <typename Fn>
Tensor binaryOp(const Tensor& a, const Tensor& b, DType outDType, Fn&& fn) {
  Shape outShape = broadcastShapes(a.sizes(), b.sizes());
  Tensor out = Tensor::empty(outShape, outDType);
  StridedLoop<3> loop(outShape, {&out, &a, &b});
  if (a.dtype() == DType::Float32 && b.dtype() == DType::Float32 &&
      outDType == DType::Float32) {
    const float* pa = a.storage()->as<float>();
    const float* pb = b.storage()->as<float>();
    float* po = out.storage()->as<float>();
    const std::int64_t n = loop.rowLength();
    for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow()) {
      float* o = po + loop.offset(0);
      const float* x = pa + loop.offset(1);
      const float* y = pb + loop.offset(2);
      detail::forRow2(n, loop.rowStride(1), loop.rowStride(2),
                      [&](std::int64_t j, std::int64_t i, std::int64_t k) {
                        o[j] = static_cast<float>(fn(x[i], y[k]));
                      });
    }
    return out;
  }
  stagedRows<2>(loop, {&a, &b}, out, [&](const auto& buf, std::int64_t j) {
    return fn(buf[0][j], buf[1][j]);
  });
  return out;
}

template <typename Fn>
Tensor arith(const Tensor& a, const Tensor& b, Fn&& fn) {
  return binaryOp(a, b, promoteTypes(a.dtype(), b.dtype()),
                  std::forward<Fn>(fn));
}

template <typename Fn>
Tensor compare(const Tensor& a, const Tensor& b, Fn&& fn) {
  return binaryOp(a, b, DType::Bool,
                  [&](double x, double y) { return fn(x, y) ? 1.0 : 0.0; });
}

/// Elementwise unary op: the row loop of binaryOp with one input.
template <typename Fn>
Tensor unaryOp(const Tensor& a, DType outDType, Fn&& fn) {
  Tensor out = Tensor::empty(a.sizes(), outDType);
  StridedLoop<2> loop(a.sizes(), {&out, &a});
  if (a.dtype() == DType::Float32 && outDType == DType::Float32) {
    const float* pa = a.storage()->as<float>();
    float* po = out.storage()->as<float>();
    const std::int64_t n = loop.rowLength();
    const std::int64_t s = loop.rowStride(1);
    for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow()) {
      float* o = po + loop.offset(0);
      const float* x = pa + loop.offset(1);
      if (s == 1) {
        for (std::int64_t j = 0; j < n; ++j)
          o[j] = static_cast<float>(fn(x[j]));
      } else {
        for (std::int64_t j = 0; j < n; ++j)
          o[j] = static_cast<float>(fn(x[j * s]));
      }
    }
    return out;
  }
  stagedRows<1>(loop, {&a}, out, [&](const auto& buf, std::int64_t j) {
    return fn(buf[0][j]);
  });
  return out;
}

Tensor scalarTensor(Scalar s, DType like) {
  return Tensor::scalar(s, isFloatingPoint(like) ? DType::Float32 : s.dtype());
}

/// `v` rounded through element type U and read back: a reduction
/// accumulator is cast through the output dtype after every step. This
/// matches the historical behaviour of accumulating directly in the output
/// buffer (Float32 sums round per step, Int64 truncates per step) — but the
/// cast is only ever applied to values that are representable: max/min seed
/// from the first element instead of casting ±inf into Int64/Bool, which is
/// undefined behaviour.
template <typename U>
double roundedTo(double v) {
  return static_cast<double>(storedAs<U>(v));
}

/// Reduces dim `d` of `a` (element type T) into `out` (element type U, dim d
/// of extent 1). Each output element accumulates its `extent` inputs in
/// ascending order along d; see reduceDim for `seedFromFirst`/`fn`/`finish`.
/// A chunk of one output row accumulates together, one step of d at a time,
/// so the chunk's dependency chains run side by side.
template <typename T, typename U, typename Fn, typename Finish>
void reduceRows(const Tensor& a, std::int64_t d, Tensor& out,
                bool seedFromFirst, const Fn& fn, const Finish& finish) {
  const auto du = static_cast<std::size_t>(d);
  const std::int64_t extent = a.sizes()[du];
  const std::int64_t step = a.strides()[du];
  // out has extent 1 at d, so the loop skips it: operand 1 starts each
  // output's run of a.
  StridedLoop<2> loop(out.sizes(), {&out, &a});
  const T* pa = a.storage()->as<T>();
  U* po = out.storage()->as<U>();
  const std::int64_t n = loop.rowLength();
  const std::int64_t sa = loop.rowStride(1);
  const std::int64_t first = seedFromFirst ? 1 : 0;
  // Float32 in and out accumulates in float. That gives the bits of the
  // double step rounded to float (double carries more than twice float's
  // precision, so a sum of two floats rounded first to double rounds to the
  // same float), on a dependency chain a third as long: what a reduction
  // over few outputs, such as a tile of one row, waits on.
  using Acc = std::conditional_t<
      std::is_same_v<T, float> && std::is_same_v<U, float>, float, double>;
  auto seed = [&](const T* p) -> Acc {
    return seedFromFirst ? static_cast<Acc>(
                               roundedTo<U>(static_cast<double>(p[0])))
                         : Acc{0};
  };
  auto next = [&](Acc acc, T v) -> Acc {
    if constexpr (std::is_same_v<Acc, float>) {
      return fn(acc, v);
    } else {
      return roundedTo<U>(fn(acc, static_cast<double>(v)));
    }
  };
  // When d has the smaller stride, each output reads its own run of a:
  // kReductionRows runs side by side hide the chain latency without
  // thrashing the cache. Otherwise a row of a feeds a whole chunk of outputs.
  const std::int64_t chunk =
      std::abs(step) <= std::abs(sa) ? kReductionRows : kRowChunk;
  Acc acc[kRowChunk];
  for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow()) {
    U* o = po + loop.offset(0);  // out is contiguous: row stride 1
    const T* x = pa + loop.offset(1);
    for (std::int64_t l0 = 0; l0 < n; l0 += chunk) {
      const std::int64_t c = std::min(chunk, n - l0);
      const T* base = x + l0 * sa;
      for (std::int64_t l = 0; l < c; ++l) acc[l] = seed(base + l * sa);
      for (std::int64_t j = first; j < extent; ++j) {
        const T* p = base + j * step;
        for (std::int64_t l = 0; l < c; ++l) acc[l] = next(acc[l], p[l * sa]);
      }
      for (std::int64_t l = 0; l < c; ++l)
        o[l0 + l] = storedAs<U>(finish(acc[l]));
    }
  }
}

/// Shared driver for dim reductions: reduces `dim` of `a` with `fn` into
/// reducedMeta's result for `op`. The accumulator starts at 0, or for max
/// and min, which have no dtype-safe identity, at the first element along
/// the reduced dim. Each accumulated value is post-processed with `finish`.
template <typename Fn, typename Finish>
Tensor reduceDim(const Tensor& a, std::int64_t dim, bool keepDim,
                 Reduction op, Fn&& fn, Finish&& finish) {
  TensorMeta meta = reducedMeta(op, a.sizes(), a.dtype(), dim, true);
  const std::int64_t d = normalizeDim(dim, a.dim());
  const bool seedFromFirst = op == Reduction::Max || op == Reduction::Min;
  Tensor out = Tensor::empty(std::move(meta.sizes), meta.dtype);
  dispatchDType(a.dtype(), [&](auto inTag) {
    dispatchDType(out.dtype(), [&](auto outTag) {
      reduceRows<decltype(inTag), decltype(outTag)>(a, d, out, seedFromFirst,
                                                    fn, finish);
    });
  });
  return keepDim ? out : out.squeeze(d);
}

/// Float32 matmul operand as a contiguous buffer: the operand itself when it
/// already is one, else a converted copy.
Tensor contiguousFloat(const Tensor& t) {
  return t.dtype() == DType::Float32 && t.isContiguous() ? t
                                                         : t.to(DType::Float32);
}

/// po[m, n] = pa[m, k] x pb[k, n] over contiguous row-major Float32 blocks.
/// The i-k-j loop is blocked over four output rows that share each row of B
/// and over column tiles whose sums stay in a local buffer. Each output
/// element still starts at +0.0f and adds its k products in ascending k
/// order, as the plain i-k-j loop does.
void matmulInto(const float* pa, const float* pb, float* po, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  constexpr std::int64_t kRows = 4;
  constexpr std::int64_t kTileCols = 256;
  float acc[kRows][kTileCols];
  for (std::int64_t i0 = 0; i0 < m; i0 += kRows) {
    const std::int64_t rows = std::min(kRows, m - i0);
    for (std::int64_t j0 = 0; j0 < n; j0 += kTileCols) {
      const std::int64_t w = std::min(kTileCols, n - j0);
      // Rows past `rows` (the last block of a ragged m) are computed from
      // zeros and never stored; a fixed row count keeps the loop unrolled.
      for (auto& row : acc) std::fill(row, row + w, 0.0f);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        float va[kRows] = {};
        for (std::int64_t r = 0; r < rows; ++r) va[r] = pa[(i0 + r) * k + kk];
        const float* rowB = pb + kk * n + j0;
        for (std::int64_t j = 0; j < w; ++j) {
          const float b = rowB[j];
          for (std::int64_t r = 0; r < kRows; ++r) acc[r][j] += va[r] * b;
        }
      }
      for (std::int64_t r = 0; r < rows; ++r)
        std::copy(acc[r], acc[r] + w, po + (i0 + r) * n + j0);
    }
  }
}

}  // namespace

// ---- Binary -------------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) {
  return arith(a, b, [](double x, double y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return arith(a, b, [](double x, double y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return arith(a, b, [](double x, double y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binaryOp(a, b, DType::Float32,
                  [](double x, double y) { return x / y; });
}
Tensor pow(const Tensor& a, const Tensor& b) {
  return binaryOp(a, b, DType::Float32,
                  [](double x, double y) { return std::pow(x, y); });
}
Tensor minimum(const Tensor& a, const Tensor& b) {
  return arith(a, b, [](double x, double y) { return std::min(x, y); });
}
Tensor maximum(const Tensor& a, const Tensor& b) {
  return arith(a, b, [](double x, double y) { return std::max(x, y); });
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

Tensor eq(const Tensor& a, const Tensor& b) {
  return compare(a, b, [](double x, double y) { return x == y; });
}
Tensor ne(const Tensor& a, const Tensor& b) {
  return compare(a, b, [](double x, double y) { return x != y; });
}
Tensor lt(const Tensor& a, const Tensor& b) {
  return compare(a, b, [](double x, double y) { return x < y; });
}
Tensor le(const Tensor& a, const Tensor& b) {
  return compare(a, b, [](double x, double y) { return x <= y; });
}
Tensor gt(const Tensor& a, const Tensor& b) {
  return compare(a, b, [](double x, double y) { return x > y; });
}
Tensor ge(const Tensor& a, const Tensor& b) {
  return compare(a, b, [](double x, double y) { return x >= y; });
}
Tensor logicalAnd(const Tensor& a, const Tensor& b) {
  return compare(a, b,
                 [](double x, double y) { return x != 0.0 && y != 0.0; });
}
Tensor logicalOr(const Tensor& a, const Tensor& b) {
  return compare(a, b,
                 [](double x, double y) { return x != 0.0 || y != 0.0; });
}
Tensor logicalNot(const Tensor& a) {
  return unaryOp(a, DType::Bool,
                 [](double x) { return x == 0.0 ? 1.0 : 0.0; });
}

// ---- Unary ------------------------------------------------------------------------

Tensor neg(const Tensor& a) {
  return unaryOp(a, a.dtype(), [](double x) { return -x; });
}
Tensor exp(const Tensor& a) {
  return unaryOp(a, DType::Float32, [](float x) { return fmath::exp(x); });
}
Tensor log(const Tensor& a) {
  return unaryOp(a, DType::Float32, [](float x) { return fmath::log(x); });
}
Tensor sqrt(const Tensor& a) {
  // A Float32 operand takes the float sqrt, which has the bits of the double
  // one rounded to float; staged operands keep the double one.
  return unaryOp(a, DType::Float32, [](auto x) { return std::sqrt(x); });
}
Tensor abs(const Tensor& a) {
  return unaryOp(a, a.dtype(), [](double x) { return std::abs(x); });
}
Tensor sigmoid(const Tensor& a) {
  return unaryOp(a, DType::Float32,
                 [](float x) { return fmath::sigmoid(x); });
}
Tensor tanh(const Tensor& a) {
  return unaryOp(a, DType::Float32, [](float x) { return fmath::tanh(x); });
}
Tensor relu(const Tensor& a) {
  return unaryOp(a, a.dtype(), [](double x) { return x > 0 ? x : 0.0; });
}
Tensor clamp(const Tensor& a, Scalar lo, Scalar hi) {
  const double l = lo.toDouble();
  const double h = hi.toDouble();
  return unaryOp(a, a.dtype(),
                 [=](double x) { return std::clamp(x, l, h); });
}

// ---- Selection -----------------------------------------------------------------------

Tensor where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  const DType dtype = whereDType(cond.dtype(), a.dtype(), b.dtype());
  Shape shape = broadcastShapes(cond.sizes(), a.sizes());
  shape = broadcastShapes(shape, b.sizes());
  Tensor out = Tensor::empty(shape, dtype);
  StridedLoop<4> loop(shape, {&out, &cond, &a, &b});
  if (a.dtype() == DType::Float32 && b.dtype() == DType::Float32) {
    const std::uint8_t* pc = cond.storage()->as<std::uint8_t>();
    const float* pa = a.storage()->as<float>();
    const float* pb = b.storage()->as<float>();
    float* po = out.storage()->as<float>();
    const std::int64_t n = loop.rowLength();
    const std::int64_t tc = loop.rowStride(1);
    const std::int64_t ta = loop.rowStride(2);
    const std::int64_t tb = loop.rowStride(3);
    for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow()) {
      float* o = po + loop.offset(0);
      const std::uint8_t* c = pc + loop.offset(1);
      const float* x = pa + loop.offset(2);
      const float* y = pb + loop.offset(3);
      for (std::int64_t j = 0; j < n; ++j)
        o[j] = c[j * tc] != 0 ? x[j * ta] : y[j * tb];
    }
    return out;
  }
  stagedRows<3>(loop, {&cond, &a, &b}, out,
                [&](const auto& buf, std::int64_t j) {
                  return buf[0][j] != 0.0 ? buf[1][j] : buf[2][j];
                });
  return out;
}

Tensor maskedFill(const Tensor& a, const Tensor& mask, Scalar value) {
  return where(mask, Tensor::full(Shape{}, value,
                                  isFloatingPoint(a.dtype()) ? DType::Float32
                                                             : a.dtype()),
               a);
}

// ---- Reductions ------------------------------------------------------------------------

Tensor sum(const Tensor& a) {
  double acc = 0;
  StridedLoop<1> loop(a.sizes(), {&a});
  const std::int64_t n = loop.rowLength();
  const std::int64_t s = loop.rowStride(0);
  dispatchDType(a.dtype(), [&](auto tag) {
    const auto* p = a.storage()->as<decltype(tag)>();
    for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow()) {
      const auto* x = p + loop.offset(0);
      for (std::int64_t j = 0; j < n; ++j) acc += static_cast<double>(x[j * s]);
    }
  });
  return Tensor::scalar(Scalar(acc), reducedDType(Reduction::Sum, a.dtype()));
}

Tensor sum(const Tensor& a, std::int64_t dim, bool keepDim) {
  return reduceDim(
      a, dim, keepDim, Reduction::Sum,
      [](auto acc, auto v) { return acc + v; },
      [](double v) { return v; });
}

Tensor mean(const Tensor& a, std::int64_t dim, bool keepDim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  const double count = static_cast<double>(a.size(d));
  return reduceDim(
      a, dim, keepDim, Reduction::Mean,
      [](auto acc, auto v) { return acc + v; },
      [=](double v) { return v / count; });
}

// max/min seed the accumulator from the first element along the reduced dim
// rather than a ±inf sentinel: casting ±inf into an Int64/Bool output is
// undefined behaviour, and an all--inf Float32 row must reduce to -inf, not
// to the sentinel. NaN propagates like PyTorch: any NaN in the row wins.

Tensor maxReduce(const Tensor& a, std::int64_t dim, bool keepDim) {
  return reduceDim(
      a, dim, keepDim, Reduction::Max,
      [](auto acc, auto v) { return (std::isnan(v) || v > acc) ? v : acc; },
      [](double v) { return v; });
}

Tensor minReduce(const Tensor& a, std::int64_t dim, bool keepDim) {
  return reduceDim(
      a, dim, keepDim, Reduction::Min,
      [](auto acc, auto v) { return (std::isnan(v) || v < acc) ? v : acc; },
      [](double v) { return v; });
}

Tensor argmax(const Tensor& a, std::int64_t dim, bool keepDim) {
  TensorMeta meta =
      reducedMeta(Reduction::Argmax, a.sizes(), a.dtype(), dim, true);
  const std::int64_t d = normalizeDim(dim, a.dim());
  const std::int64_t extent = a.size(d);
  const std::int64_t step = a.strides()[static_cast<std::size_t>(d)];
  Tensor out = Tensor::empty(std::move(meta.sizes), meta.dtype);
  StridedLoop<2> loop(out.sizes(), {&out, &a});
  const std::int64_t n = loop.rowLength();
  const std::int64_t sa = loop.rowStride(1);
  std::int64_t* po = out.storage()->as<std::int64_t>();
  dispatchDType(a.dtype(), [&](auto tag) {
    const auto* pa = a.storage()->as<decltype(tag)>();
    for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow()) {
      for (std::int64_t l = 0; l < n; ++l) {
        const auto* p = pa + loop.offset(1) + l * sa;
        double best = static_cast<double>(p[0]);
        std::int64_t bestIndex = 0;
        for (std::int64_t j = 1; j < extent; ++j) {
          const double v = static_cast<double>(p[j * step]);
          // PyTorch semantics: NaN compares greater than everything, the
          // first NaN wins; among ordinary values ties keep the earlier
          // index.
          if ((std::isnan(v) && !std::isnan(best)) || v > best) {
            best = v;
            bestIndex = j;
          }
        }
        po[loop.offset(0) + l] = bestIndex;  // out is contiguous
      }
    }
  });
  return keepDim ? out : out.squeeze(d);
}

Tensor softmax(const Tensor& a, std::int64_t dim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  Tensor m = maxReduce(a, d, /*keepDim=*/true);
  Tensor e = exp(sub(a, m));
  Tensor s = sum(e, d, /*keepDim=*/true);
  return div(e, s);
}

// ---- Linear algebra -----------------------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.dim() == 3 && b.dim() == 3) return bmm(a, b);
  Shape outShape = matmulSizes(a.sizes(), b.sizes());
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  const Tensor ac = contiguousFloat(a);
  const Tensor bc = contiguousFloat(b);
  Tensor out = Tensor::empty(std::move(outShape), DType::Float32);
  matmulInto(ac.data<float>(), bc.data<float>(), out.data<float>(), m, k, n);
  return out;
}

Tensor bmm(const Tensor& a, const Tensor& b) {
  Shape outShape = bmmSizes(a.sizes(), b.sizes());
  const std::int64_t batch = a.size(0);
  const std::int64_t m = a.size(1), k = a.size(2), n = b.size(2);
  const Tensor ac = contiguousFloat(a);
  const Tensor bc = contiguousFloat(b);
  Tensor out = Tensor::empty(std::move(outShape), DType::Float32);
  for (std::int64_t i = 0; i < batch; ++i)
    matmulInto(ac.data<float>() + i * m * k, bc.data<float>() + i * k * n,
               out.data<float>() + i * m * n, m, k, n);
  return out;
}

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
