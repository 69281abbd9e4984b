#include "src/tensor/ops.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <numeric>

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
/// ascending order along d; see reduceDim for `seedFromFirst`/`init`/`fn`/
/// `finish`. A chunk of one output row accumulates together, one step of d
/// at a time, so the chunk's dependency chains run side by side.
template <typename T, typename U, typename Fn, typename Finish>
void reduceRows(const Tensor& a, std::int64_t d, Tensor& out,
                bool seedFromFirst, double init, const Fn& fn,
                const Finish& finish) {
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
  auto seed = [&](const T* p) {
    return seedFromFirst ? roundedTo<U>(static_cast<double>(p[0])) : init;
  };
  // When d has the smaller stride, each output reads its own run of a:
  // eight runs side by side hide the chain latency without thrashing the
  // cache. Otherwise a row of a feeds a whole chunk of outputs.
  const std::int64_t chunk = std::abs(step) <= std::abs(sa) ? 8 : kRowChunk;
  double acc[kRowChunk];
  for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow()) {
    U* o = po + loop.offset(0);  // out is contiguous: row stride 1
    const T* x = pa + loop.offset(1);
    for (std::int64_t l0 = 0; l0 < n; l0 += chunk) {
      const std::int64_t c = std::min(chunk, n - l0);
      const T* base = x + l0 * sa;
      for (std::int64_t l = 0; l < c; ++l) acc[l] = seed(base + l * sa);
      for (std::int64_t j = first; j < extent; ++j) {
        const T* p = base + j * step;
        for (std::int64_t l = 0; l < c; ++l)
          acc[l] = roundedTo<U>(fn(acc[l], static_cast<double>(p[l * sa])));
      }
      for (std::int64_t l = 0; l < c; ++l)
        o[l0 + l] = storedAs<U>(finish(acc[l]));
    }
  }
}

/// Shared driver for dim reductions: reduces `dim` of `a` with `fn`. The
/// accumulator starts at `init`, or — when `seedFromFirst` is set — at the
/// first element along the reduced dim (for reductions like max/min that
/// have no dtype-safe identity). Each accumulated value is post-processed
/// with `finish`.
template <typename Fn, typename Finish>
Tensor reduceDim(const Tensor& a, std::int64_t dim, bool keepDim,
                 DType outDType, bool seedFromFirst, double init, Fn&& fn,
                 Finish&& finish) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  TSSA_CHECK(!seedFromFirst || a.size(d) > 0,
             "reduction over an empty dimension has no identity");
  Shape outShape = a.sizes();
  outShape[static_cast<std::size_t>(d)] = 1;
  Tensor out = Tensor::empty(outShape, outDType);
  dispatchDType(a.dtype(), [&](auto inTag) {
    dispatchDType(outDType, [&](auto outTag) {
      reduceRows<decltype(inTag), decltype(outTag)>(a, d, out, seedFromFirst,
                                                    init, fn, finish);
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
  return unaryOp(a, DType::Float32, [](double x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return unaryOp(a, DType::Float32, [](double x) { return std::log(x); });
}
Tensor sqrt(const Tensor& a) {
  return unaryOp(a, DType::Float32, [](double x) { return std::sqrt(x); });
}
Tensor abs(const Tensor& a) {
  return unaryOp(a, a.dtype(), [](double x) { return std::abs(x); });
}
Tensor sigmoid(const Tensor& a) {
  return unaryOp(a, DType::Float32,
                 [](double x) { return 1.0 / (1.0 + std::exp(-x)); });
}
Tensor tanh(const Tensor& a) {
  return unaryOp(a, DType::Float32, [](double x) { return std::tanh(x); });
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
  TSSA_CHECK(cond.dtype() == DType::Bool, "where condition must be Bool");
  Shape shape = broadcastShapes(cond.sizes(), a.sizes());
  shape = broadcastShapes(shape, b.sizes());
  Tensor out = Tensor::empty(shape, promoteTypes(a.dtype(), b.dtype()));
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
  const DType dt = a.dtype() == DType::Bool ? DType::Int64 : a.dtype();
  return Tensor::scalar(Scalar(acc), dt);
}

Tensor sum(const Tensor& a, std::int64_t dim, bool keepDim) {
  const DType dt = a.dtype() == DType::Bool ? DType::Int64 : a.dtype();
  return reduceDim(
      a, dim, keepDim, dt, /*seedFromFirst=*/false, 0.0,
      [](double acc, double v) { return acc + v; },
      [](double v) { return v; });
}

Tensor mean(const Tensor& a, std::int64_t dim, bool keepDim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  const double count = static_cast<double>(a.size(d));
  return reduceDim(
      a, dim, keepDim, DType::Float32, /*seedFromFirst=*/false, 0.0,
      [](double acc, double v) { return acc + v; },
      [=](double v) { return v / count; });
}

// max/min seed the accumulator from the first element along the reduced dim
// rather than a ±inf sentinel: casting ±inf into an Int64/Bool output is
// undefined behaviour, and an all--inf Float32 row must reduce to -inf, not
// to the sentinel. NaN propagates like PyTorch: any NaN in the row wins.

Tensor maxReduce(const Tensor& a, std::int64_t dim, bool keepDim) {
  return reduceDim(
      a, dim, keepDim, a.dtype(), /*seedFromFirst=*/true, 0.0,
      [](double acc, double v) {
        return (std::isnan(v) || v > acc) ? v : acc;
      },
      [](double v) { return v; });
}

Tensor minReduce(const Tensor& a, std::int64_t dim, bool keepDim) {
  return reduceDim(
      a, dim, keepDim, a.dtype(), /*seedFromFirst=*/true, 0.0,
      [](double acc, double v) {
        return (std::isnan(v) || v < acc) ? v : acc;
      },
      [](double v) { return v; });
}

Tensor argmax(const Tensor& a, std::int64_t dim, bool keepDim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  const auto du = static_cast<std::size_t>(d);
  const std::int64_t extent = a.size(d);
  TSSA_CHECK(extent > 0, "argmax over an empty dimension");
  const std::int64_t step = a.strides()[du];
  Shape outShape = a.sizes();
  outShape[du] = 1;
  Tensor out = Tensor::empty(outShape, DType::Int64);
  StridedLoop<2> loop(outShape, {&out, &a});
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
  TSSA_CHECK(a.dim() == 2 && b.dim() == 2,
             "matmul expects 2-D operands, got " << a.dim() << " and "
                                                 << b.dim());
  TSSA_CHECK(a.size(1) == b.size(0), "matmul inner dimensions disagree: "
                                         << a.size(1) << " vs " << b.size(0));
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  const Tensor ac = contiguousFloat(a);
  const Tensor bc = contiguousFloat(b);
  Tensor out = Tensor::empty({m, n}, DType::Float32);
  matmulInto(ac.data<float>(), bc.data<float>(), out.data<float>(), m, k, n);
  return out;
}

Tensor bmm(const Tensor& a, const Tensor& b) {
  TSSA_CHECK(a.dim() == 3 && b.dim() == 3, "bmm expects 3-D operands");
  TSSA_CHECK(a.size(0) == b.size(0), "bmm batch dims disagree");
  TSSA_CHECK(a.size(2) == b.size(1), "bmm inner dimensions disagree: "
                                         << a.size(2) << " vs " << b.size(1));
  const std::int64_t batch = a.size(0);
  const std::int64_t m = a.size(1), k = a.size(2), n = b.size(2);
  const Tensor ac = contiguousFloat(a);
  const Tensor bc = contiguousFloat(b);
  Tensor out = Tensor::empty({batch, m, n}, DType::Float32);
  for (std::int64_t i = 0; i < batch; ++i)
    matmulInto(ac.data<float>() + i * m * k, bc.data<float>() + i * k * n,
               out.data<float>() + i * m * n, m, k, n);
  return out;
}

// ---- Shape combinators -----------------------------------------------------------------------

Tensor cat(std::span<const Tensor> tensors, std::int64_t dim) {
  TSSA_CHECK(!tensors.empty(), "cat of zero tensors");
  const std::int64_t d = normalizeDim(dim, tensors.front().dim());
  Shape outShape = tensors.front().sizes();
  std::int64_t total = 0;
  DType dt = tensors.front().dtype();
  for (const Tensor& t : tensors) {
    TSSA_CHECK(t.dim() == tensors.front().dim(), "cat rank mismatch");
    for (std::int64_t i = 0; i < t.dim(); ++i) {
      if (i != d) {
        TSSA_CHECK(t.size(i) == outShape[static_cast<std::size_t>(i)],
                   "cat shape mismatch on dim " << i);
      }
    }
    total += t.size(d);
    dt = promoteTypes(dt, t.dtype());
  }
  outShape[static_cast<std::size_t>(d)] = total;
  Tensor out = Tensor::empty(outShape, dt);
  std::int64_t at = 0;
  for (const Tensor& t : tensors) {
    out.narrow(d, at, t.size(d)).copy_(t);
    at += t.size(d);
  }
  return out;
}

Tensor stack(std::span<const Tensor> tensors, std::int64_t dim) {
  TSSA_CHECK(!tensors.empty(), "stack of zero tensors");
  std::vector<Tensor> expanded;
  expanded.reserve(tensors.size());
  const std::int64_t rank = tensors.front().dim();
  const std::int64_t d = dim < 0 ? dim + rank + 1 : dim;
  for (const Tensor& t : tensors) expanded.push_back(t.unsqueeze(d));
  return cat(expanded, d);
}

// ---- Indexing -----------------------------------------------------------------------

Tensor indexSelect(const Tensor& a, std::int64_t dim, const Tensor& index) {
  TSSA_CHECK(index.dtype() == DType::Int64 && index.dim() == 1,
             "indexSelect needs a 1-D Int64 index");
  const std::int64_t d = normalizeDim(dim, a.dim());
  std::vector<Tensor> rows;
  const std::int64_t n = index.numel();
  rows.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::int64_t>(index.scalarAtLinear(i));
    rows.push_back(a.select(d, idx).unsqueeze(d));
  }
  return cat(rows, d);
}

Tensor gather(const Tensor& a, std::int64_t dim, const Tensor& index) {
  TSSA_CHECK(index.dtype() == DType::Int64, "gather needs Int64 indices");
  TSSA_CHECK(index.dim() == a.dim(), "gather index rank must match input");
  const std::int64_t d = normalizeDim(dim, a.dim());
  for (std::int64_t i = 0; i < a.dim(); ++i) {
    TSSA_CHECK(i == d || index.size(i) <= a.size(i),
               "gather index extent " << index.size(i)
                                      << " exceeds input extent " << a.size(i)
                                      << " in dim " << i);
  }
  const std::int64_t extent = a.size(d);
  const std::int64_t* pi = index.storage()->as<std::int64_t>();
  Tensor out = Tensor::empty(index.sizes(), a.dtype());
  for (IndexIterator it(index.sizes()); it.valid(); it.next()) {
    const std::int64_t j =
        pi[index.storageOffset() + offsetOf(it.index(), index.strides())];
    TSSA_CHECK(j >= 0 && j < extent, "gather index " << j
                                         << " out of range for dim " << d
                                         << " of extent " << extent);
    Shape srcIndex(it.index().begin(), it.index().end());
    srcIndex[static_cast<std::size_t>(d)] = j;
    out.setScalarAt(it.index(), a.scalarAt(srcIndex));
  }
  return out;
}

std::pair<Tensor, Tensor> topk(const Tensor& a, std::int64_t k) {
  TSSA_CHECK(a.dim() >= 1, "topk needs rank >= 1");
  const std::int64_t last = a.dim() - 1;
  const std::int64_t extent = a.size(last);
  TSSA_CHECK(k >= 0 && k <= extent, "topk k out of range");
  Shape outShape = a.sizes();
  outShape[static_cast<std::size_t>(last)] = k;
  Tensor values = Tensor::empty(outShape, a.dtype());
  Tensor indices = Tensor::empty(outShape, DType::Int64);
  Shape rowShape(a.sizes().begin(), a.sizes().end() - 1);
  for (IndexIterator it(rowShape); it.valid(); it.next()) {
    std::vector<std::pair<double, std::int64_t>> row;
    row.reserve(static_cast<std::size_t>(extent));
    Shape idx(it.index().begin(), it.index().end());
    idx.push_back(0);
    for (std::int64_t j = 0; j < extent; ++j) {
      idx.back() = j;
      row.emplace_back(a.scalarAt(idx), j);
    }
    std::stable_sort(row.begin(), row.end(), [](const auto& x, const auto& y) {
      return x.first > y.first;
    });
    for (std::int64_t j = 0; j < k; ++j) {
      idx.back() = j;
      values.setScalarAt(idx, row[static_cast<std::size_t>(j)].first);
      indices.setScalarAt(
          idx, static_cast<double>(row[static_cast<std::size_t>(j)].second));
    }
  }
  return {values, indices};
}

Tensor argsort(const Tensor& a, bool descending) {
  const std::int64_t last = a.dim() - 1;
  const std::int64_t extent = a.size(last);
  Tensor out = Tensor::empty(a.sizes(), DType::Int64);
  Shape rowShape(a.sizes().begin(), a.sizes().end() - 1);
  for (IndexIterator it(rowShape); it.valid(); it.next()) {
    std::vector<std::int64_t> order(static_cast<std::size_t>(extent));
    std::iota(order.begin(), order.end(), 0);
    Shape idx(it.index().begin(), it.index().end());
    idx.push_back(0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::int64_t x, std::int64_t y) {
                       Shape ix = idx, iy = idx;
                       ix.back() = x;
                       iy.back() = y;
                       const double vx = a.scalarAt(ix);
                       const double vy = a.scalarAt(iy);
                       return descending ? vx > vy : vx < vy;
                     });
    for (std::int64_t j = 0; j < extent; ++j) {
      idx.back() = j;
      out.setScalarAt(idx,
                      static_cast<double>(order[static_cast<std::size_t>(j)]));
    }
  }
  return out;
}

Tensor cumsum(const Tensor& a, std::int64_t dim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  Tensor out = a.clone();
  const std::int64_t extent = a.size(d);
  Shape outer = a.sizes();
  outer[static_cast<std::size_t>(d)] = 1;
  for (IndexIterator it(outer); it.valid(); it.next()) {
    Shape idx(it.index().begin(), it.index().end());
    double acc = 0;
    for (std::int64_t j = 0; j < extent; ++j) {
      idx[static_cast<std::size_t>(d)] = j;
      acc += a.scalarAt(idx);
      out.setScalarAt(idx, acc);
    }
  }
  return out;
}

}  // namespace tssa::ops
