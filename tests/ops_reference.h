// Per-element reference formulations of the tensor kernels. Every value
// travels as a double through Tensor::scalarAt / setScalarAt, with each
// kernel's arithmetic, accumulation order and rounding points spelled out
// element by element. The kernels in src/tensor walk typed rows instead;
// tests/ops_test.cpp and bench/micro_ops.cpp check them against these
// byte for byte (sameBits).
#pragma once

#include <cmath>
#include <cstring>
#include <functional>
#include <span>

#include "src/tensor/tensor.h"

namespace tssa::testing_support::reference {

/// Coordinate of a broadcast operand of shape `sizes` for result index `idx`.
inline Shape broadcastIndex(std::span<const std::int64_t> idx,
                            const Shape& sizes) {
  Shape out(sizes.size());
  const std::size_t shift = idx.size() - sizes.size();
  for (std::size_t d = 0; d < sizes.size(); ++d)
    out[d] = sizes[d] == 1 ? 0 : idx[shift + d];
  return out;
}

inline Tensor refTo(const Tensor& a, DType dtype) {
  Tensor out = Tensor::empty(a.sizes(), dtype);
  for (IndexIterator it(a.sizes()); it.valid(); it.next())
    out.setScalarAt(it.index(), a.scalarAt(it.index()));
  return out;
}

inline void refCopy(Tensor& dst, const Tensor& src) {
  const Tensor snapshot = refTo(src, src.dtype());
  for (IndexIterator it(dst.sizes()); it.valid(); it.next())
    dst.setScalarAt(it.index(),
             snapshot.scalarAt(broadcastIndex(it.index(), src.sizes())));
}

inline Tensor refBinary(const Tensor& a, const Tensor& b, DType outDType,
                 const std::function<double(double, double)>& fn) {
  Tensor out =
      Tensor::empty(broadcastShapes(a.sizes(), b.sizes()), outDType);
  for (IndexIterator it(out.sizes()); it.valid(); it.next())
    out.setScalarAt(it.index(),
             fn(a.scalarAt(broadcastIndex(it.index(), a.sizes())),
                b.scalarAt(broadcastIndex(it.index(), b.sizes()))));
  return out;
}

inline Tensor refUnary(const Tensor& a, DType outDType,
                const std::function<double(double)>& fn) {
  Tensor out = Tensor::empty(a.sizes(), outDType);
  for (IndexIterator it(a.sizes()); it.valid(); it.next())
    out.setScalarAt(it.index(), fn(a.scalarAt(it.index())));
  return out;
}

inline Tensor refWhere(const Tensor& c, const Tensor& a, const Tensor& b) {
  Shape shape = broadcastShapes(broadcastShapes(c.sizes(), a.sizes()),
                                b.sizes());
  Tensor out = Tensor::empty(shape, promoteTypes(a.dtype(), b.dtype()));
  for (IndexIterator it(shape); it.valid(); it.next()) {
    const bool take = c.scalarAt(broadcastIndex(it.index(), c.sizes())) != 0;
    out.setScalarAt(it.index(),
             take ? a.scalarAt(broadcastIndex(it.index(), a.sizes()))
                  : b.scalarAt(broadcastIndex(it.index(), b.sizes())));
  }
  return out;
}

/// `v` rounded through `dtype` after every accumulation step.
inline double refRound(DType dtype, double v) {
  Tensor cell = Tensor::empty({}, dtype);
  cell.setScalarAt({}, v);
  return cell.scalarAt({});
}

enum class Reduce { Sum, Mean, Max, Min };

inline Tensor refReduce(const Tensor& a, std::int64_t dim, bool keepDim,
                 Reduce kind) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  const auto du = static_cast<std::size_t>(d);
  const std::int64_t extent = a.size(d);
  const bool seedFromFirst = kind == Reduce::Max || kind == Reduce::Min;
  DType outDType = a.dtype();
  if (kind == Reduce::Sum && a.dtype() == DType::Bool) outDType = DType::Int64;
  if (kind == Reduce::Mean) outDType = DType::Float32;
  Shape outShape = a.sizes();
  outShape[du] = 1;
  Tensor out = Tensor::empty(outShape, outDType);
  for (IndexIterator it(outShape); it.valid(); it.next()) {
    Shape idx(it.index().begin(), it.index().end());
    double acc = 0.0;
    std::int64_t j = 0;
    if (seedFromFirst) {
      idx[du] = 0;
      acc = refRound(outDType, a.scalarAt(idx));
      j = 1;
    }
    for (; j < extent; ++j) {
      idx[du] = j;
      const double v = a.scalarAt(idx);
      switch (kind) {
        case Reduce::Sum:
        case Reduce::Mean: acc = acc + v; break;
        case Reduce::Max: acc = (std::isnan(v) || v > acc) ? v : acc; break;
        case Reduce::Min: acc = (std::isnan(v) || v < acc) ? v : acc; break;
      }
      acc = refRound(outDType, acc);
    }
    if (kind == Reduce::Mean) acc = acc / static_cast<double>(extent);
    out.setScalarAt(it.index(), acc);
  }
  return keepDim ? out : out.squeeze(d);
}

inline Tensor refArgmax(const Tensor& a, std::int64_t dim, bool keepDim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  const auto du = static_cast<std::size_t>(d);
  Shape outShape = a.sizes();
  outShape[du] = 1;
  Tensor out = Tensor::empty(outShape, DType::Int64);
  for (IndexIterator it(outShape); it.valid(); it.next()) {
    Shape idx(it.index().begin(), it.index().end());
    double best = a.scalarAt(idx);
    std::int64_t bestIndex = 0;
    for (std::int64_t j = 1; j < a.size(d); ++j) {
      idx[du] = j;
      const double v = a.scalarAt(idx);
      if ((std::isnan(v) && !std::isnan(best)) || v > best) {
        best = v;
        bestIndex = j;
      }
    }
    out.setScalarAt(it.index(), static_cast<double>(bestIndex));
  }
  return keepDim ? out : out.squeeze(d);
}

inline Tensor refSumAll(const Tensor& a) {
  double acc = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) acc += a.scalarAtLinear(i);
  return Tensor::scalar(Scalar(acc), a.dtype() == DType::Bool ? DType::Int64
                                                              : a.dtype());
}

/// The plain i-k-j Float32 loop over per-element-converted operands.
inline Tensor refMatmul(const Tensor& a, const Tensor& b) {
  const Tensor ac = refTo(a, DType::Float32);
  const Tensor bc = refTo(b, DType::Float32);
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor out = Tensor::zeros({m, n});
  const float* pa = ac.data<float>();
  const float* pb = bc.data<float>();
  float* po = out.data<float>();
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t kk = 0; kk < k; ++kk)
      for (std::int64_t j = 0; j < n; ++j)
        po[i * n + j] += pa[i * k + kk] * pb[kk * n + j];
  return out;
}

/// Same dtype, same shape, same bytes (row-major) — except that any two
/// Float32 NaNs match: IEEE 754 leaves open which payload and sign an
/// operation on NaNs propagates, and the compiler may commute an addition,
/// so a NaN's sign is not part of any kernel's contract. -0.0, ±inf and
/// every other value must match bit for bit.
inline bool sameBits(const Tensor& got, const Tensor& want) {
  if (got.dtype() != want.dtype() || got.sizes() != want.sizes())
    return false;
  const Tensor g = got.contiguous();
  const Tensor w = want.contiguous();
  const std::size_t bytes =
      static_cast<std::size_t>(g.numel()) * dtypeSize(g.dtype());
  if (bytes == 0) return true;
  const std::byte* pg = g.storage()->raw() +
                        static_cast<std::size_t>(g.storageOffset()) *
                            dtypeSize(g.dtype());
  const std::byte* pw = w.storage()->raw() +
                        static_cast<std::size_t>(w.storageOffset()) *
                            dtypeSize(w.dtype());
  if (g.dtype() == DType::Float32) {
    const auto* fg = reinterpret_cast<const float*>(pg);
    const auto* fw = reinterpret_cast<const float*>(pw);
    for (std::int64_t i = 0; i < g.numel(); ++i) {
      if (std::isnan(fg[i]) && std::isnan(fw[i])) continue;
      if (std::memcmp(fg + i, fw + i, sizeof(float)) != 0) return false;
    }
    return true;
  }
  return std::memcmp(pg, pw, bytes) == 0;
}

}  // namespace tssa::testing_support::reference
