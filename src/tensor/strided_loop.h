// Typed row loops for the per-op kernels. Every kernel picks its dtypes once
// per call and walks its operands row by row: the outer dims advance an
// odometer once per row, the innermost dim is a plain loop with one stride
// per operand (0 or 1 in the common broadcast and contiguous cases). Dims
// that are contiguous for every operand are merged first, so a contiguous
// operand set is a single row.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>

#include "src/support/error.h"
#include "src/tensor/dtype.h"
#include "src/tensor/shape.h"
#include "src/tensor/storage.h"
#include "src/tensor/tensor.h"

namespace tssa::detail {

/// Calls `fn` with a value of the C++ element type of `dtype` (Bool is
/// stored as uint8_t).
template <typename Fn>
decltype(auto) dispatchDType(DType dtype, Fn&& fn) {
  switch (dtype) {
    case DType::Float32:
      return fn(float{});
    case DType::Int64:
      return fn(std::int64_t{});
    case DType::Bool:
      return fn(std::uint8_t{});
  }
  TSSA_THROW("unknown dtype");
}

/// Row-major walk over `shape` for K operand tensors, one row at a time.
/// Each operand is aligned to `shape` by its trailing dims and broadcasts
/// (stride 0) where it has extent 1 or lacks the dim. Rows are visited in
/// row-major order and each row in ascending index order, so a kernel that
/// walks `rowLength()` elements per row visits elements in exactly the order
/// of a per-element odometer. The walk state lives inline: building a loop
/// allocates nothing.
///
///   for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow())
///     for (std::int64_t j = 0; j < loop.rowLength(); ++j)
///       use(offset(k) + j * rowStride(k));
template <std::size_t K>
class StridedLoop {
 public:
  /// Most dims left after merging; only tensors with more dims that no
  /// operand lays out contiguously are rejected.
  static constexpr std::size_t kMaxDims = 16;

  StridedLoop(std::span<const std::int64_t> shape,
              const std::array<const Tensor*, K>& operands) {
    for (std::size_t k = 0; k < K; ++k)
      offsets_[k] = operands[k]->storageOffset();
    // Merge dims from the innermost out: extent-1 dims never move an
    // offset, and dim i folds into the group inside it when every operand
    // steps over that whole group (stride[i] == stride * extent).
    std::int64_t stride[K];
    for (std::size_t i = shape.size(); i-- > 0;) {
      const std::int64_t extent = shape[i];
      if (extent == 0) {
        rows_ = 0;
        return;
      }
      if (extent == 1) continue;
      for (std::size_t k = 0; k < K; ++k) {
        const Tensor& t = *operands[k];
        const std::size_t shift = shape.size() - t.sizes().size();
        stride[k] = i < shift || t.sizes()[i - shift] == 1
                        ? 0
                        : t.strides()[i - shift];
      }
      bool merges = dims_ > 0;
      for (std::size_t k = 0; k < K && merges; ++k)
        merges = stride[k] == stride_[k][dims_ - 1] * extent_[dims_ - 1];
      if (merges) {
        extent_[dims_ - 1] *= extent;
        continue;
      }
      TSSA_CHECK(dims_ < kMaxDims, "strided loop over more than "
                                       << kMaxDims << " dims");
      extent_[dims_] = extent;
      for (std::size_t k = 0; k < K; ++k) stride_[k][dims_] = stride[k];
      ++dims_;
    }
    if (dims_ == 0) return;  // one element: a row of length 1
    // Dims are held innermost first; dim 0 is the row.
    rowLength_ = extent_[0];
    for (std::size_t k = 0; k < K; ++k) rowStride_[k] = stride_[k][0];
    for (std::size_t d = 1; d < dims_; ++d) {
      rows_ *= extent_[d];
      coord_[d] = 0;
    }
  }

  /// Number of rows (0 when the shape has no elements).
  std::int64_t rows() const { return rows_; }
  std::int64_t rowLength() const { return rowLength_; }
  std::int64_t rowStride(std::size_t k) const { return rowStride_[k]; }
  /// Element offset of operand k at the start of the current row.
  std::int64_t offset(std::size_t k) const { return offsets_[k]; }

  void nextRow() {
    for (std::size_t d = 1; d < dims_; ++d) {
      if (++coord_[d] < extent_[d]) {
        for (std::size_t k = 0; k < K; ++k) offsets_[k] += stride_[k][d];
        return;
      }
      coord_[d] = 0;
      for (std::size_t k = 0; k < K; ++k)
        offsets_[k] -= stride_[k][d] * (extent_[d] - 1);
    }
  }

 private:
  std::size_t dims_ = 0;  // merged dims, innermost first
  std::int64_t extent_[kMaxDims];
  std::int64_t coord_[kMaxDims];
  std::int64_t stride_[K][kMaxDims];
  std::array<std::int64_t, K> offsets_;
  std::array<std::int64_t, K> rowStride_{};
  std::int64_t rowLength_ = 1;
  std::int64_t rows_ = 1;
};

/// Runs `body(j, j * s0, j * s1)` for j in [0, n): element j of a row and
/// its index in two strided operands. The unit/zero stride cases are
/// separate loops so the compiler sees constant strides there.
template <typename Body>
inline void forRow2(std::int64_t n, std::int64_t s0, std::int64_t s1,
                    Body&& body) {
  if (s0 == 1 && s1 == 1) {
    for (std::int64_t j = 0; j < n; ++j) body(j, j, j);
  } else if (s0 == 1 && s1 == 0) {
    for (std::int64_t j = 0; j < n; ++j) body(j, j, std::int64_t{0});
  } else if (s0 == 0 && s1 == 1) {
    for (std::int64_t j = 0; j < n; ++j) body(j, std::int64_t{0}, j);
  } else {
    for (std::int64_t j = 0; j < n; ++j) body(j, j * s0, j * s1);
  }
}

/// The element a tensor of C++ element type `T` stores for `v`. Bool
/// (uint8_t) stores `v != 0` — a cast would truncate 0.5 to false and is
/// undefined for values outside [0, 256) — matching what comparisons and
/// the JIT produce; the other types convert. Every store into a Bool tensor
/// goes through this rule, so Bool elements are always 0 or 1 and kernels
/// read any element as `static_cast<double>`.
template <typename T>
inline T storedAs(double v) {
  if constexpr (std::is_same_v<T, std::uint8_t>) {
    return static_cast<std::uint8_t>(v != 0.0);
  } else {
    return static_cast<T>(v);
  }
}

/// Elements per chunk when a kernel stages a row through double buffers.
inline constexpr std::int64_t kRowChunk = 256;

/// Row load/store through double buffers, for kernels whose operand dtypes
/// differ: the conversions are chosen once per call, and each converts a run
/// of `n` elements (strided on load, contiguous on store) with exactly the
/// per-element conversions (static_cast<double> in, storedAs out).
using LoadRowFn = void (*)(const Storage&, std::int64_t off,
                           std::int64_t stride, std::int64_t n, double* out);
using StoreRowFn = void (*)(Storage&, std::int64_t off, std::int64_t n,
                            const double* in);

template <typename T>
inline void loadRow(const Storage& s, std::int64_t off, std::int64_t stride,
                    std::int64_t n, double* out) {
  const T* p = s.as<T>() + off;
  for (std::int64_t j = 0; j < n; ++j)
    out[j] = static_cast<double>(p[j * stride]);
}

template <typename T>
inline void storeRow(Storage& s, std::int64_t off, std::int64_t n,
                     const double* in) {
  T* p = s.as<T>() + off;
  for (std::int64_t j = 0; j < n; ++j) p[j] = storedAs<T>(in[j]);
}

inline LoadRowFn loadRowFor(DType dtype) {
  return dispatchDType(dtype, [](auto tag) -> LoadRowFn {
    return &loadRow<decltype(tag)>;
  });
}

inline StoreRowFn storeRowFor(DType dtype) {
  return dispatchDType(dtype, [](auto tag) -> StoreRowFn {
    return &storeRow<decltype(tag)>;
  });
}

}  // namespace tssa::detail
