// Typed strided element loops for the general (non-contiguous / broadcast /
// mixed-dtype) paths of elementwise ops and copies. The historical fallback
// re-derived every operand offset from the full coordinate and re-dispatched
// the dtype per element; these helpers dispatch once per call and walk the
// offsets incrementally (odometer with carry), which is what makes
// transposed-operand ops cheap (see bench/micro_ops.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>

#include "src/support/error.h"
#include "src/tensor/dtype.h"
#include "src/tensor/shape.h"
#include "src/tensor/storage.h"

namespace tssa::detail {

/// Strides of an operand aligned to a (possibly broadcast) result shape: one
/// stride per result dim, 0 where the operand broadcasts (size-1 dims and
/// missing leading dims). Mirrors broadcastOffset()'s trailing-dim alignment,
/// so walking these strides visits exactly the elements broadcastOffset would
/// have produced.
inline Strides alignedStrides(std::span<const std::int64_t> outShape,
                              const Shape& sizes, const Strides& strides) {
  Strides out(outShape.size(), 0);
  const std::size_t shift = outShape.size() - sizes.size();
  for (std::size_t d = 0; d < sizes.size(); ++d)
    out[shift + d] = sizes[d] == 1 ? 0 : strides[d];
  return out;
}

/// Row-major odometer over `shape` maintaining the element offset of K
/// operands incrementally: advancing dim d adds stride[d]; a carry out of
/// dim d subtracts stride[d] * (extent[d] - 1).
template <std::size_t K>
class StridedLoop {
 public:
  StridedLoop(std::span<const std::int64_t> shape,
              const std::array<const Strides*, K>& strides,
              const std::array<std::int64_t, K>& base)
      : shape_(shape.begin(), shape.end()),
        coord_(shape.size(), 0),
        offsets_(base) {
    for (std::size_t k = 0; k < K; ++k) strides_[k] = *strides[k];
  }

  std::int64_t offset(std::size_t k) const { return offsets_[k]; }

  void advance() {
    for (std::int64_t d = static_cast<std::int64_t>(shape_.size()) - 1; d >= 0;
         --d) {
      const auto du = static_cast<std::size_t>(d);
      if (++coord_[du] < shape_[du]) {
        for (std::size_t k = 0; k < K; ++k) offsets_[k] += strides_[k][du];
        return;
      }
      coord_[du] = 0;
      for (std::size_t k = 0; k < K; ++k)
        offsets_[k] -= strides_[k][du] * (shape_[du] - 1);
    }
  }

 private:
  Shape shape_;
  Shape coord_;
  std::array<Strides, K> strides_;
  std::array<std::int64_t, K> offsets_;
};

/// The element a tensor of C++ element type `T` stores for `v`. Bool
/// (uint8_t) stores `v != 0` — a cast would truncate 0.5 to false and is
/// undefined for values outside [0, 256) — matching what comparisons and
/// the JIT produce; the other types convert.
template <typename T>
inline T storedAs(double v) {
  if constexpr (std::is_same_v<T, std::uint8_t>) {
    return v != 0.0 ? 1 : 0;
  } else {
    return static_cast<T>(v);
  }
}

/// Element load/store through function pointers selected once per call.
/// Values travel as double with exactly the conversions the per-element
/// dispatch uses (bool reads as 0/1, stores through storedAs), so the
/// strided path is bitwise identical to it.
using LoadFn = double (*)(const Storage&, std::int64_t);
using StoreFn = void (*)(Storage&, std::int64_t, double);

template <typename T>
inline double loadElem(const Storage& s, std::int64_t off) {
  return static_cast<double>(s.as<T>()[off]);
}
inline double loadBoolElem(const Storage& s, std::int64_t off) {
  return s.as<std::uint8_t>()[off] ? 1.0 : 0.0;
}

inline LoadFn loadFnFor(DType dtype) {
  switch (dtype) {
    case DType::Float32:
      return &loadElem<float>;
    case DType::Int64:
      return &loadElem<std::int64_t>;
    case DType::Bool:
      return &loadBoolElem;
  }
  TSSA_THROW("unknown dtype");
}

template <typename T>
inline void storeElem(Storage& s, std::int64_t off, double v) {
  s.as<T>()[off] = storedAs<T>(v);
}

inline StoreFn storeFnFor(DType dtype) {
  switch (dtype) {
    case DType::Float32:
      return &storeElem<float>;
    case DType::Int64:
      return &storeElem<std::int64_t>;
    case DType::Bool:
      return &storeElem<std::uint8_t>;
  }
  TSSA_THROW("unknown dtype");
}

}  // namespace tssa::detail
