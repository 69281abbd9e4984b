// Reference-counted flat buffer shared by tensor views.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/tensor/dtype.h"

namespace tssa {

/// The underlying data buffer of one or more tensors. Tensor views alias the
/// same Storage with different (offset, sizes, strides) interpretations —
/// exactly the aliasing mechanism whose side effects TensorSSA removes.
class Storage {
 public:
  Storage(std::int64_t numel, DType dtype)
      : dtype_(dtype),
        data_(static_cast<std::size_t>(numel) * dtypeSize(dtype)) {}

  DType dtype() const { return dtype_; }

  std::int64_t numel() const {
    return static_cast<std::int64_t>(data_.size() / dtypeSize(dtype_));
  }

  std::byte* raw() { return data_.data(); }
  const std::byte* raw() const { return data_.data(); }

  /// Typed base pointer. The caller is responsible for dtype agreement
  /// (checked by Tensor accessors).
  template <typename T>
  T* as() {
    return reinterpret_cast<T*>(data_.data());
  }
  template <typename T>
  const T* as() const {
    return reinterpret_cast<const T*>(data_.data());
  }

 private:
  DType dtype_;
  std::vector<std::byte> data_;
};

using StoragePtr = std::shared_ptr<Storage>;

}  // namespace tssa
