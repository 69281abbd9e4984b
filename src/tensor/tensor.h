// Dense tensors with shared-storage views and in-place mutation.
//
// This is the data substrate of the reproduction: it deliberately implements
// the PyTorch aliasing model — `select` / `slice` / `permute` / ... return
// *views* that share the base tensor's Storage, and in-place operators such as
// `copy_` write through views, implicitly mutating every alias. TensorSSA's
// whole purpose is to compile programs written against this model into pure
// functional form; the reference interpreter executes both forms on this
// library so every transformation can be checked for bit-equal behaviour.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "src/tensor/dtype.h"
#include "src/tensor/scalar.h"
#include "src/tensor/shape.h"
#include "src/tensor/storage.h"

namespace tssa {

/// Shape/dtype of one tensor, without storage.
struct TensorMeta {
  Shape sizes;
  DType dtype = DType::Float32;

  std::int64_t numel() const { return numelOf(sizes); }
  std::int64_t bytes() const {
    return numel() * static_cast<std::int64_t>(dtypeSize(dtype));
  }
  friend bool operator==(const TensorMeta&, const TensorMeta&) = default;
};

class Tensor {
 public:
  /// An undefined tensor (no storage). `defined()` is false.
  Tensor() = default;

  // ---- Factories -----------------------------------------------------------

  /// Uninitialized tensor of the given shape/dtype.
  static Tensor empty(Shape sizes, DType dtype = DType::Float32);
  static Tensor zeros(Shape sizes, DType dtype = DType::Float32);
  static Tensor ones(Shape sizes, DType dtype = DType::Float32);
  static Tensor full(Shape sizes, Scalar value, DType dtype = DType::Float32);
  /// 1-D tensor [start, end) with step `step`.
  static Tensor arange(std::int64_t end);
  static Tensor arange(std::int64_t start, std::int64_t end,
                       std::int64_t step = 1);
  /// Rank-0 scalar tensor.
  static Tensor scalar(Scalar value, DType dtype = DType::Float32);
  /// A storage-less tensor of `meta`'s shape and dtype with contiguous
  /// strides; `defined()` is false. The view methods apply to it, since they
  /// only compute layouts: that is how metadata inference runs the view
  /// rules. Nothing may read or write its elements.
  static Tensor meta(TensorMeta meta);

  /// Builds a tensor from a flat row-major buffer.
  static Tensor fromData(std::span<const float> values, Shape sizes);
  static Tensor fromData(std::span<const std::int64_t> values, Shape sizes);
  static Tensor fromData(std::span<const bool> values, Shape sizes);
  static Tensor fromData(std::initializer_list<float> values, Shape sizes);

  // ---- Introspection -------------------------------------------------------

  bool defined() const { return storage_ != nullptr; }
  DType dtype() const { return dtype_; }
  const Shape& sizes() const { return sizes_; }
  const Strides& strides() const { return strides_; }
  std::int64_t dim() const { return static_cast<std::int64_t>(sizes_.size()); }
  std::int64_t size(std::int64_t d) const {
    return sizes_[static_cast<std::size_t>(normalizeDim(d, dim()))];
  }
  std::int64_t numel() const { return numelOf(sizes_); }
  std::int64_t storageOffset() const { return offset_; }
  const StoragePtr& storage() const { return storage_; }
  bool isContiguous() const { return isContiguousLayout(sizes_, strides_); }
  /// True when the two tensors alias the same underlying buffer.
  bool sharesStorageWith(const Tensor& other) const {
    return defined() && storage_ == other.storage_;
  }

  // ---- Element access ------------------------------------------------------

  /// Typed base pointer at this tensor's storage offset. dtype-checked.
  template <typename T>
  T* data() {
    TSSA_CHECK(DTypeOf<T>::value == dtype_, "dtype mismatch in data()");
    return storage_->as<T>() + offset_;
  }
  template <typename T>
  const T* data() const {
    TSSA_CHECK(DTypeOf<T>::value == dtype_, "dtype mismatch in data()");
    return storage_->as<T>() + offset_;
  }

  /// Reads the element at a full coordinate as double (bool → 0/1).
  double scalarAt(std::span<const std::int64_t> index) const;
  /// Writes the element at a full coordinate from a double.
  void setScalarAt(std::span<const std::int64_t> index, double value);
  /// Reads/writes by linear element offset *relative to this view's layout*
  /// (i.e. offsets walk the view in row-major order).
  double scalarAtLinear(std::int64_t linear) const;
  void setScalarAtLinear(std::int64_t linear, double value);

  /// The single element of a one-element tensor, as Scalar.
  Scalar item() const;

  // ---- Views (share storage) -----------------------------------------------

  Tensor select(std::int64_t dim, std::int64_t index) const;
  Tensor slice(std::int64_t dim, std::int64_t start, std::int64_t end,
               std::int64_t step = 1) const;
  Tensor narrow(std::int64_t dim, std::int64_t start,
                std::int64_t length) const;
  Tensor permute(std::span<const std::int64_t> dims) const;
  Tensor permute(std::initializer_list<std::int64_t> dims) const;
  Tensor transpose(std::int64_t d0, std::int64_t d1) const;
  Tensor squeeze(std::int64_t dim) const;
  Tensor unsqueeze(std::int64_t dim) const;
  Tensor expand(std::span<const std::int64_t> sizes) const;
  Tensor expand(std::initializer_list<std::int64_t> sizes) const;
  /// View with a new shape; throws if the layout does not permit a view.
  Tensor view(Shape sizes) const;
  /// Like `view`, but silently copies when a view is impossible.
  Tensor reshape(Shape sizes) const;
  Tensor flatten(std::int64_t startDim = 0, std::int64_t endDim = -1) const;

  // ---- Copies --------------------------------------------------------------

  /// Deep copy into fresh contiguous storage.
  Tensor clone() const;
  /// Returns *this if already contiguous, else a contiguous clone.
  Tensor contiguous() const;
  /// Casts to another dtype (always copies).
  Tensor to(DType dtype) const;

  // ---- In-place mutation (writes through views) ------------------------------

  /// Copies `src` into this tensor, broadcasting src to this shape.
  /// This is THE Mutate operator of the paper (Definition 3.2).
  void copy_(const Tensor& src);
  void fill_(Scalar value);

  /// Detaches and returns this tensor's storage handle, leaving the tensor
  /// undefined. Used by the runtime memory planner when a value dies: the
  /// Arena re-checks sole ownership via the refcount before pooling, so
  /// calling this on a still-aliased tensor is safe (the buffer just stays
  /// alive with its other owners).
  StoragePtr releaseStorage() {
    offset_ = 0;
    sizes_.clear();
    strides_.clear();
    return std::move(storage_);
  }

  /// Renders the tensor (shape, dtype, and up to `maxElems` values).
  std::string toString(std::int64_t maxElems = 64) const;

 private:
  Tensor(StoragePtr storage, std::int64_t offset, Shape sizes, Strides strides,
         DType dtype)
      : storage_(std::move(storage)),
        offset_(offset),
        sizes_(std::move(sizes)),
        strides_(std::move(strides)),
        dtype_(dtype) {}

  /// Element offset (within storage) of a coordinate of this view.
  std::int64_t elementOffset(std::span<const std::int64_t> index) const;

  StoragePtr storage_;
  std::int64_t offset_ = 0;
  Shape sizes_;
  Strides strides_;
  DType dtype_ = DType::Float32;
};

/// True when both tensors are defined, have identical shape/dtype, and all
/// elements compare equal within `tolerance` (exact for int/bool).
bool allClose(const Tensor& a, const Tensor& b, double tolerance = 1e-5);

std::ostream& operator<<(std::ostream& os, const Tensor& t);

}  // namespace tssa
