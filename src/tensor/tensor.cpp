#include "src/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "src/tensor/arena.h"
#include "src/tensor/strided_loop.h"

namespace tssa {
namespace {

using detail::dispatchDType;

/// Copies the rows of `loop` (operand 0 the destination, 1 the source).
/// Equal dtypes copy bits, a unit-stride row as one memmove; otherwise each
/// element converts through double and storedAs.
template <typename D, typename S>
void copyRows(detail::StridedLoop<2>& loop, D* pd, const S* ps) {
  const std::int64_t n = loop.rowLength();
  const std::int64_t sd = loop.rowStride(0);
  const std::int64_t ss = loop.rowStride(1);
  for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow()) {
    D* d = pd + loop.offset(0);
    const S* s = ps + loop.offset(1);
    if constexpr (std::is_same_v<D, S>) {
      if (sd == 1 && ss == 1) {
        std::memmove(d, s, static_cast<std::size_t>(n) * sizeof(D));
        continue;
      }
    }
    detail::forRow2(n, sd, ss,
                    [&](std::int64_t, std::int64_t i, std::int64_t j) {
                      if constexpr (std::is_same_v<D, S>) {
                        d[i] = s[j];
                      } else {
                        d[i] = detail::storedAs<D>(static_cast<double>(s[j]));
                      }
                    });
  }
}

}  // namespace

// ---- Factories --------------------------------------------------------------

Tensor Tensor::empty(Shape sizes, DType dtype) {
  const std::int64_t n = numelOf(sizes);
  TSSA_CHECK(n >= 0, "negative element count");
  // Inside a planned program run, intermediates come from the execution
  // context's arena (zeroed either way, so planner on/off is bitwise
  // identical); outside any Arena::Scope this is a plain heap allocation.
  Arena* arena = Arena::current();
  StoragePtr storage = arena != nullptr ? arena->allocate(n, dtype)
                                        : std::make_shared<Storage>(n, dtype);
  Strides strides = contiguousStrides(sizes);
  return Tensor(std::move(storage), 0, std::move(sizes), std::move(strides),
                dtype);
}

Tensor Tensor::zeros(Shape sizes, DType dtype) {
  Tensor t = empty(std::move(sizes), dtype);
  t.fill_(Scalar(0));
  return t;
}

Tensor Tensor::ones(Shape sizes, DType dtype) {
  Tensor t = empty(std::move(sizes), dtype);
  t.fill_(Scalar(1));
  return t;
}

Tensor Tensor::full(Shape sizes, Scalar value, DType dtype) {
  Tensor t = empty(std::move(sizes), dtype);
  t.fill_(value);
  return t;
}

Tensor Tensor::arange(std::int64_t end) { return arange(0, end, 1); }

Tensor Tensor::arange(std::int64_t start, std::int64_t end,
                      std::int64_t step) {
  const std::int64_t n = arangeLength(start, end, step);
  Tensor t = empty({n}, DType::Int64);
  std::int64_t v = start;
  for (std::int64_t i = 0; i < n; ++i, v += step) t.data<std::int64_t>()[i] = v;
  return t;
}

Tensor Tensor::scalar(Scalar value, DType dtype) {
  Tensor t = empty({}, dtype);
  t.fill_(value);
  return t;
}

Tensor Tensor::meta(TensorMeta meta) {
  Strides strides = contiguousStrides(meta.sizes);
  return Tensor(nullptr, 0, std::move(meta.sizes), std::move(strides),
                meta.dtype);
}

Tensor Tensor::fromData(std::span<const float> values, Shape sizes) {
  TSSA_CHECK(static_cast<std::int64_t>(values.size()) == numelOf(sizes),
             "value count " << values.size() << " does not match shape "
                            << bracketed(sizes));
  Tensor t = empty(std::move(sizes), DType::Float32);
  std::copy(values.begin(), values.end(), t.data<float>());
  return t;
}

Tensor Tensor::fromData(std::span<const std::int64_t> values, Shape sizes) {
  TSSA_CHECK(static_cast<std::int64_t>(values.size()) == numelOf(sizes),
             "value count does not match shape");
  Tensor t = empty(std::move(sizes), DType::Int64);
  std::copy(values.begin(), values.end(), t.data<std::int64_t>());
  return t;
}

Tensor Tensor::fromData(std::span<const bool> values, Shape sizes) {
  TSSA_CHECK(static_cast<std::int64_t>(values.size()) == numelOf(sizes),
             "value count does not match shape");
  Tensor t = empty(std::move(sizes), DType::Bool);
  std::transform(values.begin(), values.end(), t.data<std::uint8_t>(),
                 [](bool b) { return static_cast<std::uint8_t>(b); });
  return t;
}

Tensor Tensor::fromData(std::initializer_list<float> values, Shape sizes) {
  return fromData(std::span<const float>(values.begin(), values.size()),
                  std::move(sizes));
}

// ---- Element access ----------------------------------------------------------

std::int64_t Tensor::elementOffset(std::span<const std::int64_t> index) const {
  TSSA_CHECK(static_cast<std::int64_t>(index.size()) == dim(),
             "coordinate rank " << index.size() << " != tensor rank " << dim());
  return offset_ + offsetOf(index, strides_);
}

double Tensor::scalarAt(std::span<const std::int64_t> index) const {
  const std::int64_t off = elementOffset(index);
  return dispatchDType(dtype_, [&](auto tag) {
    using T = decltype(tag);
    return static_cast<double>(storage_->as<T>()[off]);
  });
}

void Tensor::setScalarAt(std::span<const std::int64_t> index, double value) {
  const std::int64_t off = elementOffset(index);
  dispatchDType(dtype_, [&](auto tag) {
    using T = decltype(tag);
    storage_->as<T>()[off] = detail::storedAs<T>(value);
  });
}

double Tensor::scalarAtLinear(std::int64_t linear) const {
  if (isContiguous()) {
    return dispatchDType(dtype_, [&](auto tag) {
      using T = decltype(tag);
      return static_cast<double>(storage_->as<T>()[offset_ + linear]);
    });
  }
  // Decompose `linear` into a coordinate of this view.
  Shape index(sizes_.size());
  std::int64_t rem = linear;
  for (std::int64_t d = dim() - 1; d >= 0; --d) {
    const auto du = static_cast<std::size_t>(d);
    index[du] = rem % sizes_[du];
    rem /= sizes_[du];
  }
  return scalarAt(index);
}

void Tensor::setScalarAtLinear(std::int64_t linear, double value) {
  if (isContiguous()) {
    dispatchDType(dtype_, [&](auto tag) {
      using T = decltype(tag);
      storage_->as<T>()[offset_ + linear] = detail::storedAs<T>(value);
    });
    return;
  }
  Shape index(sizes_.size());
  std::int64_t rem = linear;
  for (std::int64_t d = dim() - 1; d >= 0; --d) {
    const auto du = static_cast<std::size_t>(d);
    index[du] = rem % sizes_[du];
    rem /= sizes_[du];
  }
  setScalarAt(index, value);
}

Scalar Tensor::item() const {
  TSSA_CHECK(numel() == 1, "item() requires exactly one element, have "
                               << numel());
  const double v = scalarAtLinear(0);
  switch (dtype_) {
    case DType::Float32:
      return Scalar(v);
    case DType::Int64:
      return Scalar(static_cast<std::int64_t>(v));
    case DType::Bool:
      return Scalar(v != 0.0);
  }
  TSSA_THROW("unknown dtype");
}

// ---- Views -------------------------------------------------------------------

Tensor Tensor::select(std::int64_t dim, std::int64_t index) const {
  const std::int64_t d = normalizeDim(dim, this->dim());
  const std::int64_t i = normalizeIndex(index, size(d));
  Shape sizes = sizes_;
  Strides strides = strides_;
  const std::int64_t off =
      offset_ + i * strides[static_cast<std::size_t>(d)];
  sizes.erase(sizes.begin() + d);
  strides.erase(strides.begin() + d);
  return Tensor(storage_, off, std::move(sizes), std::move(strides), dtype_);
}

Tensor Tensor::slice(std::int64_t dim, std::int64_t start, std::int64_t end,
                     std::int64_t step) const {
  const std::int64_t d = normalizeDim(dim, this->dim());
  TSSA_CHECK(step > 0, "slice step must be positive");
  normalizeSliceBounds(size(d), start, end);
  Shape sizes = sizes_;
  Strides strides = strides_;
  const auto du = static_cast<std::size_t>(d);
  const std::int64_t off = offset_ + start * strides[du];
  sizes[du] = (end - start + step - 1) / step;
  strides[du] *= step;
  return Tensor(storage_, off, std::move(sizes), std::move(strides), dtype_);
}

Tensor Tensor::narrow(std::int64_t dim, std::int64_t start,
                      std::int64_t length) const {
  return slice(dim, start, start + length, 1);
}

Tensor Tensor::permute(std::span<const std::int64_t> dims) const {
  TSSA_CHECK(static_cast<std::int64_t>(dims.size()) == dim(),
             "permute needs one entry per dimension");
  Shape sizes(dims.size());
  Strides strides(dims.size());
  std::vector<bool> seen(dims.size(), false);
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const std::int64_t d = normalizeDim(dims[i], dim());
    TSSA_CHECK(!seen[static_cast<std::size_t>(d)],
               "duplicate dimension in permute");
    seen[static_cast<std::size_t>(d)] = true;
    sizes[i] = sizes_[static_cast<std::size_t>(d)];
    strides[i] = strides_[static_cast<std::size_t>(d)];
  }
  return Tensor(storage_, offset_, std::move(sizes), std::move(strides),
                dtype_);
}

Tensor Tensor::permute(std::initializer_list<std::int64_t> dims) const {
  return permute(std::span<const std::int64_t>(dims.begin(), dims.size()));
}

Tensor Tensor::transpose(std::int64_t d0, std::int64_t d1) const {
  Shape perm(static_cast<std::size_t>(dim()));
  for (std::size_t i = 0; i < perm.size(); ++i)
    perm[i] = static_cast<std::int64_t>(i);
  std::swap(perm[static_cast<std::size_t>(normalizeDim(d0, dim()))],
            perm[static_cast<std::size_t>(normalizeDim(d1, dim()))]);
  return permute(perm);
}

Tensor Tensor::squeeze(std::int64_t dim) const {
  const std::int64_t d = normalizeDim(dim, this->dim());
  TSSA_CHECK(size(d) == 1, "squeeze of non-unit dimension " << d);
  Shape sizes = sizes_;
  Strides strides = strides_;
  sizes.erase(sizes.begin() + d);
  strides.erase(strides.begin() + d);
  return Tensor(storage_, offset_, std::move(sizes), std::move(strides),
                dtype_);
}

Tensor Tensor::unsqueeze(std::int64_t dim) const {
  const std::int64_t rank = this->dim();
  const std::int64_t d = dim < 0 ? dim + rank + 1 : dim;
  TSSA_CHECK(d >= 0 && d <= rank, "unsqueeze dim out of range");
  Shape sizes = sizes_;
  Strides strides = strides_;
  // Stride value for an extent-1 dim never matters; reuse the next stride so
  // the result remains contiguous when the input is.
  const std::int64_t stride =
      d < rank ? strides[static_cast<std::size_t>(d)] *
                     sizes[static_cast<std::size_t>(d)]
               : 1;
  sizes.insert(sizes.begin() + d, 1);
  strides.insert(strides.begin() + d, stride);
  return Tensor(storage_, offset_, std::move(sizes), std::move(strides),
                dtype_);
}

Tensor Tensor::expand(std::span<const std::int64_t> sizes) const {
  TSSA_CHECK(broadcastableTo(sizes_, sizes),
             "cannot expand " << bracketed(sizes_) << " to "
                              << bracketed(sizes));
  Shape outSizes(sizes.begin(), sizes.end());
  Strides outStrides(sizes.size(), 0);
  for (std::size_t i = 0; i < sizes_.size(); ++i) {
    const std::size_t srcDim = sizes_.size() - 1 - i;
    const std::size_t dstDim = sizes.size() - 1 - i;
    outStrides[dstDim] = sizes_[srcDim] == 1 ? 0 : strides_[srcDim];
  }
  return Tensor(storage_, offset_, std::move(outSizes), std::move(outStrides),
                dtype_);
}

Tensor Tensor::expand(std::initializer_list<std::int64_t> sizes) const {
  return expand(std::span<const std::int64_t>(sizes.begin(), sizes.size()));
}

Tensor Tensor::view(Shape sizes) const {
  // Support -1 inference like PyTorch.
  std::int64_t inferDim = -1;
  std::int64_t known = 1;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == -1) {
      TSSA_CHECK(inferDim == -1, "at most one -1 dimension in view");
      inferDim = static_cast<std::int64_t>(i);
    } else {
      known *= sizes[i];
    }
  }
  if (inferDim >= 0) {
    TSSA_CHECK(known != 0 && numel() % known == 0,
               "cannot infer view dimension");
    sizes[static_cast<std::size_t>(inferDim)] = numel() / known;
  }
  TSSA_CHECK(numelOf(sizes) == numel(),
             "view shape " << bracketed(sizes) << " has wrong element count");
  TSSA_CHECK(isContiguous(), "view() of non-contiguous tensor; use reshape()");
  Strides strides = contiguousStrides(sizes);
  return Tensor(storage_, offset_, std::move(sizes), std::move(strides),
                dtype_);
}

Tensor Tensor::reshape(Shape sizes) const {
  if (isContiguous()) return view(std::move(sizes));
  return contiguous().view(std::move(sizes));
}

Tensor Tensor::flatten(std::int64_t startDim, std::int64_t endDim) const {
  const std::int64_t s = normalizeDim(startDim, dim());
  const std::int64_t e = normalizeDim(endDim, dim());
  TSSA_CHECK(s <= e, "flatten start after end");
  Shape sizes;
  for (std::int64_t d = 0; d < s; ++d) sizes.push_back(size(d));
  std::int64_t merged = 1;
  for (std::int64_t d = s; d <= e; ++d) merged *= size(d);
  sizes.push_back(merged);
  for (std::int64_t d = e + 1; d < dim(); ++d) sizes.push_back(size(d));
  return reshape(std::move(sizes));
}

// ---- Copies ------------------------------------------------------------------

Tensor Tensor::clone() const { return to(dtype_); }

Tensor Tensor::contiguous() const {
  if (isContiguous()) return *this;
  return clone();
}

Tensor Tensor::to(DType dtype) const {
  Tensor out = empty(sizes_, dtype);
  out.copy_(*this);
  return out;
}

// ---- Mutation ------------------------------------------------------------------

void Tensor::copy_(const Tensor& src) {
  TSSA_CHECK(defined() && src.defined(), "copy_ on undefined tensor");
  TSSA_CHECK(broadcastableTo(src.sizes_, sizes_),
             "copy_ source shape " << bracketed(src.sizes_)
                                   << " not broadcastable to "
                                   << bracketed(sizes_));
  if (numel() == 0) return;  // extent-0: raw() may be null, memmove(null) is UB
  // If source and destination may overlap in storage, snapshot the source
  // first (PyTorch semantics for overlapping copy_ are undefined; we pick the
  // snapshot semantics so programs are deterministic). Two same-shape
  // contiguous blocks of one dtype are a single row, and its memmove already
  // reads a snapshot.
  const bool oneBlock = src.dtype_ == dtype_ && src.sizes_ == sizes_ &&
                        isContiguous() && src.isContiguous();
  Tensor snapshot;
  if (sharesStorageWith(src) && !oneBlock) snapshot = src.clone();
  const Tensor& source = snapshot.defined() ? snapshot : src;
  detail::StridedLoop<2> loop(sizes_, {this, &source});
  dispatchDType(dtype_, [&](auto dstTag) {
    using D = decltype(dstTag);
    dispatchDType(source.dtype_, [&](auto srcTag) {
      using S = decltype(srcTag);
      copyRows(loop, storage_->as<D>(), source.storage_->as<S>());
    });
  });
}

void Tensor::fill_(Scalar value) {
  TSSA_CHECK(defined(), "fill_ on undefined tensor");
  const double v = value.toDouble();
  detail::StridedLoop<1> loop(sizes_, {this});
  const std::int64_t n = loop.rowLength();
  const std::int64_t stride = loop.rowStride(0);
  dispatchDType(dtype_, [&](auto tag) {
    using T = decltype(tag);
    const T x = detail::storedAs<T>(v);
    for (std::int64_t r = loop.rows(); r > 0; --r, loop.nextRow()) {
      T* row = storage_->as<T>() + loop.offset(0);
      if (stride == 1) {
        std::fill(row, row + n, x);
      } else {
        for (std::int64_t j = 0; j < n; ++j) row[j * stride] = x;
      }
    }
  });
}

// ---- Printing / comparison ------------------------------------------------------

std::string Tensor::toString(std::int64_t maxElems) const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream os;
  os << "Tensor(" << dtypeName(dtype_) << bracketed(sizes_) << ", [";
  const std::int64_t n = std::min(numel(), maxElems);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << scalarAtLinear(i);
  }
  if (numel() > maxElems) os << ", ...";
  os << "])";
  return os.str();
}

bool allClose(const Tensor& a, const Tensor& b, double tolerance) {
  if (!a.defined() || !b.defined()) return false;
  if (a.dtype() != b.dtype() || a.sizes() != b.sizes()) return false;
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const double va = a.scalarAtLinear(i);
    const double vb = b.scalarAtLinear(i);
    if (a.dtype() == DType::Float32) {
      if (std::isnan(va) && std::isnan(vb)) continue;
      if (std::abs(va - vb) > tolerance + tolerance * std::abs(vb))
        return false;
    } else if (va != vb) {
      return false;
    }
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  return os << t.toString();
}

}  // namespace tssa
