// Shapes, strides, broadcasting, and multi-dimensional index iteration.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/support/error.h"
#include "src/support/strings.h"

namespace tssa {

/// A tensor shape: one extent per dimension. Rank-0 (scalar) tensors have an
/// empty shape and one element.
using Shape = std::vector<std::int64_t>;
using Strides = std::vector<std::int64_t>;

/// Number of elements of a shape (product of extents; 1 for rank-0).
std::int64_t numelOf(std::span<const std::int64_t> sizes);

/// Row-major ("C") contiguous strides for `sizes`.
Strides contiguousStrides(std::span<const std::int64_t> sizes);

/// True if (sizes, strides) describe a row-major contiguous layout.
bool isContiguousLayout(std::span<const std::int64_t> sizes,
                        std::span<const std::int64_t> strides);

/// Broadcasts two shapes per NumPy rules; throws tssa::Error on mismatch.
Shape broadcastShapes(std::span<const std::int64_t> a,
                      std::span<const std::int64_t> b);

/// True if `from` can broadcast to exactly `to`.
bool broadcastableTo(std::span<const std::int64_t> from,
                     std::span<const std::int64_t> to);

/// Normalizes a possibly-negative dimension index (Python style); throws if
/// out of range for `rank` dimensions.
std::int64_t normalizeDim(std::int64_t dim, std::int64_t rank);

/// Normalizes a possibly-negative element index along an extent; throws if out
/// of range.
std::int64_t normalizeIndex(std::int64_t index, std::int64_t extent);

/// Clamps python-style slice bounds (start/end may be negative or
/// out-of-range) to [0, extent].
void normalizeSliceBounds(std::int64_t extent, std::int64_t& start,
                          std::int64_t& end);

/// Number of elements of arange(start, end, step); throws on a zero step.
std::int64_t arangeLength(std::int64_t start, std::int64_t end,
                          std::int64_t step);

/// Iterates over all coordinates of a shape in row-major order.
///
///   for (IndexIterator it(sizes); it.valid(); it.next()) use(it.index());
class IndexIterator {
 public:
  explicit IndexIterator(std::span<const std::int64_t> sizes)
      : sizes_(sizes.begin(), sizes.end()),
        index_(sizes.size(), 0),
        remaining_(numelOf(sizes)) {}

  bool valid() const { return remaining_ > 0; }

  std::span<const std::int64_t> index() const { return index_; }

  void next() {
    --remaining_;
    for (std::int64_t d = static_cast<std::int64_t>(index_.size()) - 1; d >= 0;
         --d) {
      if (++index_[static_cast<std::size_t>(d)] <
          sizes_[static_cast<std::size_t>(d)]) {
        return;
      }
      index_[static_cast<std::size_t>(d)] = 0;
    }
  }

 private:
  Shape sizes_;
  Shape index_;
  std::int64_t remaining_;
};

/// Dot product of a coordinate with strides: the linear element offset.
inline std::int64_t offsetOf(std::span<const std::int64_t> index,
                             std::span<const std::int64_t> strides) {
  std::int64_t off = 0;
  for (std::size_t d = 0; d < index.size(); ++d) off += index[d] * strides[d];
  return off;
}

}  // namespace tssa
