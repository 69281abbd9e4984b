#include "src/tensor/shape.h"

#include <algorithm>

namespace tssa {

std::int64_t numelOf(std::span<const std::int64_t> sizes) {
  std::int64_t n = 1;
  for (std::int64_t s : sizes) n *= s;
  return n;
}

Strides contiguousStrides(std::span<const std::int64_t> sizes) {
  Strides strides(sizes.size());
  std::int64_t running = 1;
  for (std::int64_t d = static_cast<std::int64_t>(sizes.size()) - 1; d >= 0;
       --d) {
    strides[static_cast<std::size_t>(d)] = running;
    running *= sizes[static_cast<std::size_t>(d)];
  }
  return strides;
}

bool isContiguousLayout(std::span<const std::int64_t> sizes,
                        std::span<const std::int64_t> strides) {
  std::int64_t expected = 1;
  for (std::int64_t d = static_cast<std::int64_t>(sizes.size()) - 1; d >= 0;
       --d) {
    const auto du = static_cast<std::size_t>(d);
    if (sizes[du] == 1) continue;  // stride is irrelevant for extent-1 dims
    if (strides[du] != expected) return false;
    expected *= sizes[du];
  }
  return true;
}

Shape broadcastShapes(std::span<const std::int64_t> a,
                      std::span<const std::int64_t> b) {
  const std::size_t rank = std::max(a.size(), b.size());
  Shape out(rank, 1);
  for (std::size_t i = 0; i < rank; ++i) {
    const std::int64_t da =
        i < a.size() ? a[a.size() - 1 - i] : 1;  // align trailing dims
    const std::int64_t db = i < b.size() ? b[b.size() - 1 - i] : 1;
    if (da != db && da != 1 && db != 1) {
      TSSA_THROW("cannot broadcast shapes " << bracketed(a) << " and "
                                            << bracketed(b));
    }
    out[rank - 1 - i] = da == 1 ? db : da;  // 1 broadcasts, also to 0
  }
  return out;
}

bool broadcastableTo(std::span<const std::int64_t> from,
                     std::span<const std::int64_t> to) {
  if (from.size() > to.size()) return false;
  for (std::size_t i = 0; i < from.size(); ++i) {
    const std::int64_t df = from[from.size() - 1 - i];
    const std::int64_t dt = to[to.size() - 1 - i];
    if (df != dt && df != 1) return false;
  }
  return true;
}

std::int64_t normalizeDim(std::int64_t dim, std::int64_t rank) {
  const std::int64_t adjusted = dim < 0 ? dim + rank : dim;
  TSSA_CHECK(adjusted >= 0 && adjusted < rank,
             "dimension " << dim << " out of range for rank " << rank);
  return adjusted;
}

std::int64_t normalizeIndex(std::int64_t index, std::int64_t extent) {
  const std::int64_t adjusted = index < 0 ? index + extent : index;
  TSSA_CHECK(adjusted >= 0 && adjusted < extent,
             "index " << index << " out of range for extent " << extent);
  return adjusted;
}

void normalizeSliceBounds(std::int64_t extent, std::int64_t& start,
                          std::int64_t& end) {
  if (start < 0) start += extent;
  if (end < 0) end += extent;
  start = std::clamp<std::int64_t>(start, 0, extent);
  end = std::clamp<std::int64_t>(end, start, extent);
}

std::int64_t arangeLength(std::int64_t start, std::int64_t end,
                          std::int64_t step) {
  TSSA_CHECK(step != 0, "arange step must be nonzero");
  if (step > 0 && end > start) return (end - start + step - 1) / step;
  if (step < 0 && end < start) return (start - end - step - 1) / -step;
  return 0;
}

}  // namespace tssa
