// Counters of the retired texpr JIT, kept only for perfbench.
//
// Fused bodies run tiled or whole through tensor/ops.h (DESIGN.md §8), and
// nothing compiles native code any more. perfbench/perfbench.cpp still reads
// this cache's counters for its `texpr.jit_*` layer metrics, so the type
// keeps the surface perfbench uses; every counter is always 0. The
// change that drops the `texpr.jit_*` metrics from the benchmark removes this
// header with them. Nothing in the library, tests or benches includes it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tssa::texpr::jit {

class KernelCache {
 public:
  static KernelCache& instance() {
    static KernelCache cache;
    return cache;
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t declines = 0;
    std::uint64_t compileFails = 0;
    std::size_t size = 0;
  };
  Stats stats() const { return {}; }

  void clearForTesting() {}
};

}  // namespace tssa::texpr::jit
