// Horizontal loop parallelization (paper §4.2.2).
//
// After TensorSSA conversion a loop body is pure; when every loop-carried
// tensor is only read and written at the slice indexed by the induction
// variable, iterations are independent and the loop can execute as a single
// batched kernel. This pass proves that pattern and re-tags such loops as
// tssa::ParallelMap (identical structure; the runtime prices the whole map
// as one kernel launch).
//
// Conservative conditions per candidate loop:
//   * body has no nested control flow and contains only pure operators;
//   * each carried value is either passed through unchanged or produced by a
//     chain of immut::assign ops rooted at the carried parameter, all
//     writing Select(dim=d, index=i) where `i` is the induction variable;
//   * every other use of a carried-chain value is an immut::access reading
//     Select(dim=d, index=i) (same slice) or the block return;
//   * the induction variable is used only as an access/assign index (reads
//     may index anywhere — they are pure — but writes must be exactly `i`).
#pragma once

#include <cstddef>

#include "src/ir/ir.h"

namespace tssa::core {

/// Re-tags every provably independent prim::Loop; returns how many. Each
/// converted node is annotated with a `par_dims` attribute (one entry per
/// carried slot: the dimension whose slice `i` the iteration writes, -1 for
/// read-only pass-throughs), which the runtime's threaded ParallelMap
/// executor uses to merge per-iteration results without locks.
std::size_t parallelizeLoops(ir::Graph& graph);

}  // namespace tssa::core
