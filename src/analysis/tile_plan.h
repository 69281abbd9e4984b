// Tile plans for fused bodies: how a FusionGroup body runs one tile at a
// time, in the sense of tile-and-fuse (MLIR structured codegen, TensorIR
// blocks).
//
// A body tiles along a dim when every node maps tiles of its operands to
// tiles of its result (analysis::tiledDims). A tile is then a set of
// narrow(d, ...) views of the params: every node of the body runs on one
// tile before the next tile starts, so intermediates are tile-sized and
// never whole. No element's op chain changes, so a tiled run is bitwise
// identical to the whole body. Values with extent 1 along the tiled dim
// (broadcast operands) are read whole by every tile, and nodes that only
// read such values run once, before the first tile.
//
// The plan is pure metadata: it depends on the body and the shapes, dtypes
// and scalar values of its params, never on data. runtime::Interpreter
// executes it (DESIGN.md §6, §8).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/analysis/op_rules.h"
#include "src/ir/ir.h"

namespace tssa::analysis {

/// Bytes of the widest tiled value per tile the planner aims for: tiles of
/// a few dozen KiB keep a body's working set in the core's L2.
inline constexpr std::int64_t kTileBytes = 64 * 1024;

struct TilePlan {
  /// How one body value is cut: `dim` is its tiled dim (-1: every tile
  /// reads it whole) and `extent` the whole extent along that dim.
  struct Cut {
    int dim = -1;
    std::int64_t extent = 1;
  };

  /// Per body node, in body order.
  struct NodeStep {
    bool tiled = false;  ///< false: runs once, before the first tile
    Cut view;            ///< Access/Assign: the cut of the view's result
  };

  /// Per body return.
  struct Result {
    Cut cut;             ///< tiled returns are assembled from their tiles
    TensorMeta meta;     ///< the whole return
    /// >= 0: the return ends an in-place Assign chain into this param and
    /// is that param; tiles write through to it.
    int param = -1;
  };

  std::int64_t tiles = 1;
  std::int64_t widestBytes = 0;  ///< the widest tiled value, whole
  std::vector<Cut> params;       ///< per body param
  std::vector<NodeStep> nodes;
  std::vector<Result> returns;
  /// Params written through by in-place Assigns. A tiled run needs each to
  /// be non-overlapping and to share storage with no other param.
  std::vector<std::size_t> writtenParams;

  /// Rows [begin, end) of tile `tile` along a dim of whole extent `extent`:
  /// tiles split every tiled value in the same proportions, so values of
  /// different extents that never meet (independent chains of one body)
  /// tile in lockstep.
  std::pair<std::int64_t, std::int64_t> rows(std::int64_t extent,
                                             std::int64_t tile) const {
    return {tile * extent / tiles, (tile + 1) * extent / tiles};
  }
};

/// The tile plan of `body` for params `params` (one per body param), or
/// std::nullopt when the body runs whole: some node does not preserve any
/// candidate dim, an in-place Assign would run whole, a rule rejects the
/// operands, or the widest tiled value fits one tile. Among the dims that
/// qualify, the planner takes the one giving the most tiles, outermost on
/// ties.
std::optional<TilePlan> planTiles(const ir::Block& body,
                                  std::span<const Operand> params);

}  // namespace tssa::analysis
