// Tile plans for fused bodies: how a FusionGroup body runs one tile at a
// time, in the sense of tile-and-fuse (MLIR structured codegen, TensorIR
// blocks).
//
// A body tiles along a dim class. Each node's rule (analysis::dimLinks)
// links operand dims to the result dims they carry, as an indexing map
// does; a class is a set of (value, dim) pairs those links join, through
// Access/Assign views of higher-rank params too. A class qualifies when
// every node maps tiles of its operands to tiles of its result
// (analysis::tiledDims). A tile is then a set of narrow(d, ...) views of the
// params: every node of the body runs on one tile before the next tile
// starts, so intermediates are tile-sized and never whole. No element's op
// chain changes, so a tiled run is bitwise identical to the whole body.
// Values with extent 1 along the tiled dim (broadcast operands), and values
// outside the class, are read whole by every tile, and nodes that only read
// such values run once, before the first tile.
//
// Tiles are sized by the bytes a tile reads or writes, not by the params: of
// a param reached only through views (a loop step's select of a row of a
// [B, T, V] buffer), a tile reads those views, not the whole param.
//
// The plan is pure metadata: it depends on the body and the shapes, dtypes
// and scalar values of its params, never on data, and not on the value of
// a select index (isSelectIndex). runtime::Interpreter executes it
// (DESIGN.md §6, §8).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/analysis/op_rules.h"
#include "src/ir/ir.h"

namespace tssa::analysis {

/// Bytes per tile of the widest value a tile reads or writes, the size the
/// planner aims for: tiles of a few dozen KiB keep a body's working set in
/// the core's L2.
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
  /// The widest tiled value a tile reads or writes, whole: Access results
  /// (all views of one param together), Assign sources, other node results
  /// and the params non-view nodes read. Not the rest of a param reached
  /// only through views, nor the base of an in-place Assign.
  std::int64_t widestBytes = 0;
  std::vector<Cut> params;       ///< per body param
  std::vector<NodeStep> nodes;
  std::vector<Result> returns;
  /// Params written through by in-place Assigns. A tiled run needs each to
  /// be non-overlapping and to share storage with no other param.
  std::vector<std::size_t> writtenParams;

  /// Rows [begin, end) of tiles [first, last) along a dim of whole extent
  /// `extent`: tiles split every tiled value in the same proportions, so
  /// values of different extents that never meet (independent chains of
  /// one body) tile in lockstep, and consecutive tiles join into one.
  std::pair<std::int64_t, std::int64_t> rows(std::int64_t extent,
                                             std::int64_t first,
                                             std::int64_t last) const {
    return {first * extent / tiles, last * extent / tiles};
  }
};

/// The tile plan of `body` for params `params` (one per body param), or
/// std::nullopt when the body runs whole: no candidate qualifies (some node
/// neither preserves it nor reads it whole, or an in-place Assign would run
/// whole), a rule rejects the operands, or what a tile touches fits one
/// tile. There is one candidate per dim of the widest param rank: the dim
/// classes of the param dims aligned with it from the trailing end, cut
/// together. Among those that qualify, the planner takes the one giving the
/// most tiles, outermost on ties.
std::optional<TilePlan> planTiles(const ir::Block& body,
                                  std::span<const Operand> params);

/// True for a body param whose every use is the index of a select view (an
/// Access or Assign through Select). Its value changes no shape, so no plan
/// depends on it: the interpreter keys and plans such a param as index 0,
/// and a loop body that selects by the induction variable plans once. The
/// select still range-checks the real index in every tile.
bool isSelectIndex(const ir::Value& param);

}  // namespace tssa::analysis
