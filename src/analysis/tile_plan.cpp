#include "src/analysis/tile_plan.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "src/support/error.h"

namespace tssa::analysis {

using ir::Block;
using ir::Node;
using ir::OpKind;
using ir::Value;

namespace {

bool isInplaceAssign(const Node* node) {
  return node != nullptr && node->kind() == OpKind::Assign &&
         node->attrs().bOr("inplace", false);
}

/// The param an in-place Assign chain ending at `v` writes through to, or
/// -1 when the chain starts at a fresh buffer.
int chainParam(const Block& body, const Value* v) {
  while (isInplaceAssign(v->definingNode())) v = v->definingNode()->input(0);
  if (v->paramBlock() != &body) return -1;
  const auto params = body.params();
  return static_cast<int>(std::find(params.begin(), params.end(), v) -
                          params.begin());
}

/// The cuts one candidate dim induces: params are aligned on their trailing
/// dims (as broadcasting aligns them) and cut at dim `d` of the widest
/// rank; every node then places its result by its rule.
struct Candidate {
  std::unordered_map<const Value*, TilePlan::Cut> cuts;  // tiled values only
  std::vector<TilePlan::NodeStep> nodes;
  std::int64_t minExtent = std::numeric_limits<std::int64_t>::max();
  std::int64_t widestBytes = 0;

  TilePlan::Cut cutOf(const Value* v) const {
    auto it = cuts.find(v);
    return it == cuts.end() ? TilePlan::Cut{} : it->second;
  }
  void cut(const Value* v, const Operand& meta, int dim) {
    const std::int64_t extent = meta.sizes()[static_cast<std::size_t>(dim)];
    cuts[v] = TilePlan::Cut{dim, extent};
    minExtent = std::min(minExtent, extent);
    widestBytes = std::max(widestBytes, meta.bytes());
  }
};

std::optional<Candidate> propagate(const Block& body, const BodyValues& values,
                                   int d, std::int64_t rank) {
  Candidate c;
  for (const Value* p : body.params()) {
    const Operand meta = values.operandOf(p);
    if (!meta.isTensor()) continue;
    const std::int64_t j = d - (rank - meta.rank());
    if (j >= 0 && meta.sizes()[static_cast<std::size_t>(j)] > 1)
      c.cut(p, meta, static_cast<int>(j));
  }
  std::vector<Operand> in;
  std::vector<int> dims;
  for (const Node* node : body) {
    in.clear();
    dims.clear();
    for (const Value* v : node->inputs()) {
      in.push_back(values.operandOf(v));
      dims.push_back(c.cutOf(v).dim);
    }
    const Operand out = values.operandOf(node->output(0));
    const std::optional<TiledDims> td = tiledDims(*node, in, dims, out);
    if (!td) return std::nullopt;
    TilePlan::NodeStep step;
    if (td->out >= 0) {
      step.tiled = true;
      c.cut(node->output(0), out, td->out);
      // The view's tiled dim is the result's, so it has the same extent.
      if (td->view >= 0)
        step.view = TilePlan::Cut{td->view, c.cutOf(node->output(0)).extent};
    } else if (isInplaceAssign(node)) {
      // Running a write once before the tiles would move it ahead of the
      // tiled nodes that read the old value.
      return std::nullopt;
    }
    c.nodes.push_back(step);
  }
  return c;
}

}  // namespace

std::optional<TilePlan> planTiles(const Block& body,
                                  std::span<const Operand> params) {
  BodyValues values;
  std::optional<Candidate> best;
  std::int64_t bestTiles = 1;
  try {
    // A body the rules reject runs whole and raises the op's own error.
    values = inferBody(body, params);
    std::int64_t rank = 0;
    for (const Operand& p : params)
      if (p.isTensor()) rank = std::max(rank, p.rank());
    for (int d = 0; d < rank; ++d) {
      std::optional<Candidate> c = propagate(body, values, d, rank);
      if (!c) continue;
      const std::int64_t tiles = std::min(
          (c->widestBytes + kTileBytes - 1) / kTileBytes, c->minExtent);
      if (tiles > bestTiles) {
        bestTiles = tiles;
        best = std::move(c);
      }
    }
  } catch (const Error&) {
    return std::nullopt;
  }
  if (!best) return std::nullopt;

  TilePlan plan;
  plan.tiles = bestTiles;
  plan.widestBytes = best->widestBytes;
  for (const Value* p : body.params()) plan.params.push_back(best->cutOf(p));
  plan.nodes = std::move(best->nodes);
  for (const Value* r : body.returns()) {
    auto it = values.tensors.find(r);
    if (it == values.tensors.end()) return std::nullopt;
    TilePlan::Result result;
    result.cut = best->cutOf(r);
    result.meta = it->second;
    if (result.cut.dim >= 0) result.param = chainParam(body, r);
    plan.returns.push_back(std::move(result));
  }
  for (const Node* node : body) {
    if (!isInplaceAssign(node)) continue;
    const int p = chainParam(body, node->input(0));
    const auto written = static_cast<std::size_t>(p);
    std::vector<std::size_t>& list = plan.writtenParams;
    if (p >= 0 && std::find(list.begin(), list.end(), written) == list.end())
      list.push_back(written);
  }
  return plan;
}

}  // namespace tssa::analysis
