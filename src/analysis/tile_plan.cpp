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

/// The dim classes of a body: union-find over its (tensor value, dim)
/// pairs, joined wherever a node's rule links an operand dim to a result
/// dim (analysis::dimLinks).
class DimClasses {
 public:
  DimClasses(const Block& body, const BodyValues& values) {
    for (const Value* p : body.params()) add(p, values);
    std::vector<Operand> in;
    for (const Node* node : body) {
      in.clear();
      for (const Value* v : node->inputs()) in.push_back(values.operandOf(v));
      const Value* out = node->output(0);
      add(out, values);
      for (const DimLink& l : dimLinks(*node, in, values.operandOf(out)))
        unite(find(node->input(l.operand), l.dim), find(out, l.result));
    }
  }

  /// The class of dim `d` of tensor value `v`.
  int find(const Value* v, int d) { return root(first_.at(v) + d); }

 private:
  void add(const Value* v, const BodyValues& values) {
    const Operand meta = values.operandOf(v);
    if (!meta.isTensor()) return;
    first_[v] = static_cast<int>(parent_.size());
    for (int d = 0; d < meta.rank(); ++d)
      parent_.push_back(static_cast<int>(parent_.size()));
  }
  int root(int i) {
    while (parent_[static_cast<std::size_t>(i)] != i) {
      auto& up = parent_[static_cast<std::size_t>(i)];
      up = parent_[static_cast<std::size_t>(up)];
      i = up;
    }
    return i;
  }
  void unite(int a, int b) {
    parent_[static_cast<std::size_t>(root(a))] = root(b);
  }

  std::unordered_map<const Value*, int> first_;
  std::vector<int> parent_;
};

/// The candidate cut of the params for dim `d` of the widest param rank
/// `rank`, one dim (-1: read whole) per param: every param dim in the class
/// of a param dim that aligns with `d` from the trailing end, as
/// broadcasting aligns them. Chains of one body that never meet then tile
/// in lockstep, and a param whose dims meet them only through a view (the
/// [B, T, V] buffer a loop step selects a row of) joins through its class.
/// std::nullopt when some param would be cut along two dims.
std::optional<std::vector<int>> candidateCut(const Block& body,
                                             const BodyValues& values,
                                             DimClasses& classes,
                                             std::int64_t d,
                                             std::int64_t rank) {
  const auto params = body.params();
  std::vector<int> aligned;
  for (const Value* p : params) {
    const Operand m = values.operandOf(p);
    if (!m.isTensor()) continue;
    const std::int64_t j = d - (rank - m.rank());
    if (j >= 0 && m.sizes()[static_cast<std::size_t>(j)] > 1)
      aligned.push_back(classes.find(p, static_cast<int>(j)));
  }
  std::vector<int> cut(params.size(), -1);
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Operand m = values.operandOf(params[i]);
    if (!m.isTensor()) continue;
    for (int j = 0; j < m.rank(); ++j) {
      if (m.sizes()[static_cast<std::size_t>(j)] <= 1 ||
          std::find(aligned.begin(), aligned.end(),
                    classes.find(params[i], j)) == aligned.end())
        continue;
      if (cut[i] >= 0) return std::nullopt;
      cut[i] = j;
    }
  }
  return cut;
}

/// The cuts one candidate induces: params are cut as given, and every node
/// places its result by its rule.
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
  }
  /// Counts `v` among the values a tile reads or writes, if it is tiled.
  void touch(const Value* v, const Operand& meta) {
    if (cuts.contains(v)) widestBytes = std::max(widestBytes, meta.bytes());
  }
  /// Counts tiled `view` of `param` towards what a tile reads of the param:
  /// the bytes of all its views, at most the whole param.
  void touchView(const Value* param, const Operand& paramMeta,
                 const Value* view, const Operand& viewMeta) {
    if (!cuts.contains(view)) return;
    std::int64_t& read = viewedBytes[param];
    read = std::min(read + viewMeta.bytes(), paramMeta.bytes());
    widestBytes = std::max(widestBytes, read);
  }

 private:
  std::unordered_map<const Value*, std::int64_t> viewedBytes;
};

std::optional<Candidate> propagate(const Block& body, const BodyValues& values,
                                   std::span<const int> paramDims) {
  Candidate c;
  for (std::size_t i = 0; i < paramDims.size(); ++i)
    if (paramDims[i] >= 0)
      c.cut(body.param(i), values.operandOf(body.param(i)), paramDims[i]);
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

    // What a tile of this node reads or writes: a view's result (of a
    // param reached through views, only those views: a row a loop step
    // selects leaves the rest of the param untouched), an Assign's source
    // and its result unless that is the in-place base, and every other
    // node's result and the params it reads directly.
    switch (node->kind()) {
      case OpKind::Access:
        if (node->input(0)->paramBlock() == &body) {
          c.touchView(node->input(0), in[0], node->output(0), out);
        } else {
          c.touch(node->output(0), out);
        }
        break;
      case OpKind::Assign:
        c.touch(node->input(1), in[1]);
        if (!isInplaceAssign(node)) c.touch(node->output(0), out);
        break;
      default:
        c.touch(node->output(0), out);
        for (std::size_t i = 0; i < in.size(); ++i)
          if (node->input(i)->paramBlock() == &body)
            c.touch(node->input(i), in[i]);
        break;
    }
  }
  return c;
}

}  // namespace

bool isSelectIndex(const Value& param) {
  if (!param.isParam() || param.uses().empty()) return false;
  for (const ir::Use& use : param.uses()) {
    const Node& n = *use.user;
    const std::size_t index = n.kind() == OpKind::Access   ? 1
                              : n.kind() == OpKind::Assign ? 2
                                                           : 0;
    if (index == 0 || use.index != index ||
        static_cast<OpKind>(n.attrs().i("view")) != OpKind::Select)
      return false;
  }
  return true;
}

std::optional<TilePlan> planTiles(const Block& body,
                                  std::span<const Operand> params) {
  BodyValues values;
  std::optional<Candidate> best;
  std::int64_t bestTiles = 1;
  try {
    // A body the rules reject runs whole and raises the op's own error.
    values = inferBody(body, params);
    DimClasses classes(body, values);
    std::int64_t rank = 0;
    for (const Operand& p : params)
      if (p.isTensor()) rank = std::max(rank, p.rank());
    for (std::int64_t d = 0; d < rank; ++d) {
      const std::optional<std::vector<int>> cut =
          candidateCut(body, values, classes, d, rank);
      std::optional<Candidate> c;
      if (cut) c = propagate(body, values, *cut);
      if (!c) continue;
      std::int64_t tiles = std::min(
          (c->widestBytes + kTileBytes - 1) / kTileBytes, c->minExtent);
      // Fewer than two rows of the shortest extent per tile would mix
      // tiles of one and two rows, which the pool's even chunks of tiles
      // cannot balance: every row is a tile instead.
      if (2 * tiles > c->minExtent) tiles = c->minExtent;
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
