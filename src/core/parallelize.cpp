#include "src/core/parallelize.h"

#include <unordered_set>

#include "src/analysis/alias_graph.h"

namespace tssa::core {

using analysis::AliasInfo;
using ir::Block;
using ir::Node;
using ir::OpKind;
using ir::Use;
using ir::Value;

namespace {

bool isSelectRule(const Node& node) {
  return node.attrs().has("view") &&
         static_cast<OpKind>(node.attrs().i("view")) == OpKind::Select;
}

/// For an Access with Select rule, the index operand; for an Assign with
/// Select rule likewise.
Value* selectIndexOperand(const Node& node) {
  if (node.kind() == OpKind::Access) return node.input(1);
  if (node.kind() == OpKind::Assign) return node.input(2);
  return nullptr;
}

/// Verifies one carried slot: returns(k) must be an assign chain over
/// param(k+1) confined to slice `iv`, all reads likewise confined. On
/// success `outWriteDim` receives the written dimension, or -1 when the slot
/// is a read-only pass-through.
bool carriedSlotIndependent(const Block& body, std::size_t k, Value* iv,
                            std::int64_t* outWriteDim) {
  *outWriteDim = -1;
  Value* param = body.param(k + 1);
  Value* ret = body.returns()[k];
  if (ret == param) return true;  // read-only carried value

  // Walk the assign chain from the return back to the parameter.
  std::unordered_set<const Value*> chain;
  std::int64_t writeDim = -1;
  const Value* cur = ret;
  while (cur != param) {
    const Node* def = cur->definingNode();
    if (def == nullptr || def->kind() != OpKind::Assign) return false;
    if (!isSelectRule(*def)) return false;
    if (def->input(2) != iv) return false;  // write index must be exactly i
    const std::int64_t d = def->attrs().i("dim");
    if (writeDim == -1) writeDim = d;
    if (d != writeDim) return false;
    chain.insert(cur);
    cur = def->input(0);
  }
  chain.insert(param);

  // Every use of a chain value must stay on slice i of the write dim.
  for (const Value* v : chain) {
    for (const Use& use : v->uses()) {
      const Node* user = use.user;
      if (user->kind() == OpKind::Return) {
        if (v != ret) return false;  // only the final version escapes
        continue;
      }
      if (user->kind() == OpKind::Assign && use.index == 0 &&
          chain.count(user->output(0)) > 0) {
        continue;  // the next link of the chain
      }
      if (user->kind() == OpKind::Access && isSelectRule(*user) &&
          use.index == 0 && user->attrs().i("dim") == writeDim &&
          selectIndexOperand(*user) == iv) {
        continue;  // read of this iteration's own slice
      }
      return false;
    }
  }
  *outWriteDim = writeDim;
  return true;
}

/// The induction variable may only index accesses/assigns (reads anywhere,
/// writes checked per-slot above) or feed scalar math that itself only
/// indexes reads.
bool inductionUsesSafe(Value* iv) {
  for (const Use& use : iv->uses()) {
    const Node* user = use.user;
    if (user->kind() == OpKind::Access || user->kind() == OpKind::Assign)
      continue;
    // View reads indexed by i are safe: the body is mutation-free, so a view
    // can only be read (write-disjointness is proven on the carried chains).
    if (ir::isViewOp(user->kind())) continue;
    if (ir::opCategory(user->kind()) == ir::OpCategory::Scalar) {
      // Derived scalars may only feed read accesses.
      bool readsOnly = true;
      for (const Use& u2 : user->output(0)->uses()) {
        if (u2.user->kind() != OpKind::Access) {
          readsOnly = false;
          break;
        }
      }
      if (readsOnly) continue;
    }
    return false;
  }
  return true;
}

}  // namespace

namespace {

/// On success `outWriteDims` receives one entry per carried slot: the
/// dimension its assign chain writes at index `i`, or -1 for read-only
/// pass-throughs.
bool loopIsParallelizable(const Node& loop, const AliasInfo& alias,
                          std::vector<std::int64_t>& outWriteDims) {
  if (loop.kind() != OpKind::Loop) return false;
  const Block& body = *loop.block(0);
  for (const Node* n : body) {
    if (n->numBlocks() != 0) return false;  // no nested control flow
    if (ir::isPureOp(n->kind())) continue;
    // Views of never-mutated storage are pure reads.
    if (ir::isViewOp(n->kind())) {
      const ir::Value* root = alias.memoryRoot(n->output(0));
      bool mutated = false;
      for (const analysis::TensorSet& set : alias.sets()) {
        if (set.origin == root && !set.mutations.empty()) {
          mutated = true;
          break;
        }
      }
      if (!mutated) continue;
    }
    return false;
  }
  Value* iv = body.param(0);
  if (!inductionUsesSafe(iv)) return false;
  std::vector<std::int64_t> writeDims(loop.numOutputs(), -1);
  for (std::size_t k = 0; k < loop.numOutputs(); ++k) {
    if (!carriedSlotIndependent(body, k, iv, &writeDims[k])) return false;
  }
  outWriteDims = std::move(writeDims);
  return true;
}

std::size_t parallelizeInBlock(Block& block, const AliasInfo& alias) {
  std::size_t converted = 0;
  for (Node* node : block.nodesSnapshot()) {
    for (Block* b : node->blocks()) converted += parallelizeInBlock(*b, alias);
    std::vector<std::int64_t> writeDims;
    if (node->kind() == OpKind::Loop &&
        loopIsParallelizable(*node, alias, writeDims)) {
      node->setKind(OpKind::ParallelMap);
      // The proof travels with the node: the runtime's threaded executor
      // needs the written dimension of each carried slot to pre-allocate
      // output buffers and merge per-iteration slices without locks. A
      // ParallelMap lacking this attribute falls back to serial execution.
      node->attrs().set("par_dims", std::move(writeDims));
      ++converted;
    }
  }
  return converted;
}

}  // namespace

std::size_t parallelizeLoops(ir::Graph& graph) {
  AliasInfo alias = AliasInfo::analyze(graph);
  return parallelizeInBlock(*graph.topBlock(), alias);
}

}  // namespace tssa::core
