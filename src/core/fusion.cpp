#include "src/core/fusion.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/analysis/alias_graph.h"
#include "src/core/immut_ops.h"
#include "src/support/error.h"

namespace tssa::core {

using ir::Block;
using ir::Graph;
using ir::Node;
using ir::OpCategory;
using ir::OpKind;
using ir::Value;

namespace {

/// Runs shorter than this stay plain kernels: a one-op group saves nothing.
constexpr std::size_t kMinKernelOps = 2;

bool policyFusable(const FusionPolicy& policy, const Node& node) {
  switch (ir::opCategory(node.kind())) {
    case OpCategory::EwiseUnary:
    case OpCategory::EwiseBinary:
      return true;
    case OpCategory::EwiseTernary:
      return policy.fuseTernary;
    case OpCategory::Reduction:
      return policy.fuseReductions;
    case OpCategory::Immut:
      return policy.fuseAccessAssign &&
             (node.kind() == OpKind::Access || node.kind() == OpKind::Assign);
    case OpCategory::ShapeOp:
      return policy.fuseShapeOps &&
             (node.kind() == OpKind::Cat || node.kind() == OpKind::Stack);
    case OpCategory::Primitive:
      return policy.fuseShapeOps && node.kind() == OpKind::ListConstruct;
    default:
      return false;
  }
}

bool isReductionKind(OpKind kind) {
  return ir::opCategory(kind) == OpCategory::Reduction;
}

std::size_t hoistInBlock(Block& block) {
  std::size_t moved = 0;
  Node* anchor = nullptr;  // last placed constant
  for (Node* node : block.nodesSnapshot()) {
    for (Block* b : node->blocks()) moved += hoistInBlock(*b);
    if (node->kind() != OpKind::Constant) continue;
    if (anchor == nullptr) {
      if (block.front() != node) {
        Node* first = block.front();
        node->moveBefore(first);
        ++moved;
      }
      anchor = node;
    } else if (anchor->next() != node) {
      node->moveAfter(anchor);
      anchor = node;
      ++moved;
    } else {
      anchor = node;
    }
  }
  return moved;
}

/// Builds one FusionGroup from a contiguous run of pure nodes and replaces
/// them. `members` is in program order.
void buildGroup(Graph& graph, const std::vector<Node*>& members) {
  std::unordered_set<const Node*> memberSet(members.begin(), members.end());
  Node* group = graph.create(OpKind::FusionGroup, {}, 0);
  group->insertAfter(members.back());
  Block* body = group->addBlock();

  std::unordered_map<Value*, Value*> externParam;  // outer value -> body param
  std::unordered_map<Value*, Value*> localMap;     // member output -> clone

  auto mapOperand = [&](Value* v) -> Value* {
    if (auto it = localMap.find(v); it != localMap.end()) return it->second;
    if (auto it = externParam.find(v); it != externParam.end())
      return it->second;
    group->addInput(v);
    Value* p = body->addParam(v->type(), v->debugName());
    externParam[v] = p;
    return p;
  };

  for (Node* m : members) {
    Node* copy = graph.create(m->kind(), {}, 0);
    for (Value* in : m->inputs()) copy->addInput(mapOperand(in));
    for (Value* out : m->outputs()) {
      Value* newOut = copy->addOutput(out->type());
      newOut->setDebugName(out->debugName());
      localMap[out] = newOut;
    }
    for (const auto& [name, value] : m->attrs().all())
      copy->attrs().set(name, value);
    copy->appendTo(body);
  }

  // Outputs: member results consumed outside the run.
  for (Node* m : members) {
    for (Value* out : m->outputs()) {
      bool external = false;
      for (const ir::Use& use : out->uses()) {
        if (memberSet.count(use.user) == 0) {
          external = true;
          break;
        }
      }
      if (!external) continue;
      body->addReturn(localMap.at(out));
      Value* groupOut = group->addOutput(out->type());
      groupOut->setDebugName(out->debugName());
      out->replaceAllUsesWith(groupOut);
    }
  }

  // Destroy originals, consumers first.
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    // Internal uses of member outputs may still point at group outputs via
    // the RAUW above; those users are destroyed before their producers.
    (*it)->destroy();
  }
}

/// Sinks each fusable node to just above its earliest consumer in the same
/// block, so unfusable producers (matmuls, reductions) between it and its
/// consumers no longer break the run. Sinking never crosses a mutation or a
/// control-flow node — those may change what the moved op (or anything it
/// aliases) observes.
void sinkFusableOps(Block& block, const FusionPolicy& policy) {
  auto nodes = block.nodesSnapshot();
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    Node* node = *it;
    if (node->isDestroyed() || !policyFusable(policy, *node)) continue;

    // Earliest consumer, lifted into this block; block returns pin the node
    // to the end (sentinel anchor).
    Node* anchor = nullptr;
    bool movable = true;
    for (Value* out : node->outputs()) {
      for (const ir::Use& use : out->uses()) {
        Node* user = use.user;
        while (user->owningBlock() != &block) {
          Node* owner = user->owningBlock()->owningNode();
          if (owner == nullptr) {
            movable = false;
            break;
          }
          user = owner;
        }
        if (!movable) break;
        if (anchor == nullptr ||
            (user->kind() != OpKind::Return &&
             (anchor->kind() == OpKind::Return || user->isBefore(anchor)))) {
          anchor = user;
        }
      }
      if (!movable) break;
    }
    if (!movable || anchor == nullptr || anchor == node->next()) continue;
    // Barrier check: nothing with side effects or nested control flow may be
    // crossed.
    bool blocked = false;
    for (Node* n = node->next(); n != anchor && n->kind() != OpKind::Return;
         n = n->next()) {
      if (ir::isMutationOp(n->kind()) || n->numBlocks() != 0) {
        blocked = true;
        break;
      }
    }
    if (blocked) continue;
    node->moveBefore(anchor);
  }
}

std::size_t fuseInBlock(Graph& graph, Block& block,
                        const FusionPolicy& policy) {
  std::size_t groups = 0;
  // Recurse into nested bodies first (loop bodies fuse independently).
  for (Node* node : block.nodesSnapshot()) {
    for (Block* b : node->blocks()) groups += fuseInBlock(graph, *b, policy);
  }
  sinkFusableOps(block, policy);

  std::vector<Node*> run;
  auto flush = [&]() {
    if (run.size() >= kMinKernelOps) {
      buildGroup(graph, run);
      ++groups;
    }
    run.clear();
  };

  for (Node* node : block.nodesSnapshot()) {
    if (node->isDestroyed()) continue;
    if (policyFusable(policy, *node)) {
      run.push_back(node);
      if (policy.maxKernelOps != 0 && run.size() >= policy.maxKernelOps)
        flush();
      continue;
    }
    // Optional single reduction closing the group.
    if (policy.reductionTail && !run.empty() && isReductionKind(node->kind())) {
      bool consumesRun = false;
      for (Value* in : node->inputs()) {
        Node* def = in->definingNode();
        if (def != nullptr &&
            std::find(run.begin(), run.end(), def) != run.end()) {
          consumesRun = true;
          break;
        }
      }
      if (consumesRun) {
        run.push_back(node);
        flush();
        continue;
      }
    }
    flush();
  }
  flush();
  return groups;
}

}  // namespace

std::size_t hoistConstants(Graph& graph) {
  return hoistInBlock(*graph.topBlock());
}

namespace {

void collectViews(Block& block, std::vector<Node*>& out) {
  for (Node* node : block) {
    if (ir::isViewOp(node->kind())) out.push_back(node);
    for (Block* b : node->blocks()) collectViews(*b, out);
  }
}

}  // namespace

std::size_t readonlyViewsToAccess(Graph& graph, const FusionPolicy& policy) {
  analysis::AliasInfo alias = analysis::AliasInfo::analyze(graph);
  std::unordered_set<const Value*> mutatedRoots;
  for (const analysis::TensorSet& set : alias.sets()) {
    if (!set.mutations.empty()) mutatedRoots.insert(set.origin);
  }

  std::vector<Node*> views;
  collectViews(*graph.topBlock(), views);

  // Fixpoint: a view converts when its storage is never mutated and every
  // consumer either fuses or is itself a converting view.
  std::unordered_set<Node*> convertible;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = views.rbegin(); it != views.rend(); ++it) {
      Node* view = *it;
      if (convertible.count(view) > 0) continue;
      if (mutatedRoots.count(alias.memoryRoot(view->output(0))) > 0) continue;
      if (!view->output(0)->hasUses()) continue;
      bool allFusable = true;
      for (const ir::Use& use : view->output(0)->uses()) {
        if (policyFusable(policy, *use.user)) continue;
        if (convertible.count(use.user) > 0) continue;
        allFusable = false;
        break;
      }
      if (allFusable) {
        convertible.insert(view);
        changed = true;
      }
    }
  }

  for (Node* view : views) {
    if (convertible.count(view) > 0) rewriteViewToAccess(graph, view);
  }
  return convertible.size();
}

std::size_t fuseKernels(Graph& graph, const FusionPolicy& policy) {
  return fuseInBlock(graph, *graph.topBlock(), policy);
}

}  // namespace tssa::core
