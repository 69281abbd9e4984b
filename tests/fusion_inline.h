// Whole-body reference runs for fused regions: a copy of a graph with every
// FusionGroup (at any depth) replaced by its body's nodes, so the
// interpreter runs them one by one on whole tensors — the semantics a tiled
// (or native) run of the group must reproduce bit for bit.
#pragma once

#include <memory>
#include <vector>

#include "src/ir/ir.h"

namespace tssa::testing_support {

inline std::unique_ptr<ir::Graph> inlineFusionGroups(const ir::Graph& graph) {
  std::unique_ptr<ir::Graph> g = ir::cloneGraph(graph);
  std::vector<ir::Node*> groups;
  std::vector<const ir::Block*> blocks{g->topBlock()};
  while (!blocks.empty()) {
    const ir::Block* block = blocks.back();
    blocks.pop_back();
    for (ir::Node* node : *block) {
      if (node->kind() == ir::OpKind::FusionGroup) groups.push_back(node);
      for (const ir::Block* inner : node->blocks()) blocks.push_back(inner);
    }
  }
  for (ir::Node* group : groups) {
    ir::Block* body = group->block(0);
    for (std::size_t i = 0; i < body->numParams(); ++i)
      body->param(i)->replaceAllUsesWith(group->input(i));
    std::vector<ir::Node*> nodes;
    for (ir::Node* node : *body) nodes.push_back(node);
    for (ir::Node* node : nodes) node->moveBefore(group);
    for (std::size_t i = 0; i < group->numOutputs(); ++i)
      group->output(i)->replaceAllUsesWith(body->returns()[i]);
    group->destroy();
  }
  return g;
}

}  // namespace tssa::testing_support
