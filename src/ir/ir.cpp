#include "src/ir/ir.h"

#include <algorithm>

namespace tssa::ir {

// ---- Value -------------------------------------------------------------------

Block* Value::definingBlock() const {
  if (paramBlock_ != nullptr) return paramBlock_;
  return def_ != nullptr ? def_->owningBlock() : nullptr;
}

void Value::removeUse(Use use) {
  auto it = std::find(uses_.begin(), uses_.end(), use);
  TSSA_CHECK(it != uses_.end(), "use not found on value %" << id_);
  uses_.erase(it);
}

void Value::replaceAllUsesWith(Value* other) {
  TSSA_CHECK(other != nullptr, "cannot replace uses with null");
  // Copy the use list: setInput mutates it.
  std::vector<Use> uses = uses_;
  for (const Use& use : uses) use.user->setInput(use.index, other);
}

// ---- Node ---------------------------------------------------------------------

Value* Node::input(std::size_t i) const {
  TSSA_CHECK(i < inputs_.size(), "input index " << i << " out of range on "
                                                << kind_);
  return inputs_[i];
}

void Node::setInput(std::size_t i, Value* v) {
  TSSA_CHECK(i < inputs_.size(), "input index out of range");
  TSSA_CHECK(v != nullptr, "null operand");
  inputs_[i]->removeUse(Use{this, i});
  inputs_[i] = v;
  v->addUse(Use{this, i});
}

void Node::addInput(Value* v) {
  TSSA_CHECK(v != nullptr, "null operand");
  v->addUse(Use{this, inputs_.size()});
  inputs_.push_back(v);
}

void Node::insertInput(std::size_t i, Value* v) {
  TSSA_CHECK(v != nullptr, "null operand");
  TSSA_CHECK(i <= inputs_.size(), "insert index out of range");
  // Shift the recorded indices of later uses.
  for (std::size_t j = i; j < inputs_.size(); ++j) {
    inputs_[j]->removeUse(Use{this, j});
    inputs_[j]->addUse(Use{this, j + 1});
  }
  inputs_.insert(inputs_.begin() + static_cast<std::ptrdiff_t>(i), v);
  v->addUse(Use{this, i});
}

void Node::removeInput(std::size_t i) {
  TSSA_CHECK(i < inputs_.size(), "input index out of range");
  inputs_[i]->removeUse(Use{this, i});
  for (std::size_t j = i + 1; j < inputs_.size(); ++j) {
    inputs_[j]->removeUse(Use{this, j});
    inputs_[j]->addUse(Use{this, j - 1});
  }
  inputs_.erase(inputs_.begin() + static_cast<std::ptrdiff_t>(i));
}

void Node::removeAllInputs() {
  for (std::size_t i = 0; i < inputs_.size(); ++i)
    inputs_[i]->removeUse(Use{this, i});
  inputs_.clear();
}

Value* Node::output(std::size_t i) const {
  TSSA_CHECK(i < outputs_.size(),
             "output index " << i << " out of range on " << kind_);
  return outputs_[i];
}

Value* Node::addOutput(Type type) {
  Value* v = graph_->newValue(std::move(type));
  v->def_ = this;
  v->defIndex_ = outputs_.size();
  outputs_.push_back(v);
  return v;
}

Block* Node::block(std::size_t i) const {
  TSSA_CHECK(i < blocks_.size(), "block index out of range");
  return blocks_[i];
}

Block* Node::addBlock() {
  Block* b = graph_->newBlock(this);
  blocks_.push_back(b);
  return b;
}

void Node::insertBefore(Node* anchor) {
  TSSA_CHECK(anchor != nullptr && anchor->owningBlock_ != nullptr,
             "anchor not in a block");
  TSSA_CHECK(owningBlock_ == nullptr, "node already in a block; use moveBefore");
  prev_ = anchor->prev_;
  next_ = anchor;
  anchor->prev_->next_ = this;
  anchor->prev_ = this;
  owningBlock_ = anchor->owningBlock_;
}

void Node::insertAfter(Node* anchor) {
  TSSA_CHECK(anchor != nullptr && anchor->owningBlock_ != nullptr,
             "anchor not in a block");
  TSSA_CHECK(anchor->kind_ != OpKind::Return,
             "cannot insert after the return sentinel");
  TSSA_CHECK(owningBlock_ == nullptr, "node already in a block; use moveAfter");
  next_ = anchor->next_;
  prev_ = anchor;
  anchor->next_->prev_ = this;
  anchor->next_ = this;
  owningBlock_ = anchor->owningBlock_;
}

void Node::moveBefore(Node* anchor) {
  unlink();
  insertBefore(anchor);
}

void Node::moveAfter(Node* anchor) {
  unlink();
  insertAfter(anchor);
}

void Node::appendTo(Block* block) {
  TSSA_CHECK(owningBlock_ == nullptr, "node already in a block");
  insertBefore(block->returnNode());
}

void Node::prependTo(Block* block) {
  TSSA_CHECK(owningBlock_ == nullptr, "node already in a block");
  // The sentinel is circular: its next_ is the first node.
  prev_ = block->returnNode();
  next_ = block->returnNode()->next_;
  next_->prev_ = this;
  block->returnNode()->next_ = this;
  owningBlock_ = block;
}

void Node::unlink() {
  if (owningBlock_ == nullptr) return;
  prev_->next_ = next_;
  next_->prev_ = prev_;
  prev_ = next_ = nullptr;
  owningBlock_ = nullptr;
}

void Node::destroy() {
  TSSA_CHECK(!destroyed_, "double destroy");
  for (Value* out : outputs_) {
    TSSA_CHECK(!out->hasUses(),
               "destroying node " << kind_ << " whose output %" << out->id()
                                  << " still has uses");
  }
  // Destroy nested blocks' contents first: release return uses, then destroy
  // nodes in reverse order so uses are gone before their defs.
  for (Block* b : blocks_) {
    b->returnNode()->removeAllInputs();
    auto nodes = b->nodesSnapshot();
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) (*it)->destroy();
  }
  removeAllInputs();
  unlink();
  destroyed_ = true;
}

bool Node::isBefore(const Node* other) const {
  TSSA_CHECK(other != nullptr, "null node");
  if (this == other) return false;
  // Ancestor-node chains from each node up to the top block.
  auto chainOf = [](const Node* n) {
    std::vector<const Node*> chain;
    for (const Node* cur = n; cur != nullptr;) {
      chain.push_back(cur);
      Block* b = cur->owningBlock();
      cur = b != nullptr ? b->owningNode() : nullptr;
    }
    return chain;  // innermost first, top-level last
  };
  const auto ca = chainOf(this);
  const auto cb = chainOf(other);
  auto ia = ca.rbegin();
  auto ib = cb.rbegin();
  while (ia != ca.rend() && ib != cb.rend() && *ia == *ib) {
    ++ia;
    ++ib;
  }
  // One is a structural ancestor of the other: the container begins first.
  if (ia == ca.rend()) return true;
  if (ib == cb.rend()) return false;
  // *ia and *ib may sit in sibling blocks of one control-flow node (e.g.
  // then/else): order textually by block index.
  if ((*ia)->owningBlock() != (*ib)->owningBlock()) {
    const Block* ba = (*ia)->owningBlock();
    const Block* bb = (*ib)->owningBlock();
    TSSA_CHECK(ba->owningNode() == bb->owningNode(),
               "nodes not in the same graph");
    const Node* owner = ba->owningNode();
    for (const Block* b : owner->blocks()) {
      if (b == ba) return true;
      if (b == bb) return false;
    }
    TSSA_THROW("block not found on owning node");
  }
  // Distinct siblings in the same block: walk the list.
  for (const Node* n = (*ia)->next_; n != nullptr && n->kind_ != OpKind::Return;
       n = n->next_) {
    if (n == *ib) return true;
  }
  return false;
}

bool Node::dominates(const Node* other) const {
  TSSA_CHECK(other != nullptr, "null node");
  if (this == other) return true;
  if (!owningBlock_->encloses(other->owningBlock())) return false;
  // Raise `other` to this block, then check list order.
  const Node* o = other;
  while (o->owningBlock() != owningBlock_) o = o->owningBlock()->owningNode();
  if (o == this) return false;  // `other` is inside this node's blocks
  for (const Node* n = next_; n != nullptr && n->kind() != OpKind::Return;
       n = n->next()) {
    if (n == o) return true;
  }
  return false;
}

// ---- Block ---------------------------------------------------------------------

Block::Block(Graph* graph, Node* owningNode)
    : graph_(graph), owningNode_(owningNode) {
  returnNode_ = graph->newRawNode(OpKind::Return);
  returnNode_->owningBlock_ = this;
  returnNode_->prev_ = returnNode_;
  returnNode_->next_ = returnNode_;
}

Value* Block::param(std::size_t i) const {
  TSSA_CHECK(i < params_.size(), "param index out of range");
  return params_[i];
}

Value* Block::addParam(Type type, std::string debugName) {
  Value* v = graph_->newValue(std::move(type));
  v->paramBlock_ = this;
  v->defIndex_ = params_.size();
  v->setDebugName(std::move(debugName));
  params_.push_back(v);
  return v;
}

Node* Block::front() const {
  TSSA_CHECK(!empty(), "front() of empty block");
  return returnNode_->next_;
}

Node* Block::back() const {
  TSSA_CHECK(!empty(), "back() of empty block");
  return returnNode_->prev_;
}

std::vector<Node*> Block::nodesSnapshot() const {
  std::vector<Node*> out;
  for (Node* n : *this) out.push_back(n);
  return out;
}

bool Block::encloses(const Block* other) const {
  for (const Block* b = other; b != nullptr;
       b = b->owningNode() ? b->owningNode()->owningBlock() : nullptr) {
    if (b == this) return true;
  }
  return false;
}

std::size_t Block::depth() const {
  std::size_t d = 0;
  for (const Block* b = this; b->owningNode() != nullptr;
       b = b->owningNode()->owningBlock()) {
    ++d;
  }
  return d;
}

// ---- Graph ----------------------------------------------------------------------

Graph::Graph() { topBlock_ = newBlock(nullptr); }

Graph::~Graph() = default;

Node* Graph::create(OpKind kind, std::span<Value* const> inputs,
                    std::size_t numOutputs) {
  Node* n = newRawNode(kind);
  for (Value* v : inputs) n->addInput(v);
  for (std::size_t i = 0; i < numOutputs; ++i) n->addOutput(Type::tensor());
  return n;
}

Node* Graph::create(OpKind kind, std::initializer_list<Value*> inputs,
                    std::size_t numOutputs) {
  return create(kind,
                std::span<Value* const>(inputs.begin(), inputs.size()),
                numOutputs);
}

namespace {
std::size_t countBlockNodes(const Block& block) {
  std::size_t n = 0;
  for (Node* node : block) {
    ++n;
    for (Block* b : node->blocks()) n += countBlockNodes(*b);
  }
  return n;
}
}  // namespace

std::size_t Graph::countNodes() const { return countBlockNodes(*topBlock_); }

Value* Graph::newValue(Type type) {
  valueArena_.push_back(
      std::unique_ptr<Value>(new Value(this, nextValueId_++, std::move(type))));
  return valueArena_.back().get();
}

Block* Graph::newBlock(Node* owningNode) {
  blockArena_.push_back(std::unique_ptr<Block>(new Block(this, owningNode)));
  return blockArena_.back().get();
}

Node* Graph::newRawNode(OpKind kind) {
  nodeArena_.push_back(std::unique_ptr<Node>(new Node(this, kind)));
  return nodeArena_.back().get();
}

// ---- Cloning --------------------------------------------------------------------

void cloneBlockContents(const Block& src, Block* dst,
                        std::unordered_map<const Value*, Value*>& valueMap) {
  Graph& g = dst->graph();
  auto mapped = [&](Value* v) {
    auto it = valueMap.find(v);
    TSSA_CHECK(it != valueMap.end(),
               "clone: operand %" << v->id() << " has no mapping");
    return it->second;
  };
  for (const Node* n : src) {
    Node* copy = g.create(n->kind(), std::initializer_list<Value*>{},
                          /*numOutputs=*/0);
    for (Value* in : n->inputs()) copy->addInput(mapped(in));
    for (Value* out : n->outputs()) {
      Value* newOut = copy->addOutput(out->type());
      newOut->setDebugName(out->debugName());
      valueMap[out] = newOut;
    }
    for (const auto& [name, value] : n->attrs().all())
      copy->attrs().set(name, value);
    for (const Block* b : n->blocks()) {
      Block* newBlock = copy->addBlock();
      for (Value* p : b->params()) {
        Value* newParam = newBlock->addParam(p->type(), p->debugName());
        valueMap[p] = newParam;
      }
      cloneBlockContents(*b, newBlock, valueMap);
    }
    copy->appendTo(dst);
  }
  for (Value* r : src.returns()) dst->addReturn(mapped(r));
}

std::unique_ptr<Graph> cloneGraph(const Graph& graph) {
  auto out = std::make_unique<Graph>();
  std::unordered_map<const Value*, Value*> valueMap;
  for (Value* in : graph.inputs())
    valueMap[in] = out->addInput(in->type(), in->debugName());
  cloneBlockContents(*graph.topBlock(), out->topBlock(), valueMap);
  return out;
}

}  // namespace tssa::ir
