// Graph-level IR: values, nodes, blocks, graphs.
//
// Mirrors the TorchScript IR structure the paper builds on (§2.2):
//   * A Graph owns a top-level Block.
//   * A Block has parameters, a doubly-linked list of Nodes, and returns.
//   * Control flow is structured: `prim::If` / `prim::Loop` nodes own nested
//     Blocks; values cross block boundaries only as block parameters and
//     block returns ("functional form of SSA" — block propagation in
//     Algorithm 1 manipulates exactly these).
//   * Every Value is defined once (node output or block parameter) and its
//     uses are tracked, enabling replace-all-uses rewrites.
//
// Ownership: the Graph arena owns all nodes/values/blocks; list pointers and
// operand pointers are non-owning. Destroyed nodes are unlinked and marked
// dead but reclaimed only with the graph (TorchScript does the same), which
// keeps iterator and pointer discipline simple for passes.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/attrs.h"
#include "src/ir/op_kind.h"
#include "src/ir/type.h"

namespace tssa::ir {

class Node;
class Block;
class Graph;

/// One use of a Value: `user`'s `index`-th operand.
struct Use {
  Node* user = nullptr;
  std::size_t index = 0;
  friend bool operator==(const Use&, const Use&) = default;
};

/// An SSA value: the output of a node or a block parameter.
class Value {
 public:
  Value(const Value&) = delete;
  Value& operator=(const Value&) = delete;

  std::size_t id() const { return id_; }
  const Type& type() const { return type_; }
  void setType(Type type) { type_ = std::move(type); }

  /// Defining node; nullptr when this value is a block parameter.
  Node* definingNode() const { return def_; }
  /// Owning block when this value is a block parameter; nullptr otherwise.
  Block* paramBlock() const { return paramBlock_; }
  bool isParam() const { return paramBlock_ != nullptr; }
  /// Output index within the defining node (or parameter index).
  std::size_t defIndex() const { return defIndex_; }

  /// The block whose scope this value is defined in (the param's block, or
  /// the defining node's owning block).
  Block* definingBlock() const;

  const std::vector<Use>& uses() const { return uses_; }
  bool hasUses() const { return !uses_.empty(); }

  /// Rewrites every use of this value to `other`.
  void replaceAllUsesWith(Value* other);

  /// Optional debug name shown by the printer alongside %id.
  const std::string& debugName() const { return debugName_; }
  void setDebugName(std::string name) { debugName_ = std::move(name); }

  Graph& graph() const { return *graph_; }

 private:
  friend class Node;
  friend class Block;
  friend class Graph;

  Value(Graph* graph, std::size_t id, Type type)
      : graph_(graph), id_(id), type_(std::move(type)) {}

  void addUse(Use use) { uses_.push_back(use); }
  void removeUse(Use use);

  Graph* graph_;
  std::size_t id_;
  Type type_;
  Node* def_ = nullptr;
  Block* paramBlock_ = nullptr;
  std::size_t defIndex_ = 0;
  std::vector<Use> uses_;
  std::string debugName_;
};

/// An operator instance.
class Node {
 public:
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  OpKind kind() const { return kind_; }
  /// Re-tags the node's operator. Only valid between structurally identical
  /// kinds (used by parallelization: prim::Loop -> tssa::ParallelMap).
  void setKind(OpKind kind) { kind_ = kind; }

  // ---- Operands ----
  std::span<Value* const> inputs() const { return inputs_; }
  std::size_t numInputs() const { return inputs_.size(); }
  Value* input(std::size_t i) const;
  void setInput(std::size_t i, Value* v);
  void addInput(Value* v);
  void insertInput(std::size_t i, Value* v);
  void removeInput(std::size_t i);
  void removeAllInputs();

  // ---- Results ----
  std::span<Value* const> outputs() const { return outputs_; }
  std::size_t numOutputs() const { return outputs_.size(); }
  Value* output(std::size_t i = 0) const;
  /// Appends a fresh output value (used by block propagation).
  Value* addOutput(Type type);

  // ---- Nested blocks ----
  std::span<Block* const> blocks() const { return blocks_; }
  std::size_t numBlocks() const { return blocks_.size(); }
  Block* block(std::size_t i) const;
  Block* addBlock();

  // ---- Attributes ----
  AttrMap& attrs() { return attrs_; }
  const AttrMap& attrs() const { return attrs_; }

  // ---- Position ----
  Block* owningBlock() const { return owningBlock_; }
  Graph& graph() const { return *graph_; }
  /// Next/previous node in the owning block; the block's return node acts as
  /// the list sentinel (never returned by iteration helpers).
  Node* prev() const { return prev_; }
  Node* next() const { return next_; }

  void insertBefore(Node* anchor);
  void insertAfter(Node* anchor);
  /// Unlinks from the current block (if any) and re-inserts elsewhere.
  void moveBefore(Node* anchor);
  void moveAfter(Node* anchor);
  /// Appends at the end of `block` (before its return sentinel).
  void appendTo(Block* block);
  /// Inserts at the beginning of `block`.
  void prependTo(Block* block);

  /// Unlinks the node and releases its operand uses. Outputs must be unused.
  /// Nested blocks are destroyed recursively.
  void destroy();
  bool isDestroyed() const { return destroyed_; }

  /// True when `this` appears strictly before `other` in program order.
  /// Nodes in different blocks are compared at their common ancestor block
  /// (a node containing another via nested blocks is "before" its contents'
  /// successors but "containing" the contents; see dominates()).
  bool isBefore(const Node* other) const;
  /// Structured dominance: `this` dominates `other` when this is before
  /// other and this's block is `other`'s block or an ancestor of it.
  bool dominates(const Node* other) const;

 private:
  friend class Block;
  friend class Graph;

  Node(Graph* graph, OpKind kind) : graph_(graph), kind_(kind) {}

  void unlink();

  Graph* graph_;
  OpKind kind_;
  std::vector<Value*> inputs_;
  std::vector<Value*> outputs_;
  std::vector<Block*> blocks_;
  AttrMap attrs_;
  Block* owningBlock_ = nullptr;
  Node* prev_ = nullptr;
  Node* next_ = nullptr;
  bool destroyed_ = false;
};

/// A sequence of nodes with parameters and returns.
class Block {
 public:
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  Graph& graph() const { return *graph_; }
  /// The If/Loop/FusionGroup node containing this block; nullptr for the
  /// graph's top block.
  Node* owningNode() const { return owningNode_; }

  // ---- Parameters ----
  std::span<Value* const> params() const { return params_; }
  std::size_t numParams() const { return params_.size(); }
  Value* param(std::size_t i) const;
  Value* addParam(Type type, std::string debugName = {});

  // ---- Returns ----
  /// The sentinel prim::Return node; its inputs are the block's returns.
  Node* returnNode() const { return returnNode_; }
  std::span<Value* const> returns() const { return returnNode_->inputs(); }
  std::size_t numReturns() const { return returnNode_->numInputs(); }
  void addReturn(Value* v) { returnNode_->addInput(v); }

  // ---- Node list ----
  bool empty() const { return returnNode_->next_ == returnNode_; }
  Node* front() const;
  Node* back() const;

  /// Forward iteration over real nodes (excludes the return sentinel).
  class iterator {
   public:
    explicit iterator(Node* at) : at_(at) {}
    Node* operator*() const { return at_; }
    iterator& operator++() {
      at_ = at_->next();
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    Node* at_;
  };
  iterator begin() const { return iterator(returnNode_->next_); }
  iterator end() const { return iterator(returnNode_); }

  /// Snapshot of current nodes (safe to mutate the list while visiting).
  std::vector<Node*> nodesSnapshot() const;

  /// True if `this` is `other` or an ancestor block of `other`.
  bool encloses(const Block* other) const;
  /// Nesting depth (top block = 0).
  std::size_t depth() const;

 private:
  friend class Graph;
  friend class Node;

  Block(Graph* graph, Node* owningNode);

  Graph* graph_;
  Node* owningNode_;
  std::vector<Value*> params_;
  Node* returnNode_;  // circular-list sentinel; kind Return
};

/// A whole function: top-level block plus the ownership arena.
class Graph {
 public:
  Graph();
  ~Graph();
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  Block* topBlock() const { return topBlock_; }

  /// Graph inputs/outputs are the top block's params/returns.
  Value* addInput(Type type, std::string debugName = {}) {
    return topBlock_->addParam(std::move(type), std::move(debugName));
  }
  std::span<Value* const> inputs() const { return topBlock_->params(); }
  void addOutput(Value* v) { topBlock_->addReturn(v); }
  std::span<Value* const> outputs() const { return topBlock_->returns(); }

  /// Creates a node (not yet inserted into any block).
  Node* create(OpKind kind, std::span<Value* const> inputs,
               std::size_t numOutputs = 1);
  Node* create(OpKind kind, std::initializer_list<Value*> inputs,
               std::size_t numOutputs = 1);

  /// Number of live (non-destroyed) nodes across all blocks.
  std::size_t countNodes() const;

  std::string toString() const;

 private:
  friend class Node;
  friend class Block;

  Value* newValue(Type type);
  Block* newBlock(Node* owningNode);
  Node* newRawNode(OpKind kind);

  std::vector<std::unique_ptr<Node>> nodeArena_;
  std::vector<std::unique_ptr<Value>> valueArena_;
  std::vector<std::unique_ptr<Block>> blockArena_;
  Block* topBlock_ = nullptr;
  std::size_t nextValueId_ = 0;
};

/// Deep-copies `graph` (values, nodes, nested blocks, attributes).
std::unique_ptr<Graph> cloneGraph(const Graph& graph);

/// Clones the contents of `src` into `dst` (which must be empty), rewriting
/// operands through `valueMap`; `valueMap` must already map src's outer-scope
/// values (including src's params) to their replacements. New mappings for
/// node outputs are added as cloning proceeds.
void cloneBlockContents(const Block& src, Block* dst,
                        std::unordered_map<const Value*, Value*>& valueMap);

}  // namespace tssa::ir
