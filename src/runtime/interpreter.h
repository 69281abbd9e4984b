// Reference interpreter for graph-level IR.
//
// Executes a graph with *eager semantics*: view operators return aliasing
// tensors, mutation operators write through them, TensorSSA operators
// (Access/Assign) execute as their pure definitions, and FusionGroup /
// ParallelMap execute their bodies. This single executor therefore runs both
// the imperative input programs and every stage of their functionalized,
// fused forms — which is what lets tests assert bit-equal behaviour across
// the whole compilation pipeline.
//
// The interpreter only executes. It charges nothing: the paper's metrics
// (kernel launches, modelled latency) depend only on the program and its
// input metadata, so runtime::Pipeline prices each run with the cost walk
// (src/analysis/cost.h) before executing it. Views and shape rules are the
// ones metadata inference runs (analysis::applyView, src/tensor/ops.h).
//
// Memory (DESIGN.md §8): a value lives until its environment binding is
// overwritten (the next loop iteration, the next tile) or the run returns.
// Tensor::empty allocates from the heap; the only buffer reuse is the
// compile-time donation of an in-place Assign (core::markInplaceAssigns).
//
// Fused bodies (see DESIGN.md §6, §8): a FusionGroup body that tiles
// (src/analysis/tile_plan.h) runs one tile at a time — every node on one
// tile before the next — so its intermediates are tile-sized; every other
// body runs whole, node by node.
//
// Threading (see DESIGN.md "Threading model"): with `threads > 1`, a
// tssa::ParallelMap whose converting pass attached `par_dims` metadata runs
// its iterations concurrently on the shared runtime ThreadPool — each worker
// executes whole iterations against a private environment clone, and writes
// its iterations' slices into pre-allocated output buffers (slices are
// disjoint by the pass's proof, so no locks are needed). The tiles of a large
// fused body likewise run across the pool, each worker with its own
// environment. `threads == 1` reproduces the serial executor bit-for-bit,
// and any thread count yields bitwise-identical tensors.
#pragma once

#include <unordered_map>

#include <memory>
#include <mutex>

#include "src/analysis/op_rules.h"
#include "src/analysis/tile_plan.h"
#include "src/ir/ir.h"
#include "src/runtime/rt_value.h"

namespace tssa::runtime {

class Interpreter {
 public:
  /// Fused bodies run tiled or whole through the tensor/ops.h kernels.
  /// `threads` caps the worker count for ParallelMap iteration batches and
  /// fused-body tiles: 1 (default) executes fully serially, 0 means
  /// ThreadPool::hardwareThreads().
  explicit Interpreter(int threads = 1);

  /// Runs `graph` on `inputs` (one per graph input) and returns its outputs.
  std::vector<RtValue> run(const ir::Graph& graph,
                           std::span<const RtValue> inputs);

 private:
  using Env = std::unordered_map<const ir::Value*, RtValue>;

  class Operands;  // a node's operand values plus their metadata views

  // `onWorker` is true on pool threads: what runs there never goes parallel
  // again. Every method that takes an Env reads and writes only that one,
  // which is what makes block execution re-entrant across threads.
  void runBlockBody(const ir::Block& block, Env& env, bool onWorker);
  std::vector<RtValue> blockReturns(const ir::Block& block, const Env& env);
  void execNode(const ir::Node& node, Env& env, bool onWorker);

  /// Runs `body` `trip` times: param 0 is the induction variable, the rest
  /// carry `carried` from one iteration's returns to the next. A Loop, and a
  /// ParallelMap the threaded path declines.
  void runIterations(const ir::Block& body, std::int64_t trip,
                     std::vector<RtValue>& carried, Env& env,
                     bool onWorker);

  /// The threaded ParallelMap path; returns false when the node lacks the
  /// pass metadata or a runtime precondition fails (caller then runs the
  /// serial path).
  bool tryParallelMap(const ir::Node& node, Env& env, bool onWorker,
                      std::int64_t trip, const std::vector<RtValue>& carried);

  const RtValue& get(const ir::Value* v, const Env& env) const;

  /// Executes leaf op `node` (anything but control flow and fusion groups)
  /// into `out`, one value per node output; `patch` is a tile's extent for
  /// an Access/Assign view's "sizes".
  void execLeaf(const ir::Node& node, const Operands& in,
                std::span<RtValue> out,
                analysis::SizesPatch patch = {}) const;

  /// The tile plan of FusionGroup `node` for the params `in`, decided once
  /// per input signature and cached across runs and threads; null when the
  /// body runs whole.
  std::shared_ptr<const analysis::TilePlan> tilePlanFor(
      const ir::Node& node, std::span<const RtValue> in);

  /// Runs the body of FusionGroup `node` on `in` by `plan` into `rets`
  /// (one per body return). Returns the number of workers the tiles ran
  /// on, or 0 without running anything when `in` breaks a precondition of
  /// in-place writes (the caller then runs the body whole).
  int runTiled(const ir::Node& node, const analysis::TilePlan& plan,
               std::span<const RtValue> in, bool onWorker,
               std::vector<RtValue>& rets);

  /// Tiles [first, last) of runTiled, as one: binds their params over
  /// `shared` (values every tile reads whole) into `env`, runs the tiled
  /// nodes, and copies their returns into their rows of `rets`.
  void runTile(const ir::Block& body, const analysis::TilePlan& plan,
               std::int64_t first, std::int64_t last,
               std::span<const RtValue> in, const Env& shared,
               std::span<RtValue> rets, Env& env);

  int threads_ = 1;
  /// Per FusionGroup node, the plans of its most recent input signatures
  /// (at most kTilePlansPerNode, replaced round-robin; a null plan records
  /// a body that runs whole). A select index is keyed as 0
  /// (analysis::isSelectIndex), so every step of a loop that selects by its
  /// index shares one entry. Guarded by `tilePlansMutex_`, held while
  /// planning: ParallelMap workers that launch one body wait for its one
  /// plan. It is keyed by node, so the graphs an interpreter runs must
  /// outlive it.
  ///
  /// Planning is not free next to a launch: 7-130 us per plan on a 4-vCPU
  /// Xeon (fcos's 75-node box body is the 130); keyed by the select index,
  /// replanning every step cost about a fifth of nasrnn's and lstm's run
  /// time. Signatures per node above the one-tile gate, measured with
  /// perfbench: 1 on every node of paper_cv (yolact's crop cell included)
  /// and paper_nlp; 1 to 4 on serve_mix in 20 s, one per coalesced batch
  /// size, which the serve engine's default micro-batcher bounds at 8.
  static constexpr std::size_t kTilePlansPerNode = 8;
  struct TilePlans {
    std::vector<std::pair<std::vector<std::int64_t>,
                          std::shared_ptr<const analysis::TilePlan>>>
        entries;
    std::size_t next = 0;
  };
  std::unordered_map<const ir::Node*, TilePlans> tilePlans_;
  std::mutex tilePlansMutex_;
};

}  // namespace tssa::runtime
