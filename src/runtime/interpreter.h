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
// (src/analysis/cost.h) before executing it. An attached Profiler receives
// only the memory planner's arena counters. Views and shape rules are the
// ones metadata inference runs (analysis::applyView, src/tensor/ops.h).
//
// Fused bodies (see DESIGN.md §6, §8): a FusionGroup body that tiles
// (src/analysis/tile_plan.h) runs one tile at a time — every node on one
// tile before the next — so its intermediates are tile-sized arena buffers;
// every other body runs whole, node by node.
//
// Threading (see DESIGN.md "Threading model"): with `threads > 1`, a
// tssa::ParallelMap whose converting pass attached `par_dims` metadata runs
// its iterations concurrently on the shared runtime ThreadPool — each worker
// executes whole iterations against a private environment clone and an
// ExecContext of its own, and writes its iterations' slices into
// pre-allocated output buffers (slices are disjoint by the pass's proof, so
// no locks are needed). The tiles of a large fused body likewise run across
// the pool, each worker with its own environment and arena. `threads == 1`
// reproduces the serial executor bit-for-bit, and any thread count yields
// bitwise-identical tensors.
#pragma once

#include <unordered_map>

#include <memory>
#include <mutex>
#include <optional>

#include "src/analysis/liveness.h"
#include "src/analysis/op_rules.h"
#include "src/analysis/tile_plan.h"
#include "src/ir/ir.h"
#include "src/runtime/profiler.h"
#include "src/runtime/rt_value.h"
#include "src/tensor/arena.h"

namespace tssa::runtime {

class Interpreter {
 public:
  /// `profiler`, when set, receives the arena counters of planned runs; it
  /// may be null. Fused bodies run tiled or whole through the tensor/ops.h
  /// kernels. `threads` caps the worker count for parallel constructs: 1
  /// (default) executes fully serially, 0 means
  /// ThreadPool::hardwareThreads().
  explicit Interpreter(Profiler* profiler = nullptr, int threads = 1)
      : profiler_(profiler) {
    setThreads(threads);
  }

  /// Worker-count cap for ParallelMap iteration batches and fused-body
  /// tiles; 0 resolves to the hardware concurrency.
  void setThreads(int threads);
  int threads() const { return threads_; }

  /// Runs `graph` on `inputs` (one per graph input) and returns its outputs.
  std::vector<RtValue> run(const ir::Graph& graph,
                           std::span<const RtValue> inputs);

  /// Attaches a liveness plan (see src/analysis/liveness.h). Planned runs
  /// route intermediate allocations through arenas — one owned by the
  /// interpreter for the root context, one thread-local per pool worker —
  /// and recycle a value's storage at its death point when the refcount
  /// proves sole ownership, so steady-state runs allocate almost nothing.
  /// The plan must describe the same graph later passed to run() (a plan for
  /// a different graph is a safe no-op: its death lists never match) and
  /// must outlive the interpreter; nullptr disables planning. Planned runs
  /// of one interpreter must not overlap in time (Pipeline::run holds this
  /// by construction; the serve engine serializes runs per program).
  void setMemoryPlan(const analysis::MemoryPlan* plan) { plan_ = plan; }
  const analysis::MemoryPlan* memoryPlan() const { return plan_; }

 private:
  using Env = std::unordered_map<const ir::Value*, RtValue>;

  /// Per-execution-thread interpreter state. The root context belongs to the
  /// caller of run(); every ParallelMap worker gets a fresh context, which is
  /// what makes block execution re-entrant across threads.
  struct ExecContext {
    bool onWorker = false;  ///< true on pool threads (no nested parallelism)
    /// This context's buffer pool (null when planning is off). The root
    /// context uses the interpreter-owned arena; each pool worker uses its
    /// thread-local one, so parallel regions never contend on a free list.
    Arena* arena = nullptr;
  };

  class Operands;  // a node's operand values plus their metadata views

  void runBlockBody(const ir::Block& block, Env& env, ExecContext& ctx);
  std::vector<RtValue> blockReturns(const ir::Block& block, const Env& env);
  void execNode(const ir::Node& node, Env& env, ExecContext& ctx);

  /// Drops the bindings of every value whose last use was `node` and offers
  /// their storage to the context's arena (the arena re-verifies sole
  /// ownership before pooling anything).
  void releaseDead(const ir::Node& node, Env& env);

  /// Erases the env bindings of `block`-defined return values right after
  /// blockReturns copied them out: the copy becomes the canonical owner, so
  /// whoever drops it last (a loop rebind, a planned death of the consuming
  /// node's output) can prove sole ownership and recycle the buffer. Without
  /// this the stale binding pins the refcount above 1 until the block next
  /// executes.
  void dropReturnBindings(const ir::Block& block, Env& env);

  /// Runs `body` `trip` times: param 0 is the induction variable, the rest
  /// carry `carried` from one iteration's returns to the next. A Loop, and a
  /// ParallelMap the threaded path declines.
  void runIterations(const ir::Block& body, std::int64_t trip,
                     std::vector<RtValue>& carried, Env& env,
                     ExecContext& ctx);

  /// Prepares `wctx` for a pool worker: publishes the worker's
  /// thread-local arena through `scope` (planned runs only) and records its
  /// counters in `before`.
  void enterWorker(ExecContext& wctx, std::optional<Arena::Scope>& scope,
                   Arena::Stats& before);
  /// Reports the workers' arena traffic (one delta per worker) to the
  /// profiler, after the barrier.
  void recordWorkerArenas(std::span<const Arena::Stats> deltas);

  /// The threaded ParallelMap path; returns false when the node lacks the
  /// pass metadata or a runtime precondition fails (caller then runs the
  /// serial path).
  bool tryParallelMap(const ir::Node& node, Env& env, ExecContext& ctx,
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
               std::span<const RtValue> in, ExecContext& ctx,
               std::vector<RtValue>& rets);

  /// Tiles [first, last) of runTiled, as one: binds their params over
  /// `shared` (values every tile reads whole) into `env`, runs the tiled
  /// nodes, and copies their returns into their rows of `rets`.
  void runTile(const ir::Block& body, const analysis::TilePlan& plan,
               std::int64_t first, std::int64_t last,
               std::span<const RtValue> in, const Env& shared,
               std::span<RtValue> rets, Env& env);

  Profiler* profiler_;
  int threads_ = 1;
  const analysis::MemoryPlan* plan_ = nullptr;
  /// Root-context buffer pool, created lazily on the first planned run and
  /// kept across runs so steady-state executions reuse prior buffers.
  std::unique_ptr<Arena> arena_;
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
