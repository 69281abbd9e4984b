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
// When a Profiler is attached, execution also produces the paper's metrics:
// kernel-launch counts and modelled latency. The interpreter owns no pricing
// rule: after executing a node it hands the node's operand and result
// metadata (non-owning size views) to analysis::chargeOf, and records the
// charge through an analysis::ChargeSink (src/analysis/op_rules.h) — the
// same rules and sink the cost model (src/analysis/cost.h) walks. Fusion
// constructs are priced structurally (one launch; external bytes only),
// everything else per op.
//
// Threading (see DESIGN.md "Threading model"): with `threads > 1`, a
// tssa::ParallelMap whose converting pass attached `par_dims` metadata runs
// its iterations concurrently on the shared runtime ThreadPool — each worker
// executes whole iterations against a private environment clone and an
// ExecContext of its own, and writes its iterations' slices into
// pre-allocated output buffers (slices are disjoint by the pass's proof, so
// no locks are needed). Fused element-kernels likewise split their index
// space across the pool. `threads == 1` reproduces the serial executor
// bit-for-bit, and any thread count yields bitwise-identical tensors and
// identical profiler numbers.
#pragma once

#include <unordered_map>

#include <memory>
#include <mutex>

#include "src/analysis/liveness.h"
#include "src/analysis/op_rules.h"
#include "src/ir/ir.h"
#include "src/runtime/profiler.h"
#include "src/runtime/rt_value.h"
#include "src/tensor/arena.h"
#include "src/texpr/texpr.h"

namespace tssa::runtime {

class Interpreter {
 public:
  /// `profiler` may be null (pure execution, e.g. in tests). With
  /// `useTexpr` (default), FusionGroup bodies the texpr backend supports
  /// are priced as one texpr kernel (texpr::Kernel::infer) and, with
  /// `texprJit` (and TSSA_TEXPR_JIT not 0), run as native code when the
  /// JIT accepts them (src/texpr/texpr.h). Every other body, and every declined launch, is
  /// interpreted node by node — the tensor/ops.h semantics the generated
  /// code is fuzzed against; without `useTexpr` every body is interpreted
  /// and pays what its suppressed kernels count. `threads` caps the worker
  /// count for parallel constructs: 1 (default) executes fully serially, 0
  /// means ThreadPool::hardwareThreads().
  explicit Interpreter(Profiler* profiler = nullptr, bool useTexpr = true,
                       int threads = 1, bool texprJit = true)
      : profiler_(profiler), useTexpr_(useTexpr), texprJit_(texprJit) {
    setThreads(threads);
  }

  /// Worker-count cap for ParallelMap iteration batches and fused element
  /// kernels; 0 resolves to the hardware concurrency.
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
  /// what makes block execution re-entrant across threads. Cost accounting
  /// (merge slots, suppress totals) accumulates in the context's sink and is
  /// only merged into the shared Profiler at single-threaded points
  /// (parallelFor barriers).
  struct ExecContext {
    explicit ExecContext(Profiler* profiler) : sink(profiler) {}
    analysis::ChargeSink sink;
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
  void releaseDead(const ir::Node& node, Env& env, ExecContext& ctx);

  /// Erases the env bindings of `block`-defined return values right after
  /// blockReturns copied them out: the copy becomes the canonical owner, so
  /// whoever drops it last (a loop rebind, a planned death of the consuming
  /// node's output) can prove sole ownership and recycle the buffer. Without
  /// this the stale binding pins the refcount above 1 until the block next
  /// executes.
  void dropReturnBindings(const ir::Block& block, Env& env);

  /// Recycles every remaining binding of a finished environment into
  /// ctx.arena. Inputs, outputs, and constants all survive: something
  /// outside the env still holds their storage, so the Arena's refcount
  /// guard refuses them.
  void recycleEnv(Env& env, ExecContext& ctx);

  /// The threaded ParallelMap path; returns false when the node lacks the
  /// pass metadata or a runtime precondition fails (caller then runs the
  /// serial path).
  bool tryParallelMap(const ir::Node& node, Env& env, ExecContext& ctx,
                      std::int64_t trip, const std::vector<RtValue>& carried);

  const RtValue& get(const ir::Value* v, const Env& env) const;

  /// Executes leaf op `node` (anything but control flow and fusion groups)
  /// into `out`, one value per node output.
  void execLeaf(const ir::Node& node, const Operands& in,
                std::span<RtValue> out) const;

  /// Applies the view rule of `viewKind` to `base`; dynamic view operands
  /// (select index, slice bounds, "dyn" extents) start at `in[operandStart]`.
  Tensor applyView(ir::OpKind viewKind, const ir::Node& node,
                   const Tensor& base, std::span<const analysis::Operand> in,
                   std::size_t operandStart) const;

  /// How a FusionGroup body runs and is priced, decided once per node.
  struct FusedBody {
    /// texpr::Kernel::supports(body): charged from texpr::Kernel::infer,
    /// whichever path ran it.
    bool priced = false;
    /// Native-code host; null unless `priced`, texprJit and
    /// texpr::jit::jitEnabled().
    std::unique_ptr<texpr::Kernel> kernel;
  };
  /// The FusedBody of `node`, cached across runs and threads.
  const FusedBody& fusedBodyFor(const ir::Node& node, const ir::Block& body);

  Profiler* profiler_;
  bool useTexpr_ = true;
  bool texprJit_ = true;
  int threads_ = 1;
  const analysis::MemoryPlan* plan_ = nullptr;
  /// Root-context buffer pool, created lazily on the first planned run and
  /// kept across runs so steady-state executions reuse prior buffers.
  std::unique_ptr<Arena> arena_;
  /// Per FusionGroup node, kept across runs. Guarded by `fusedMutex_`:
  /// ParallelMap workers may compile concurrently. Entries are never erased,
  /// so returned references stay valid.
  std::unordered_map<const ir::Node*, FusedBody> fused_;
  std::mutex fusedMutex_;
};

}  // namespace tssa::runtime
