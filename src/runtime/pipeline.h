// The five compared compilation pipelines (paper §5.1 "Baselines").
//
// Each pipeline clones the source program and applies the transformations
// that the corresponding real system is capable of (see DESIGN.md §3), then
// executes through the shared reference interpreter. Numerics are identical
// across pipelines by construction — tests assert it — only structure
// (fusion, functionalization scope) and the host dispatch model differ,
// which is what produces the paper's metrics. A run is priced, not
// measured: the cost walk (src/analysis/cost.h) prices the compiled program
// on the run's input metadata under that system's dispatch model, once per
// input signature, and the interpreter only executes. The memoized
// CostReport is the run's one record; profiler() reads it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/cost.h"
#include "src/ir/ir.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/profiler.h"

namespace tssa::runtime {

enum class PipelineKind {
  Eager,              ///< PyTorch eager: no compilation, Python dispatch
  TorchScriptNnc,     ///< TorchScript + NNC fuser
  TorchScriptNvfuser, ///< TorchScript + nvFuser
  DynamoInductor,     ///< TorchDynamo + TorchInductor (dataflow
                      ///< functionalization, graph breaks at control flow)
  TensorSsa,          ///< this paper: holistic functionalization + vertical
                      ///< fusion + horizontal parallelization
};

/// All kinds, in the order the paper's figures list them.
const std::vector<PipelineKind>& allPipelines();

std::string_view pipelineName(PipelineKind kind);

/// Knobs shared by every pipeline. `threads` caps the runtime worker count
/// used for ParallelMap iteration batches and fused-body tiles:
/// 1 executes fully serially (bit-for-bit the historical behaviour), 0 means
/// ThreadPool::hardwareThreads(). Results and profiler numbers are identical
/// at any thread count — only wall-clock time changes.
struct PipelineOptions {
  DeviceSpec device = DeviceSpec::dataCenter();
  int threads = 1;
  /// Cap on ops per fusion group (FusionPolicy::maxKernelOps): 0 keeps the
  /// unlimited heuristic; the autotuner measures small caps, which can run
  /// faster on the host. Only affects pipelines that fuse.
  std::size_t fusionMaxOps = 0;
  /// Runs the loop-parallelization pass (core::parallelizeLoops). Off leaves
  /// every loop serial; the autotuner measures that too. Only the TensorSSA
  /// pipeline parallelizes, so other kinds ignore it.
  bool parallelize = true;

  friend bool operator==(const PipelineOptions&,
                         const PipelineOptions&) = default;
};

/// Order-insensitive hash consistent with PipelineOptions::operator==, for
/// keying compiled-program caches (see src/serve/program_cache.h).
std::size_t hashValue(const PipelineOptions& options);

/// The host dispatch model `kind` executes (and is priced) under.
HostSpec hostSpecFor(PipelineKind kind);

/// Applies the capability envelope of `kind` to `graph` in place — the same
/// pass sequence the Pipeline constructor runs, exposed so the autotuner can
/// compile candidate configurations and price them with the analytic cost
/// model (src/analysis/cost.h) without constructing an executable Pipeline.
void compileGraph(PipelineKind kind, ir::Graph& graph,
                  const PipelineOptions& options = {});

class Pipeline {
 public:
  /// Compiles `source` for `kind` with explicit options (device, thread
  /// count, fusion cap, parallelization). The source graph is not
  /// modified.
  Pipeline(PipelineKind kind, const ir::Graph& source,
           const PipelineOptions& options);

  /// Convenience: default options on `device`.
  Pipeline(PipelineKind kind, const ir::Graph& source,
           DeviceSpec device = DeviceSpec::dataCenter())
      : Pipeline(kind, source, PipelineOptions{std::move(device)}) {}

  PipelineKind kind() const { return kind_; }
  std::string_view name() const { return pipelineName(kind_); }

  /// Executes the compiled program. The run is priced before it executes;
  /// throws tssa::Error when the run succeeds but the cost walk could not
  /// price it exactly (a lower bound is never reported as exact).
  std::vector<RtValue> run(std::span<const RtValue> inputs);

  /// The price of the last run. Reads zero before the first run, after a
  /// run whose launch probe threw and after a run the cost walk could not
  /// price exactly.
  const Profiler& profiler() const { return profiler_; }
  const ir::Graph& compiled() const { return *graph_; }

  /// Installs a hook invoked once per modelled kernel launch of every run,
  /// before the program executes (the serving engine's fault-injection
  /// seam). The probe may throw: that models a kernel launch failure, and
  /// the run throws without executing or recording anything. Pass nullptr
  /// to clear.
  using LaunchProbe = std::function<void()>;
  void setLaunchProbe(LaunchProbe probe) { launchProbe_ = std::move(probe); }

 private:
  /// The cost walk's report for a run on `inputs`. Memoized per input
  /// signature — tensor sizes and dtypes, scalar values, list metas — for
  /// the kPricedSignatures most recently priced. Runs of one Pipeline never
  /// overlap, so the memo needs no lock. It changes only here, after run()
  /// has cleared the profiler's pointer into it.
  const analysis::CostReport& price(std::span<const RtValue> inputs);

  static constexpr std::size_t kPricedSignatures = 32;
  struct PricedRun {
    std::vector<std::int64_t> signature;
    analysis::CostReport cost;
  };

  PipelineKind kind_;
  std::unique_ptr<ir::Graph> graph_;
  Profiler profiler_;
  Interpreter interpreter_;
  analysis::CostOptions pricing_;
  std::vector<PricedRun> priced_;
  std::size_t nextEvicted_ = 0;  ///< round-robin once priced_ is full
  LaunchProbe launchProbe_;
};

}  // namespace tssa::runtime
