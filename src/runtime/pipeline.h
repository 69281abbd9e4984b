// The five compared compilation pipelines (paper §5.1 "Baselines").
//
// Each pipeline clones the source program and applies the transformations
// that the corresponding real system is capable of (see DESIGN.md §3), then
// executes through the shared reference interpreter with that system's host
// dispatch model. Numerics are identical across pipelines by construction —
// tests assert it — only structure (fusion, functionalization scope) and the
// dispatch model differ, which is what produces the paper's metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
/// used for ParallelMap iteration batches and fused element kernels:
/// 1 executes fully serially (bit-for-bit the historical behaviour), 0 means
/// ThreadPool::hardwareThreads(). Results and profiler numbers are identical
/// at any thread count — only wall-clock time changes.
struct PipelineOptions {
  DeviceSpec device = DeviceSpec::dataCenter();
  int threads = 1;
  /// Fused element regions as texpr kernels (src/texpr/texpr.h): each
  /// FusionGroup body the backend supports is priced as one kernel from its
  /// structure (texpr::Kernel::infer) and may run as native code (see
  /// `texprJit`); off, every fused body is interpreted node by node and
  /// pays what its kernels count. Serve program keys include it.
  bool useTexpr = true;
  /// Liveness-driven memory planning (src/analysis/liveness.h): intermediates
  /// are released at their last use and their buffers recycled through
  /// per-context arenas. Outputs are bitwise identical with the planner on
  /// or off — the differential suite cross-checks both modes — so this stays
  /// on by default; the toggle exists for that cross-check and for debugging.
  bool memoryPlan = true;
  /// Native codegen for fused element regions (src/texpr/jit.h): texpr
  /// kernels compile to shared objects at runtime and dispatch through a C
  /// ABI; unsupported patterns and toolchain failures decline back to the
  /// interpreted body. Results and charges are identical either way (the
  /// differential fuzz suite enforces the results), so it defaults on; the
  /// toggle exists for that cross-check and for toolchain-less deployments.
  bool texprJit = true;
  /// Cap on ops per fusion group (FusionPolicy::maxKernelOps): 0 keeps the
  /// unlimited heuristic; the autotuner sets small caps when the device
  /// model favours splitting long chains. Only affects pipelines that fuse.
  std::size_t fusionMaxOps = 0;
  /// Per-candidate-loop parallelization gate (see parallelizeLoops): bit i
  /// admits parallelizable loop i in discovery order. All-ones keeps the
  /// parallelize-everything heuristic. Only the TensorSSA pipeline
  /// parallelizes, so other kinds ignore it.
  std::uint64_t parallelizeMask = ~std::uint64_t{0};

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
  /// Compiles `source` for `kind` with explicit runtime options (device,
  /// thread count, backend choice). The source graph is not modified.
  Pipeline(PipelineKind kind, const ir::Graph& source,
           const PipelineOptions& options);

  /// Convenience: default options on `device`.
  Pipeline(PipelineKind kind, const ir::Graph& source,
           DeviceSpec device = DeviceSpec::dataCenter())
      : Pipeline(kind, source, PipelineOptions{std::move(device)}) {}

  PipelineKind kind() const { return kind_; }
  std::string_view name() const { return pipelineName(kind_); }

  /// Executes the compiled program. Profiling restarts on every call.
  std::vector<RtValue> run(std::span<const RtValue> inputs);
  /// Executes without resetting the profiler (for accumulating runs).
  std::vector<RtValue> runAccumulate(std::span<const RtValue> inputs);

  const Profiler& profiler() const { return profiler_; }
  const ir::Graph& compiled() const { return *graph_; }

  /// Installs a hook invoked on every kernel launch this pipeline performs
  /// (the serving engine's fault-injection seam — see Profiler::
  /// setLaunchProbe for the contract). Pass nullptr to clear.
  void setLaunchProbe(Profiler::LaunchProbe probe);

 private:
  PipelineKind kind_;
  std::unique_ptr<ir::Graph> graph_;
  Profiler profiler_;
  Interpreter interpreter_;
  /// Liveness plan for the compiled graph (null when options.memoryPlan is
  /// off). Owned here because its Node*/Value* keys reference `graph_`.
  std::unique_ptr<analysis::MemoryPlan> plan_;
};

}  // namespace tssa::runtime
