// Per-node flops/bytes accounting over graph-level IR: the one walk that
// produces the paper's metrics.
//
// estimateCost() walks a graph with *metadata semantics*: every value is
// reduced to its shape/dtype (tensors), its concrete value (scalars — loop
// trips, slice bounds and view extents depend on them), or a list of tensor
// metas. No tensor data is allocated or moved. The walk owns no per-op rule:
// each leaf op's outputs come from analysis::inferOutputs and its charge from
// analysis::chargeOf (src/analysis/op_rules.h). It prices them straight
// into a CostReport with the DeviceSpec/HostSpec under study — per op
// max(host, kernel), or their sum under serialized dispatch — merging the
// kernels of ParallelMap iterations into batched launches and pricing
// FusionGroups as one kernel each. FusionGroups whose body
// analysis::pricesAsOneKernel accepts are priced by inferFusedBody; other
// bodies count what their suppressed kernels would. Metadata comes from the
// kernels' own shape rules (src/tensor), so it is what execution produces.
//
// No op in the IR turns tensor data into a scalar, so input shapes and
// scalar values fix every branch, trip count and shape, and the walk is
// exact for every run that executes successfully. runtime::Pipeline::run
// therefore prices each run with it (memoized per input signature) instead
// of charging while the interpreter executes, and raises a tssa::Error if
// a run it could not price exactly succeeds. The Profiler of a Pipeline
// reads this walk's report of its last run; it stores no copy.
//
// Symbolic dims: bindSymbolic() turns a workload's SymbolicPattern input
// types plus a symbol->extent binding into cost inputs, so one polymorphic
// program yields a cost as a function of the bound extents.
//
// Ops whose outcome the metadata cannot determine (an input scalar left
// unknown, a loop beyond `maxLoopTrip`, operands a rule rejects) are
// counted in `unknownOps` (chainer-compiler's num_unknown_ops idiom): their
// outputs become unknown and they charge nothing, so a report with
// unknownOps > 0 is a lower bound, flagged by exact() == false.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/analysis/op_rules.h"
#include "src/ir/ir.h"
#include "src/runtime/device.h"
#include "src/runtime/rt_value.h"

namespace tssa::analysis {

/// Metadata of concrete runtime inputs (what the serving engine holds at
/// admission time).
std::vector<CostValue> costInputs(std::span<const runtime::RtValue> inputs);

/// Instantiates symbolic input types (a workload's SymbolicPattern) under a
/// symbol->extent binding: each `Dim` resolves to binding[sym] + offset.
/// Scalar input types become unknown scalars unless `scalarInputs` overrides
/// them positionally (index -> value). Throws on an unbound symbol.
std::vector<CostValue> bindSymbolic(
    std::span<const ir::Type> inputs,
    const std::map<std::string, std::int64_t>& extents,
    const std::map<std::size_t, Scalar>& scalarInputs = {});

struct CostOptions {
  runtime::DeviceSpec device = runtime::DeviceSpec::dataCenter();
  runtime::HostSpec host = runtime::HostSpec::torchscriptVm();
  /// Loops beyond this trip count are not unrolled by the walk; they count
  /// as one unknown op instead (guards pathological generated programs).
  std::int64_t maxLoopTrip = 1 << 20;
};

/// The accounting result: the one record of a run's price (a Pipeline's
/// runtime::Profiler reads it).
struct CostReport {
  std::int64_t launches = 0;  ///< modelled kernel launches
  std::int64_t bytes = 0;     ///< external memory traffic
  std::int64_t flops = 0;
  double gpuUs = 0;   ///< device busy time under `device`
  double hostUs = 0;  ///< framework time under `host`
  double simUs = 0;   ///< modelled end-to-end latency
  /// Ops the metadata walk could not resolve; > 0 means every other field
  /// is a lower bound.
  std::int64_t unknownOps = 0;
  /// Launches per kernel name (Profiler::kernelHistogram layout).
  std::map<std::string, std::int64_t> perKernel;

  bool exact() const { return unknownOps == 0; }
};

/// Accounts `graph` run on inputs described by `inputs` (one per graph
/// input). Never executes tensor code and never throws on unsupported
/// structure — unresolvable ops degrade into `unknownOps`.
CostReport estimateCost(const ir::Graph& graph,
                        std::span<const CostValue> inputs,
                        const CostOptions& options = {});

}  // namespace tssa::analysis
