#include "src/runtime/pipeline.h"

#include <bit>
#include <functional>
#include <limits>

#include "src/core/dce.h"
#include "src/core/fusion.h"
#include "src/core/inplace_reuse.h"
#include "src/core/lower_inplace.h"
#include "src/core/parallelize.h"
#include "src/core/tensor_ssa.h"
#include "src/core/unroll.h"
#include "src/ir/verifier.h"
#include "src/obs/trace.h"

namespace tssa::runtime {

const std::vector<PipelineKind>& allPipelines() {
  static const std::vector<PipelineKind> kinds = {
      PipelineKind::Eager,
      PipelineKind::TorchScriptNnc,
      PipelineKind::TorchScriptNvfuser,
      PipelineKind::DynamoInductor,
      PipelineKind::TensorSsa,
  };
  return kinds;
}

std::string_view pipelineName(PipelineKind kind) {
  switch (kind) {
    case PipelineKind::Eager:
      return "Eager";
    case PipelineKind::TorchScriptNnc:
      return "TS+NNC";
    case PipelineKind::TorchScriptNvfuser:
      return "TS+nvFuser";
    case PipelineKind::DynamoInductor:
      return "Dynamo+Inductor";
    case PipelineKind::TensorSsa:
      return "TensorSSA";
  }
  return "?";
}

HostSpec hostSpecFor(PipelineKind kind) {
  switch (kind) {
    case PipelineKind::Eager:
      return HostSpec::eagerPython();
    case PipelineKind::DynamoInductor:
      return HostSpec::dynamoInductor();
    case PipelineKind::TorchScriptNnc:
    case PipelineKind::TorchScriptNvfuser:
    case PipelineKind::TensorSsa:
      return HostSpec::torchscriptVm();
  }
  return HostSpec::torchscriptVm();
}

namespace {

/// Per-pass graph statistics carried as span args: the delta tells what the
/// pass actually did (torch.fx's inspectability argument — a transformation
/// pipeline is only debuggable when each stage's effect is observable).
struct GraphCounts {
  std::int64_t nodes = 0;
  std::int64_t fusionGroups = 0;
  std::int64_t parallelMaps = 0;
};

GraphCounts countGraph(const ir::Graph& g) {
  GraphCounts c;
  std::vector<const ir::Block*> stack{g.topBlock()};
  while (!stack.empty()) {
    const ir::Block* b = stack.back();
    stack.pop_back();
    for (const ir::Node* node : *b) {
      ++c.nodes;
      if (node->kind() == ir::OpKind::FusionGroup) ++c.fusionGroups;
      if (node->kind() == ir::OpKind::ParallelMap) ++c.parallelMaps;
      for (const ir::Block* inner : node->blocks()) stack.push_back(inner);
    }
  }
  return c;
}

/// Runs one compilation pass under a "pipeline" span. Graph statistics are
/// only computed when the tracer is live, so the disabled path pays exactly
/// one atomic load per pass.
template <typename Fn>
void tracedPass(const char* name, ir::Graph& graph, Fn&& fn) {
  obs::TraceSpan span("pipeline", name);
  GraphCounts before;
  if (span.active()) before = countGraph(graph);
  fn();
  if (span.active()) {
    const GraphCounts after = countGraph(graph);
    span.arg("nodes_before", before.nodes);
    span.arg("nodes_after", after.nodes);
    if (after.fusionGroups != before.fusionGroups)
      span.arg("fusion_groups_formed",
               after.fusionGroups - before.fusionGroups);
    if (after.parallelMaps != before.parallelMaps)
      span.arg("loops_parallelized",
               after.parallelMaps - before.parallelMaps);
  }
}

}  // namespace

/// Applies the capability envelope of `kind` to `graph` (in place).
void compileGraph(PipelineKind kind, ir::Graph& graph,
                  const PipelineOptions& options) {
  using core::ConversionOptions;
  using core::FusionPolicy;
  // The tunable knobs ride on the per-kind policy presets.
  auto withCap = [&](FusionPolicy policy) {
    policy.maxKernelOps = options.fusionMaxOps;
    return policy;
  };
  obs::TraceSpan compileSpan("pipeline", "compile");
  compileSpan.arg("pipeline", pipelineName(kind));
  switch (kind) {
    case PipelineKind::Eager:
      // No compilation at all.
      return;
    case PipelineKind::TorchScriptNnc:
      tracedPass("hoist-constants", graph,
                 [&] { core::hoistConstants(graph); });
      tracedPass("fusion", graph, [&] {
        core::fuseKernels(graph, withCap(FusionPolicy::nnc()));
      });
      break;
    case PipelineKind::TorchScriptNvfuser:
      tracedPass("hoist-constants", graph,
                 [&] { core::hoistConstants(graph); });
      tracedPass("fusion", graph, [&] {
        core::fuseKernels(graph, withCap(FusionPolicy::nvfuser()));
      });
      break;
    case PipelineKind::DynamoInductor: {
      tracedPass("lower-inplace", graph,
                 [&] { core::lowerInplaceOps(graph); });
      // Dynamo traces Python control flow: constant-range loops unroll into
      // the captured region; anything data-dependent graph-breaks.
      tracedPass("unroll-loops", graph, [&] { core::unrollLoops(graph); });
      tracedPass("fold-scalar-constants", graph,
                 [&] { core::foldScalarConstants(graph); });
      tracedPass("functionalize", graph, [&] {
        ConversionOptions options;
        options.acrossControlFlow = false;  // graph breaks at control flow
        core::convertToTensorSSA(graph, options);
      });
      tracedPass("views-to-access", graph, [&] {
        core::readonlyViewsToAccess(graph, FusionPolicy::inductor());
      });
      tracedPass("hoist-constants", graph,
                 [&] { core::hoistConstants(graph); });
      tracedPass("fusion", graph, [&] {
        core::fuseKernels(graph, withCap(FusionPolicy::inductor()));
      });
      tracedPass("mark-inplace", graph,
                 [&] { core::markInplaceAssigns(graph); });
      break;
    }
    case PipelineKind::TensorSsa: {
      tracedPass("lower-inplace", graph,
                 [&] { core::lowerInplaceOps(graph); });
      tracedPass("functionalize", graph,
                 [&] { core::convertToTensorSSA(graph); });
      tracedPass("views-to-access", graph, [&] {
        core::readonlyViewsToAccess(graph, FusionPolicy::tensorssa());
      });
      tracedPass("parallelize", graph, [&] {
        core::parallelizeLoops(graph, options.parallelizeMask);
      });
      tracedPass("hoist-constants", graph,
                 [&] { core::hoistConstants(graph); });
      tracedPass("fusion", graph, [&] {
        core::fuseKernels(graph, withCap(FusionPolicy::tensorssa()));
      });
      tracedPass("mark-inplace", graph,
                 [&] { core::markInplaceAssigns(graph); });
      break;
    }
  }
  tracedPass("dce", graph, [&] { core::eliminateDeadCode(graph); });
  tracedPass("verify", graph, [&] { ir::verify(graph); });
}

std::size_t hashValue(const PipelineOptions& options) {
  std::size_t h = std::hash<std::string>{}(options.device.name);
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(std::hash<double>{}(options.device.launchOverheadUs));
  mix(std::hash<double>{}(options.device.memBandwidthGBps));
  mix(std::hash<double>{}(options.device.computeGFlops));
  mix(std::hash<double>{}(options.device.syncLatencyUs));
  mix(std::hash<int>{}(options.threads));
  mix(std::hash<std::size_t>{}(options.fusionMaxOps));
  mix(std::hash<std::uint64_t>{}(options.parallelizeMask));
  return h;
}

Pipeline::Pipeline(PipelineKind kind, const ir::Graph& source,
                   const PipelineOptions& options)
    : kind_(kind),
      graph_(ir::cloneGraph(source)),
      profiler_(options.device, hostSpecFor(kind)),
      interpreter_(options.threads) {
  compileGraph(kind, *graph_, options);
  pricing_.device = options.device;
  pricing_.host = hostSpecFor(kind);
  // A pipeline must price every run it executes: no trip budget.
  pricing_.maxLoopTrip = std::numeric_limits<std::int64_t>::max();
}

std::vector<RtValue> Pipeline::run(std::span<const RtValue> inputs) {
  profiler_.reset();
  return runAccumulate(inputs);
}

std::vector<RtValue> Pipeline::runAccumulate(std::span<const RtValue> inputs) {
  const analysis::CostReport& cost = price(inputs);
  const std::int64_t unknownOps = cost.unknownOps;
  if (unknownOps == 0) {
    if (launchProbe_) {
      for (std::int64_t i = 0; i < cost.launches; ++i) launchProbe_();
    }
    profiler_.addRun(cost.launches, cost.bytes, cost.flops, cost.gpuUs,
                     cost.hostUs, cost.simUs, cost.perKernel);
  }
  // An unpriceable run usually fails here with the interpreter's own error.
  std::vector<RtValue> outs = interpreter_.run(*graph_, inputs);
  TSSA_CHECK(unknownOps == 0, "pipeline " << name() << ": the run succeeded "
                                  "but the cost walk left " << unknownOps
                                  << " ops unpriced");
  return outs;
}

const analysis::CostReport& Pipeline::price(std::span<const RtValue> inputs) {
  std::vector<std::int64_t> signature = signatureOf(inputs);
  for (const PricedRun& p : priced_)
    if (p.signature == signature) return p.cost;
  obs::TraceSpan span("pipeline", "price");
  PricedRun run{std::move(signature),
                analysis::estimateCost(*graph_, analysis::costInputs(inputs),
                                       pricing_)};
  if (priced_.size() < kPricedSignatures) {
    priced_.push_back(std::move(run));
    return priced_.back().cost;
  }
  PricedRun& slot = priced_[nextEvicted_];
  nextEvicted_ = (nextEvicted_ + 1) % kPricedSignatures;
  slot = std::move(run);
  return slot.cost;
}

}  // namespace tssa::runtime
