// Ablation: which part of TensorSSA buys what (§4.2 of the paper).
//
// Variants, applied cumulatively on top of the TorchScript VM host model:
//   baseline-fusion : no functionalization; NNC-style pointwise fusion only
//   +functionalize  : TensorSSA conversion (Algorithm 1), no new fusion scope
//   +vertical       : fusion may now cross former view/mutation points
//   +horizontal     : independent loops batched into ParallelMap
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/analysis/cost.h"
#include "src/core/dce.h"
#include "src/core/fusion.h"
#include "src/core/inplace_reuse.h"
#include "src/core/lower_inplace.h"
#include "src/core/parallelize.h"
#include "src/core/tensor_ssa.h"
#include "src/ir/verifier.h"

namespace {

using namespace tssa;

enum class Variant {
  BaselineFusion,
  Functionalize,
  Vertical,
  Horizontal,
};

const char* variantName(Variant v) {
  switch (v) {
    case Variant::BaselineFusion: return "baseline-fusion";
    case Variant::Functionalize: return "+functionalize";
    case Variant::Vertical: return "+vertical";
    case Variant::Horizontal: return "+horizontal";
  }
  return "?";
}

std::unique_ptr<ir::Graph> compileVariant(const ir::Graph& source,
                                          Variant variant) {
  auto graph = ir::cloneGraph(source);
  switch (variant) {
    case Variant::BaselineFusion:
      core::hoistConstants(*graph);
      core::fuseKernels(*graph, core::FusionPolicy::nnc());
      break;
    case Variant::Functionalize:
      core::lowerInplaceOps(*graph);
      core::convertToTensorSSA(*graph);
      core::hoistConstants(*graph);
      core::fuseKernels(*graph, core::FusionPolicy::nnc());
      break;
    case Variant::Vertical:
      core::lowerInplaceOps(*graph);
      core::convertToTensorSSA(*graph);
      core::readonlyViewsToAccess(*graph, core::FusionPolicy::tensorssa());
      core::hoistConstants(*graph);
      core::fuseKernels(*graph, core::FusionPolicy::tensorssa());
      core::markInplaceAssigns(*graph);
      break;
    case Variant::Horizontal:
      core::lowerInplaceOps(*graph);
      core::convertToTensorSSA(*graph);
      core::readonlyViewsToAccess(*graph, core::FusionPolicy::tensorssa());
      core::parallelizeLoops(*graph);
      core::hoistConstants(*graph);
      core::fuseKernels(*graph, core::FusionPolicy::tensorssa());
      core::markInplaceAssigns(*graph);
      break;
  }
  core::eliminateDeadCode(*graph);
  ir::verify(*graph);
  return graph;
}

void printAblation() {
  std::printf("\n=== Ablation: simulated latency (us, imperative region, "
              "data-center) ===\n");
  std::printf("%-10s %16s %16s %16s %16s\n", "workload", "baseline-fusion",
              "+functionalize", "+vertical", "+horizontal");
  tssa::bench::printRule(10 + 17 * 4);

  const std::vector<Variant> variants = {
      Variant::BaselineFusion, Variant::Functionalize, Variant::Vertical,
      Variant::Horizontal};
  workloads::WorkloadConfig config;
  config.batch = 1;
  config.seqLen = 64;
  for (const std::string& name : workloads::workloadNames()) {
    workloads::Workload w = workloads::buildWorkload(name, config);
    std::printf("%-10s", name.c_str());
    for (Variant v : variants) {
      auto graph = compileVariant(*w.graph, v);
      // Defaults: data-center device, TorchScript VM host.
      const analysis::CostReport cost =
          analysis::estimateCost(*graph, analysis::costInputs(w.inputs));
      std::printf(" %13.1fus", cost.simUs);
    }
    std::printf("\n");
  }
  std::printf(
      "(each column adds one TensorSSA stage. Note that +functionalize alone "
      "is SLOWER than the baseline:\n materializing Access copies costs "
      "kernels until the widened fusion scope absorbs them — \n "
      "functionalization and fusion only pay off together, which is the "
      "paper's core argument.)\n");
}

void BM_CompileVariant(benchmark::State& state, std::string workload,
                       Variant variant) {
  workloads::WorkloadConfig config;
  config.seqLen = 32;
  workloads::Workload w = workloads::buildWorkload(workload, config);
  for (auto _ : state) {
    auto graph = compileVariant(*w.graph, variant);
    benchmark::DoNotOptimize(graph);
  }
}

}  // namespace

int main(int argc, char** argv) {
  printAblation();
  // Compile-time cost of the full TensorSSA pipeline (it is a compiler;
  // compile latency matters for deployment).
  for (const std::string& name : {std::string("yolact"), std::string("lstm")}) {
    benchmark::RegisterBenchmark(
        ("compile/" + name + "/full").c_str(),
        [name](benchmark::State& s) {
          BM_CompileVariant(s, name, Variant::Horizontal);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(5);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
