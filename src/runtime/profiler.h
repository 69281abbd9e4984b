// Execution profiler: a read view of the price of a Pipeline's last run.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "src/analysis/cost.h"

namespace tssa::runtime {

/// The two metrics the paper reports — kernel launches (Fig. 6) and modelled
/// latency (Figs. 5/7/8) — for the last run of a runtime::Pipeline. It holds
/// no numbers of its own: it reads the analysis::CostReport the cost walk
/// (src/analysis/cost.h) priced that run at, which the Pipeline memoizes.
/// Before the first run, and after a run that failed before executing, every
/// number reads zero.
class Profiler {
 public:
  std::int64_t kernelLaunches() const { return report().launches; }
  std::int64_t bytesMoved() const { return report().bytes; }
  std::int64_t flops() const { return report().flops; }
  /// Pure device busy time.
  double gpuTimeUs() const { return report().gpuUs; }
  /// Pure host (framework) time.
  double hostTimeUs() const { return report().hostUs; }
  /// Modelled end-to-end latency.
  double simTimeUs() const { return report().simUs; }
  /// Launches per kernel name; valid until the Pipeline's next run.
  const std::map<std::string, std::int64_t>& kernelHistogram() const {
    return report().perKernel;
  }

  /// Always zero; kept only because perfbench/perfbench.cpp reads it.
  struct MemoryCounters {
    std::int64_t freshAllocs = 0;
    std::int64_t reusedAllocs = 0;
  };
  MemoryCounters memoryCounters() const { return {}; }

 private:
  friend class Pipeline;

  const analysis::CostReport& report() const {
    static const analysis::CostReport kNone;
    return report_ != nullptr ? *report_ : kNone;
  }

  const analysis::CostReport* report_ = nullptr;
};

}  // namespace tssa::runtime
