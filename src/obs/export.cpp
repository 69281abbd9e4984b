#include "src/obs/export.h"

namespace tssa::obs {

void exportProfiler(const runtime::Profiler& profiler,
                    MetricsRegistry& registry) {
  registry.counterSet("tssa_kernel_launches_total",
                      profiler.kernelLaunches());
  registry.counterSet("tssa_bytes_moved_total", profiler.bytesMoved());
  registry.counterSet("tssa_flops_total", profiler.flops());
  registry.gaugeSet("tssa_sim_time_us", profiler.simTimeUs());
  registry.gaugeSet("tssa_host_time_us", profiler.hostTimeUs());
  registry.gaugeSet("tssa_gpu_time_us", profiler.gpuTimeUs());

  for (const auto& [kernel, count] : profiler.kernelHistogram()) {
    registry.counterSet(
        "tssa_kernel_invocations_total{kernel=" + promLabelValue(kernel) +
            "}",
        count);
  }
}

}  // namespace tssa::obs
