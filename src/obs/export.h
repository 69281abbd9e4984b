// Bridges from the existing measurement sources into the unified
// MetricsRegistry namespace. The serve::Engine has its own exporter
// (Engine::exportMetrics) because its snapshot spans multiple profilers; the
// canonical metric names are shared — see DESIGN.md §9 for the table.
#pragma once

#include "src/obs/metrics.h"
#include "src/runtime/profiler.h"

namespace tssa::obs {

/// Exports one Profiler's counters under the canonical names:
///
///   tssa_kernel_launches_total            kernelLaunches()
///   tssa_kernel_invocations_total{kernel=...}   per-kernel histogram
///   tssa_bytes_moved_total                bytesMoved()
///   tssa_flops_total                      flops()
///   tssa_sim_time_us / tssa_host_time_us / tssa_gpu_time_us   (gauges)
///
/// Counter values are SET (not added): a Profiler reads the price of its
/// Pipeline's last run, so re-exporting after another run refreshes the
/// registry to that run's numbers.
void exportProfiler(const runtime::Profiler& profiler,
                    MetricsRegistry& registry);

}  // namespace tssa::obs
