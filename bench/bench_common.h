// Shared helpers for the figure-regeneration benchmarks.
//
// Every bench binary prints the rows of one paper figure from the simulated
// device model (see DESIGN.md §1: kernels are priced by a launch-overhead +
// roofline model; numerics really execute on the CPU tensor library), and
// additionally registers google-benchmark timers over the real executor.
//
// End-to-end latency composition (Fig. 5/7): the paper reports end-to-end
// inference where the NN backbone runs under TensorRT — identical across all
// compared systems — and the imperative tensor program is the compared
// region (the paper states the imperative part reaches up to 90% of
// end-to-end time). We model the backbone as a per-workload latency
//
//     backbone(batch) = eager_imperative(batch=1) * share
//                         * ((1 - slope) + slope * batch)
//
// where `share` is the backbone's fraction of the imperative region at
// batch 1 and `slope` controls how strongly it scales with batch
// (compute-heavy backbones scale ~linearly; detection heads with fixed
// input resolution amortize). These two constants per workload are the only
// free parameters of the reproduction and are listed in EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/runtime/pipeline.h"
#include "src/tensor/ops.h"
#include "src/workloads/workload.h"

/// Injected by bench/CMakeLists.txt from `git rev-parse`; every bench JSON
/// record carries it so a CI artifact can be traced back to its commit.
#ifndef TSSA_GIT_SHA
#define TSSA_GIT_SHA "unknown"
#endif

namespace tssa::bench {

struct SimResult {
  double imperativeUs = 0;   ///< modelled latency of the compared region
  std::int64_t launches = 0; ///< kernel launches in the compared region
  double hostUs = 0;
  double gpuUs = 0;
};

inline SimResult runSim(const workloads::Workload& w,
                        runtime::PipelineKind kind,
                        const runtime::DeviceSpec& device) {
  runtime::Pipeline pipeline(kind, *w.graph, device);
  pipeline.run(w.inputs);
  SimResult r;
  r.imperativeUs = pipeline.profiler().simTimeUs();
  r.launches = pipeline.profiler().kernelLaunches();
  r.hostUs = pipeline.profiler().hostTimeUs();
  r.gpuUs = pipeline.profiler().gpuTimeUs();
  return r;
}

struct BackboneParams {
  double share;  ///< backbone / imperative-eager at batch 1
  double slope;  ///< batch-scaling weight in [0, 1]
};

/// Per-workload backbone constants (see header comment).
inline BackboneParams backboneParams(const std::string& workload) {
  static const std::map<std::string, BackboneParams> table = {
      {"yolov3", {0.28, 0.20}},  {"ssd", {0.30, 0.00}},
      {"yolact", {0.21, 0.20}},  {"fcos", {0.35, 0.00}},
      {"nasrnn", {0.010, 0.20}}, {"lstm", {0.014, 0.20}},
      {"seq2seq", {1.20, 0.00}}, {"attention", {0.078, 0.20}},
  };
  return table.at(workload);
}

/// Modelled backbone latency for a workload at a batch size, given the
/// measured batch-1 eager imperative latency on the same device.
inline double backboneUs(const std::string& workload, double eagerBatch1Us,
                         std::int64_t batch) {
  const BackboneParams p = backboneParams(workload);
  return eagerBatch1Us * p.share *
         ((1.0 - p.slope) + p.slope * static_cast<double>(batch));
}

/// End-to-end latency = backbone + imperative region.
inline double endToEndUs(const std::string& workload, double eagerBatch1Us,
                         std::int64_t batch, double imperativeUs) {
  return backboneUs(workload, eagerBatch1Us, batch) + imperativeUs;
}

/// Best-of-`reps` wall-clock time of one pipeline run, in microseconds.
/// (Min, not mean: scheduling noise only ever adds time.)
inline double wallClockUs(runtime::Pipeline& pipeline,
                          std::span<const runtime::RtValue> inputs,
                          int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    auto out = pipeline.run(inputs);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return best;
}

/// Bitwise equality of two output vectors (tensor outputs only).
inline bool outputsBitwiseEqual(const std::vector<runtime::RtValue>& a,
                                const std::vector<runtime::RtValue>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].isTensor() != b[i].isTensor()) return false;
    if (!a[i].isTensor()) continue;
    const Tensor& x = a[i].tensor();
    const Tensor& y = b[i].tensor();
    if (x.sizes() != y.sizes() || x.dtype() != y.dtype()) return false;
    for (IndexIterator it(x.sizes()); it.valid(); it.next()) {
      if (x.scalarAt(it.index()) != y.scalarAt(it.index())) return false;
    }
  }
  return true;
}

/// Command-line flags shared by every fig bench. Parsed (and stripped) from
/// argv before benchmark::Initialize sees it, so google-benchmark's own flags
/// keep working alongside:
///
///   --threads=N        worker threads for threaded-executor comparisons
///   --reps=N           repetitions per wall-clock / google-benchmark timing
///   --pipeline=NAME    only run pipelines whose name contains NAME
///                      (case-insensitive; e.g. "tensorssa", "eager", "ts")
///   --json=PATH        write a machine-readable tssa-bench-v1 result file
///                      (consumed by scripts/check_bench.py in CI)
///   --trace=PATH       enable obs::Tracer and write a Chrome trace_event
///                      JSON of the whole run (open in Perfetto)
struct BenchFlags {
  int threads = 4;
  int reps = 3;
  std::string pipelineFilter;  ///< empty = all pipelines
  std::string jsonPath;        ///< empty = no JSON result file
  std::string tracePath;       ///< empty = tracing stays disabled

  /// True when `kind` passes the --pipeline filter.
  bool enabled(runtime::PipelineKind kind) const {
    if (pipelineFilter.empty()) return true;
    return lower(std::string(runtime::pipelineName(kind)))
               .find(lower(pipelineFilter)) != std::string::npos;
  }

  /// allPipelines() restricted to the --pipeline filter. Falls back to the
  /// full list when the filter matches nothing (a typo should not silently
  /// print empty figures).
  std::vector<runtime::PipelineKind> kinds() const {
    std::vector<runtime::PipelineKind> out;
    for (runtime::PipelineKind kind : runtime::allPipelines())
      if (enabled(kind)) out.push_back(kind);
    if (out.empty()) return runtime::allPipelines();
    return out;
  }

  /// Parses known flags out of argv, compacting it in place so later
  /// benchmark::Initialize(&argc, argv) only sees what it understands.
  static BenchFlags parse(int& argc, char** argv) {
    BenchFlags flags;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!consume(arg, "--threads=", flags.threads) &&
          !consume(arg, "--reps=", flags.reps) &&
          !consumeStr(arg, "--pipeline=", flags.pipelineFilter) &&
          !consumeStr(arg, "--json=", flags.jsonPath) &&
          !consumeStr(arg, "--trace=", flags.tracePath)) {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
    flags.threads = std::max(flags.threads, 1);
    flags.reps = std::max(flags.reps, 1);
    return flags;
  }

 private:
  static std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
  }
  static bool consume(const std::string& arg, const std::string& prefix,
                      int& out) {
    if (arg.rfind(prefix, 0) != 0) return false;
    out = std::atoi(arg.c_str() + prefix.size());
    return true;
  }
  static bool consumeStr(const std::string& arg, const std::string& prefix,
                         std::string& out) {
    if (arg.rfind(prefix, 0) != 0) return false;
    out = arg.substr(prefix.size());
    return true;
  }
};

/// One measurement in the tssa-bench-v1 schema. Fields < 0 mean "not
/// measured by this bench" and are omitted from the JSON. `timeGated`
/// marks ns_per_iter as stable enough for the CI regression gate (wall-clock
/// best-of-N over the real executor); ungated times are recorded for trend
/// inspection only. Kernel-launch counts are deterministic and always gated
/// exactly when present.
struct BenchRecord {
  std::string name;      ///< unique within the binary, e.g. "wallclock/lstm/serial"
  std::string workload;
  std::string pipeline;
  double nsPerIter = -1;
  double simUs = -1;
  std::int64_t kernelLaunches = -1;
  bool timeGated = false;
  std::vector<std::pair<std::string, double>> extra;  ///< bench-specific scalars
};

/// Best-of-3 time of a fixed arithmetic loop, in nanoseconds. Written into
/// every result file so scripts/check_bench.py can compare wall-clock times
/// across machines: a CI runner half as fast as the baseline machine shows
/// ~2x calib_ns, and gated times are normalized by the ratio.
inline double calibrateNs() {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    double acc = 1.0;
    for (int i = 0; i < 2000000; ++i) acc = acc * 1.0000000001 + 1e-12;
    const auto t1 = std::chrono::steady_clock::now();
    // Fold the result into the timing decision so the loop cannot be
    // dead-code-eliminated.
    double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (acc < 0) ns += 1;
    best = std::min(best, ns);
  }
  return best;
}

/// Collects BenchRecords and, at finish(), writes the --json result file
/// and/or the --trace Chrome trace. Constructing the report enables the
/// tracer when --trace was given, so it must be created before the measured
/// work runs. With neither flag set, everything here is a no-op.
class BenchReport {
 public:
  BenchReport(std::string binary, const BenchFlags& flags)
      : binary_(std::move(binary)), flags_(flags) {
    if (!flags_.tracePath.empty()) {
      obs::Tracer::instance().enable();
      obs::Tracer::instance().clear();
    }
  }

  void add(BenchRecord record) { records_.push_back(std::move(record)); }

  /// Writes the artifacts. Call once, at the end of main.
  void finish() const {
    if (!flags_.tracePath.empty()) {
      obs::Tracer& tracer = obs::Tracer::instance();
      tracer.writeChromeTrace(flags_.tracePath);
      std::fprintf(stderr, "wrote %zu trace spans to %s\n",
                   tracer.spanCount(), flags_.tracePath.c_str());
    }
    if (flags_.jsonPath.empty()) return;
    std::FILE* f = std::fopen(flags_.jsonPath.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   flags_.jsonPath.c_str());
      return;
    }
    std::fputs(toJson().c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %zu bench records to %s\n", records_.size(),
                 flags_.jsonPath.c_str());
  }

  std::string toJson() const {
    std::string out;
    out += "{\n  \"schema\": \"tssa-bench-v1\",\n";
    out += "  \"binary\": " + obs::jsonQuote(binary_) + ",\n";
    out += "  \"git_sha\": " + obs::jsonQuote(TSSA_GIT_SHA) + ",\n";
    out += "  \"threads\": " +
           obs::jsonNumber(static_cast<std::int64_t>(flags_.threads)) + ",\n";
    out += "  \"reps\": " +
           obs::jsonNumber(static_cast<std::int64_t>(flags_.reps)) + ",\n";
    out += "  \"calib_ns\": " + obs::jsonNumber(calibrateNs()) + ",\n";
    // Which copy of the tensor kernels ran (src/tensor/ops.h), so a time
    // compared across machines says whether the instruction set changed.
    out += "  \"isa\": " + obs::jsonQuote(ops::kernelIsa()) + ",\n";
    out += "  \"results\": [";
    bool firstRecord = true;
    for (const BenchRecord& r : records_) {
      out += firstRecord ? "\n" : ",\n";
      firstRecord = false;
      out += "    {\"name\": " + obs::jsonQuote(r.name);
      out += ", \"workload\": " + obs::jsonQuote(r.workload);
      out += ", \"pipeline\": " + obs::jsonQuote(r.pipeline);
      out += std::string(", \"time_gated\": ") +
             (r.timeGated ? "true" : "false");
      if (r.nsPerIter >= 0)
        out += ", \"ns_per_iter\": " + obs::jsonNumber(r.nsPerIter);
      if (r.simUs >= 0) out += ", \"sim_us\": " + obs::jsonNumber(r.simUs);
      if (r.kernelLaunches >= 0)
        out += ", \"kernel_launches\": " + obs::jsonNumber(r.kernelLaunches);
      if (!r.extra.empty()) {
        out += ", \"extra\": {";
        bool firstExtra = true;
        for (const auto& [key, value] : r.extra) {
          if (!firstExtra) out += ", ";
          firstExtra = false;
          out += obs::jsonQuote(key) + ": " + obs::jsonNumber(value);
        }
        out += "}";
      }
      out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
  }

 private:
  std::string binary_;
  BenchFlags flags_;
  std::vector<BenchRecord> records_;
};

inline double geomean(const std::vector<double>& xs) {
  double acc = 0;
  for (double x : xs) acc += std::log(x);
  return std::exp(acc / static_cast<double>(xs.size()));
}

inline void printRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace tssa::bench
