// Autotuner win/loss bench (src/tune, DESIGN.md §15, ROADMAP item 5).
//
// Tunes every paper workload on the TensorSsa pipeline — the default priced
// once by the cost pass, then the measured shortlist — and emits one
// tssa-bench-v1 record per workload plus a summary record:
//
//   sim_us / extra.default_sim_us               analytic score of the default
//       heuristics, gated exactly against bench/baseline.json;
//   extra.installed_sim_us                      analytic score of the
//       installed config (above the default for a measured winner);
//   extra.tuned_ns / extra.default_ns           measured best-of-N ns/iter
//       of the installed config vs the default heuristics;
//   extra.tuned_win                             1 when a non-default config
//       was installed (i.e. it measured strictly faster than the default);
//   summary extra.tuned_wins                    count of winning workloads,
//       gated against check_bench.py's TUNED_WINS_FLOOR.
//
// The binary itself exits non-zero if the tuned program's outputs are not
// bitwise identical to the default program's — that would mean the tuner
// traded correctness for speed, and no record should paper over it.
// Wall-clock fields stay time_gated=false: the win/loss *counts* are the
// gated signal, the raw times are for trend inspection.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/runtime/pipeline.h"
#include "src/tune/tuner.h"
#include "src/workloads/workload.h"

namespace {

using namespace tssa;

const std::vector<std::string>& benchWorkloads() {
  static const std::vector<std::string> names = {
      "attention", "lstm", "nasrnn", "seq2seq",
      "fcos",      "ssd",  "yolact", "yolov3"};
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchFlags flags = bench::BenchFlags::parse(argc, argv);
  bench::BenchReport report("tune_search", flags);

  tune::TunerOptions tunerOpts;
  tunerOpts.measureReps = std::max(flags.reps, 3);
  tune::Autotuner tuner(tunerOpts);

  workloads::WorkloadConfig config;
  config.batch = 2;
  config.seqLen = 16;
  const runtime::PipelineOptions base;
  const tune::TunedConfig defaults = tune::TunedConfig::defaults(base);
  constexpr auto kind = runtime::PipelineKind::TensorSsa;

  std::printf("autotuner, TensorSsa pipeline (batch=%lld, seqLen=%lld)\n",
              static_cast<long long>(config.batch),
              static_cast<long long>(config.seqLen));
  std::printf("%-10s %12s %14s %14s %14s %5s  %s\n", "workload",
              "default_sim", "installed_sim", "default_ns", "tuned_ns", "win",
              "config");

  int wins = 0;
  bool failed = false;
  for (const std::string& name : benchWorkloads()) {
    const tune::TuneResult r = tuner.tune(name, config, kind, base);

    // Honesty check: the tuned program is the same program. Scheduling
    // knobs must not change a single output bit.
    const workloads::Workload w = workloads::buildWorkload(name, config);
    runtime::Pipeline defaultPipeline(kind, *w.graph, base);
    runtime::Pipeline tunedPipeline(kind, *w.graph,
                                    tuner.pipelineFor(name, kind, base));
    const auto expected = defaultPipeline.run(w.inputs);
    const auto got = tunedPipeline.run(w.inputs);
    if (!bench::outputsBitwiseEqual(expected, got)) {
      std::fprintf(stderr,
                   "FAIL %s: tuned outputs differ bitwise from default\n",
                   name.c_str());
      failed = true;
    }

    const bool win = !r.measurementFailed && !(r.config == defaults);
    if (win) ++wins;

    bench::BenchRecord rec;
    rec.name = "tune/" + name;
    rec.workload = name;
    rec.pipeline = std::string(runtime::pipelineName(kind));
    rec.simUs = r.defaultSimUs;
    rec.timeGated = false;  // win *counts* are gated, raw times are not
    rec.extra = {{"default_sim_us", r.defaultSimUs},
                 {"installed_sim_us", r.installedSimUs},
                 {"tuned_ns", r.tunedNsPerIter},
                 {"default_ns", r.defaultNsPerIter},
                 {"tuned_win", win ? 1.0 : 0.0},
                 {"unknown_ops", static_cast<double>(r.unknownOps)}};
    report.add(std::move(rec));

    std::printf("%-10s %11.1fus %13.1fus %13.0fns %13.0fns %5s  %s\n",
                name.c_str(), r.defaultSimUs, r.installedSimUs,
                r.defaultNsPerIter, r.tunedNsPerIter, win ? "yes" : "no",
                r.config.toString().c_str());
  }

  bench::BenchRecord summary;
  summary.name = "summary";
  summary.extra = {
      {"tuned_wins", static_cast<double>(wins)},
      {"workloads", static_cast<double>(benchWorkloads().size())}};
  report.add(std::move(summary));
  std::printf("\n%d of %zu workloads measured faster under a tuned config\n",
              wins, benchWorkloads().size());

  report.finish();
  return failed ? 1 : 0;
}
