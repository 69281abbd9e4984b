// The eight evaluation workloads of the paper (§5.1), expressed as
// imperative graph-level IR programs: the post-processing stages of four CV
// models (YOLOv3, SSD, YOLACT, FCOS), three NLP cells/loops (LSTM, NASRNN,
// seq2seq), and an attention module. Exactly like the paper's setting, these
// are the *imperative tensor program* parts — the NN backbones (handled by
// TensorRT in the paper) are out of scope for all compared systems alike.
//
// Sizes are scaled down from production models so the CPU-based reference
// interpreter stays fast; shapes and operator mixes (views + in-place
// mutation inside control flow) are preserved, which is what the compared
// optimizations act on.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/runtime/rt_value.h"

namespace tssa::workloads {

struct WorkloadConfig {
  std::int64_t batch = 1;
  std::int64_t seqLen = 64;   ///< used by the NLP / attention workloads
  std::uint64_t seed = 42;
  /// Build the graph shape-polymorphically: input types carry symbolic dims
  /// (B, T, C — see workloadSymbolicPattern), factory/view extents along
  /// those axes are bound from the inputs at run time (aten::size + the
  /// builders' dynamic-size overloads), and loop trip counts are read off
  /// the inputs instead of baked as constants. `batch`/`seqLen` then only
  /// size the sample inputs; one compiled program serves every shape that
  /// matches the pattern.
  bool symbolicDims = false;
};

/// Hidden width of the decode_step workload (and therefore of every decode
/// session's token vectors): fixed, like attention's head dim, so the shape
/// axes that matter for specialization are batch and context length only.
inline constexpr std::int64_t kDecodeDim = 32;

/// How a workload's runtime interface maps onto its batch dimension. Every
/// builder fills this in; the serving engine (src/serve) uses it to coalesce
/// same-shape requests into one execution and to split the results back up.
struct BatchTraits {
  /// Per graph input: the dimension along which independent requests
  /// concatenate, or -1 for shared (non-batched) inputs — scalars such as
  /// yolact's `num_dets` or fcos's `normalize` flag, which must be equal
  /// across coalesced requests.
  std::vector<int> inputDims;
  /// Per graph output: the dimension along which per-request results are
  /// laid out, or -1 when an output cannot be attributed to requests.
  std::vector<int> outputDims;

  /// A workload can be micro-batched when every output can be de-interleaved
  /// and at least one input actually carries the batch.
  bool batchable() const {
    if (inputDims.empty() || outputDims.empty()) return false;
    bool anyBatchedInput = false;
    for (int d : inputDims) anyBatchedInput |= d >= 0;
    for (int d : outputDims)
      if (d < 0) return false;
    return anyBatchedInput;
  }
};

struct Workload {
  std::string name;
  std::string description;
  std::unique_ptr<ir::Graph> graph;
  std::vector<runtime::RtValue> inputs;
  BatchTraits batchTraits;
};

/// Workload names in the order the paper's figures list them. The serving-
/// only "decode_step" workload (src/workloads/decode.cpp) is deliberately
/// not listed: it is not one of the paper's figure workloads and is driven
/// through the decode scheduler (src/serve/decode.h) instead.
const std::vector<std::string>& workloadNames();

/// Batch traits of a workload, available without building its graph (the
/// serving engine consults this on every submit). Builders fill
/// `Workload::batchTraits` from the same table. Throws on unknown names.
const BatchTraits& workloadBatchTraits(const std::string& name);

/// The symbolic input interface of a workload: one type per graph input —
/// tensor types carry symbolic dims (`f32[B,T,32]`), scalar inputs keep
/// their scalar type — plus the printed polymorphic signature: each input's
/// dtype and dims, `;`-separated, e.g. "f32[B,T,32];f32[B,32];i64". This is exactly what the builder stamps on the
/// graph inputs when `config.symbolicDims` is set (asserted by tests), and
/// the serving engine's specialization unit: every input tuple that
/// instantiates the pattern shares one cached program.
struct SymbolicPattern {
  std::vector<ir::Type> inputs;
  std::string signature;
};

/// Symbolic pattern of a workload, available without building its graph.
/// Throws on unknown names.
const SymbolicPattern& workloadSymbolicPattern(const std::string& name);

/// True when `inputs` concretely instantiate `pattern`: same arity, tensor
/// ranks/dtypes/static extents match exactly, scalar inputs have the right
/// scalar type, and every symbol binds consistently across its occurrences
/// (with each binding >= 1). This is the serving engine's admission guard:
/// a request whose inputs fail it is refused, so every cached program only
/// ever sees inputs its pattern admits.
bool matchesSymbolicPattern(const SymbolicPattern& pattern,
                            std::span<const runtime::RtValue> inputs);

/// Builds a workload by name; throws on unknown names.
Workload buildWorkload(const std::string& name, const WorkloadConfig& config);

// Individual builders.
Workload buildYolov3(const WorkloadConfig& config);
Workload buildSsd(const WorkloadConfig& config);
Workload buildYolact(const WorkloadConfig& config);
Workload buildFcos(const WorkloadConfig& config);
Workload buildNasRnn(const WorkloadConfig& config);
Workload buildLstm(const WorkloadConfig& config);
Workload buildSeq2Seq(const WorkloadConfig& config);
Workload buildAttention(const WorkloadConfig& config);
/// One autoregressive decode step (serving-only; `seqLen` is the context
/// bucket). Inputs: x[b,d], kctx[b,ctx,d], vctx[b,ctx,d], mask[b,ctx+1];
/// outputs: next token state, and the step's K/V rows for the cache.
Workload buildDecodeStep(const WorkloadConfig& config);

}  // namespace tssa::workloads
