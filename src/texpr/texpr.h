// Tensor-expression backend: single-pass evaluation of fused subgraphs.
//
// This is the reproduction's stand-in for PyTorch NNC (the paper's codegen
// backend, §4.2.1). A tssa::FusionGroup body made of elementwise compute and
// immut::access / immut::assign operators is compiled to a per-element
// expression DAG: every output element is produced by one traversal that
// reads input elements through index transforms — no intermediate tensor is
// ever materialized, which is precisely the memory behaviour of a fused
// kernel. The runtime uses it to execute fusion groups; tests cross-check it
// element-for-element against the reference interpreter.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/op_rules.h"
#include "src/ir/ir.h"
#include "src/runtime/rt_value.h"

namespace tssa::texpr {

namespace codegen {
class Generator;
}
namespace jit {
class CompiledKernel;
}

/// A compiled fusion-group body.
class Kernel {
 public:
  /// True when every operator in `body` can be expressed per-element
  /// (elementwise compute, Access/Assign with supported rules, constants).
  /// Reductions, matmuls, cat, and assign-through-expand fall back to the
  /// interpreter.
  static bool supports(const ir::Block& body);

  /// Compiles `body` (does not take ownership; the IR must outlive the
  /// kernel). With `allowJit` (and TSSA_TEXPR_JIT not set to 0), runs try
  /// the native code path first: the body is lowered to C++, compiled via
  /// jit::KernelCache, and dispatched through the C ABI; any decline falls
  /// back to the tree-walking interpreter below, bitwise-identically.
  explicit Kernel(const ir::Block& body, bool allowJit = true);
  ~Kernel();

  /// Cost-model numbers observed during a run.
  struct RunStats {
    std::int64_t flops = 0;       ///< one per produced element per op
    std::int64_t savedBytes = 0;  ///< traffic saved by donated assigns
  };

  /// What a run over given inputs binds before evaluating anything: the
  /// shape/dtype of every tensor value of the body (params and node
  /// outputs), the scalar params, and the RunStats the run reports. Derived
  /// from the params' metadata alone through the shared op rules
  /// (src/analysis/op_rules.h); the cost model prices texpr-backed
  /// FusionGroups with exactly this.
  struct BodyMeta {
    std::unordered_map<const ir::Value*, analysis::TensorMeta> tensors;
    std::unordered_map<const ir::Value*, Scalar> scalars;
    RunStats stats;
  };
  /// One operand per body param. Throws tssa::Error when a rule rejects its
  /// operands (bad view, shape mismatch, unknown operand).
  static BodyMeta infer(const ir::Block& body,
                        std::span<const analysis::Operand> params);

  /// Executes: one RtValue per body parameter, returns one tensor per body
  /// return. Tensor inputs may be views; scalar inputs feed dynamic view
  /// operands (select indices, slice bounds).
  ///
  /// With `threads > 1` the per-element loop of each output is split into
  /// static chunks on the shared runtime thread pool (every element is
  /// computed independently from read-only state, so the result — and the
  /// reported RunStats, which derive from shapes alone — is bitwise
  /// identical to the serial run at any thread count).
  std::vector<runtime::RtValue> run(std::span<const runtime::RtValue> inputs,
                                    RunStats* stats = nullptr,
                                    int threads = 1) const;

  struct Binding;  // per-run input tensors and their BodyMeta

 private:
  /// Evaluates the scalar element of `v` at output coordinate `coord`
  /// (a coordinate in v's own shape).
  double evalAt(const ir::Value* v, std::span<const std::int64_t> coord,
                const Binding& b) const;

  /// Native-code dispatch. Returns true and fills `outputs` when a compiled
  /// kernel ran; false when this launch declines to the interpreter (the
  /// reason is counted in jit::KernelCache).
  bool tryRunJit(std::span<const runtime::RtValue> inputs, const Binding& b,
                 std::vector<runtime::RtValue>& outputs, int threads) const;

  const ir::Block& body_;
  std::unique_ptr<codegen::Generator> gen_;  ///< null when JIT is off
  /// Per-signature lookup memo (shared_ptr null = known failure). Guards
  /// concurrent run() calls on one Kernel; the global KernelCache guards
  /// cross-kernel sharing.
  mutable std::mutex jitMutex_;
  mutable std::unordered_map<std::string,
                             std::shared_ptr<jit::CompiledKernel>>
      jitMemo_;
};

}  // namespace tssa::texpr
