// Tensor-expression backend: fused subgraphs as native code.
//
// This is the reproduction's stand-in for PyTorch NNC (the paper's codegen
// backend, §4.2.1). A tssa::FusionGroup body made of elementwise compute and
// immut::access / immut::assign operators is lowered to C++ (codegen.h),
// compiled and cached (jit.h), and dispatched through a C ABI: every output
// element is produced by one traversal that reads input elements through
// index transforms — no intermediate tensor is ever materialized, which is
// precisely the memory behaviour of a fused kernel.
//
// A Kernel is only the JIT host. It has no element semantics of its own:
// when a launch declines, the caller (runtime::Interpreter) runs the body
// node by node through tensor/ops.h, the reference the generated code is
// fuzzed against (DESIGN.md §11). Pricing does not depend on which path
// ran: `infer` derives a supported body's RunStats from its structure.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/op_rules.h"
#include "src/ir/ir.h"
#include "src/runtime/rt_value.h"

namespace tssa::texpr {

namespace codegen {
class Generator;
struct InputSig;
}
namespace jit {
class CompiledKernel;
}

/// The native-code host of one fusion-group body.
class Kernel {
 public:
  /// True when every operator in `body` can be expressed per-element
  /// (elementwise compute, Access/Assign with supported rules, constants):
  /// the bodies the JIT may lower and `infer` prices. Reductions, matmuls,
  /// cat, and assign-through-expand stay on the interpreter.
  static bool supports(const ir::Block& body);

  /// Binds `body` (does not take ownership; the IR must outlive the
  /// kernel). Runs lower the body to C++, compile it via jit::KernelCache,
  /// and dispatch through the C ABI. Honouring TSSA_TEXPR_JIT
  /// (jit::jitEnabled()) is the caller's job: construct no Kernel when it
  /// is off.
  explicit Kernel(const ir::Block& body);
  ~Kernel();

  /// Cost-model numbers of a run.
  struct RunStats {
    std::int64_t flops = 0;       ///< one per produced element per op
    std::int64_t savedBytes = 0;  ///< traffic saved by donated assigns
  };

  /// What a run over given inputs binds before dispatching: the shape/dtype
  /// of every tensor value of the body (params and node outputs), the scalar
  /// params, and the body's RunStats. Derived from the params' metadata
  /// alone through the shared op rules (src/analysis/op_rules.h); the
  /// interpreter and the cost model price supported FusionGroups with
  /// exactly this, whether or not native code ran.
  struct BodyMeta {
    std::unordered_map<const ir::Value*, analysis::TensorMeta> tensors;
    std::unordered_map<const ir::Value*, Scalar> scalars;
    RunStats stats;
  };
  /// One operand per body param. Throws tssa::Error when a rule rejects its
  /// operands (bad view, shape mismatch, unknown operand).
  static BodyMeta infer(const ir::Block& body,
                        std::span<const analysis::Operand> params);

  /// Runs the body as native code: one RtValue per body parameter, one
  /// tensor per body return. Tensor inputs may be views; scalar inputs feed
  /// dynamic view operands (select indices, slice bounds). Returns
  /// std::nullopt when the launch declines — a codegen or toolchain decline
  /// (counted in jit::KernelCache), or a select index the generated code
  /// cannot range-check — and the caller runs the body itself. `stats` is
  /// filled from `infer` either way.
  ///
  /// With `threads > 1` the element range of each output is split into
  /// static chunks on the shared runtime thread pool (every element is
  /// computed independently from read-only state, so the result is bitwise
  /// identical to the serial run at any thread count).
  std::optional<std::vector<runtime::RtValue>> run(
      std::span<const runtime::RtValue> inputs, RunStats* stats = nullptr,
      int threads = 1) const;

 private:
  /// The compiled kernel for signature `sig`, or null when the launch
  /// declines (the reason is counted in jit::KernelCache).
  std::shared_ptr<jit::CompiledKernel> compiled(
      std::span<const codegen::InputSig> sig) const;

  const ir::Block& body_;
  std::unique_ptr<codegen::Generator> gen_;
  /// Per-signature lookup memo (shared_ptr null = known failure). Guards
  /// concurrent run() calls on one Kernel; the global KernelCache guards
  /// cross-kernel sharing.
  mutable std::mutex jitMutex_;
  mutable std::unordered_map<std::string,
                             std::shared_ptr<jit::CompiledKernel>>
      jitMemo_;
};

}  // namespace tssa::texpr
