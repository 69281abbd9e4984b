// C++ code generation for fused element-expression DAGs.
//
// A texpr-supported FusionGroup body is lowered to a self-contained C++
// translation unit: one `static inline double v<slot>(...)` per body value
// (mirroring the interpreted body node for node, including the per-node
// dtype rounding that makes fused evaluation bitwise-equal to eager
// execution), plus one loop body per return. The loop comes in two forms — a generic
// coordinate walk that handles broadcasts, strided inputs, and Access/Assign
// index transforms, and a contiguous-innermost linear loop the host enables
// at run time when every input is contiguous and shape-equal to the output
// (the form the compiler auto-vectorizes).
//
// Specialization unit: (expression structure × input dtypes × ranks ×
// contiguity). Shapes stay runtime values — the generated code reads extents
// from a per-value shapes table the host rebuilds each run — so one compiled
// kernel serves every shape of a given structure (no compile storms under
// dynamic shapes). Everything the generator cannot express declines with a
// typed reason; the caller falls back to the interpreter (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/ir.h"

namespace tssa::texpr::codegen {

/// Why a fused body (or one specialization of it) is not JIT-compiled.
/// Ordered roughly by when the reason is discovered: Op and Dtype at
/// analysis time, Rank per input signature, Toolchain when the external
/// compile fails (reported by jit::KernelCache, not the generator).
enum class Decline {
  None = 0,
  Op,        ///< an op / view rule the generator does not lower
  Dtype,     ///< a dtype combination it does not lower (e.g. Bool arithmetic)
  Rank,      ///< a value's rank exceeds the generator's cap
  Toolchain, ///< runtime compilation of the generated source failed
};

/// Stable label ("op", "dtype", "rank", "toolchain") for metrics/tests.
std::string_view declineName(Decline reason);

/// Runtime facts about one body parameter that are baked into the generated
/// code (and into the kernel-cache key). Shapes are deliberately absent.
struct InputSig {
  bool isTensor = false;    ///< tensors feed element reads; scalars feed
                            ///< dynamic view operands (select index, bounds)
  DType dtype = DType::Float32;  ///< tensor params only
  int rank = 0;                  ///< tensor params only
  bool contiguous = false;       ///< tensor params only

  friend bool operator==(const InputSig&, const InputSig&) = default;
};

/// Host-side guard for a dynamic select index: the generated code cannot
/// throw, so the host validates `normalizeIndex(scalar, extent)` would
/// succeed before dispatching and falls back to the interpreter (which
/// raises the identical tssa::Error) when it would not.
struct SelectGuard {
  const ir::Value* indexParam = nullptr;  ///< scalar body param holding idx
  const ir::Value* base = nullptr;        ///< tensor whose dim is indexed
  std::int64_t dim = 0;                   ///< already normalized
};

/// Bound to one fused body; reusable across input signatures. The body must
/// satisfy texpr::Kernel::supports and outlive the generator.
class Generator {
 public:
  explicit Generator(const ir::Block& body);

  /// Signature-independent decline (unsupported op / view rule / attribute),
  /// decided at construction. Decline::None means "ask declineFor per sig".
  Decline structuralDecline() const { return structural_; }

  /// Full decline decision for one input signature (dtype combinations,
  /// rank cap, scalar-vs-tensor param mismatches). `sig` must have one entry
  /// per body parameter.
  Decline declineFor(std::span<const InputSig> sig) const;

  /// Cache key: structure fingerprint × the signature facts that change the
  /// generated source. Two bodies with identical structure share a key (and
  /// thus a compiled kernel) even across workloads.
  std::string cacheKey(std::span<const InputSig> sig) const;

  /// The complete C++ source of the kernel for `sig`. Precondition:
  /// declineFor(sig) == Decline::None.
  std::string emitSource(std::span<const InputSig> sig) const;

  /// Values with a slot in the generated shapes table, in slot order
  /// (parameters first, then node outputs). The host builds
  /// `const int64_t* shapes[numSlots()]` from the per-run inferred shapes.
  std::span<const ir::Value* const> slotValues() const { return values_; }
  std::size_t numSlots() const { return values_.size(); }

  /// True when the body is pure elementwise (no Access/Assign), i.e. the
  /// linear fast path exists structurally; the host still checks per run
  /// that inputs are contiguous and shape-equal to the output.
  bool fastPathEligible() const { return fastEligible_; }

  /// Select guards the host must validate before every dispatch.
  std::span<const SelectGuard> selectGuards() const { return guards_; }

 private:
  const ir::Block& body_;
  std::vector<const ir::Value*> values_;  ///< slot -> value
  std::unordered_map<const ir::Value*, int> slots_;  ///< value -> slot
  std::vector<SelectGuard> guards_;
  std::string structureKey_;
  Decline structural_ = Decline::None;
  bool fastEligible_ = false;

  int slotOf(const ir::Value* v) const;
  friend struct GeneratorTestPeer;
};

}  // namespace tssa::texpr::codegen
