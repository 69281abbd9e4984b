// Vertical kernel fusion (paper §4.2.1).
//
// Groups runs of element-level operators into tssa::FusionGroup nodes, each
// of which the runtime executes (and prices) as a single kernel. The fusion
// *policy* models the capability envelope of each compared system:
//
//   * TorchScript+NNC     : elementwise chains only; views, mutations and
//                           immut ops are fusion breakers.
//   * TorchScript+nvFuser : + ternary selects and a trailing reduction.
//   * TorchInductor       : + Access/Assign inside a traced region.
//   * TensorSSA (ours)    : + Access/Assign everywhere — after
//                           functionalization there is nothing left to break
//                           the fuser (the point of the paper).
#pragma once

#include <cstddef>

#include "src/ir/ir.h"

namespace tssa::core {

struct FusionPolicy {
  bool fuseTernary = true;        ///< aten::where / masked_fill
  bool fuseAccessAssign = true;   ///< immut::access / immut::assign
  bool reductionTail = false;     ///< allow one trailing reduction per group
  bool fuseReductions = false;    ///< reductions as full members (TE codegen)
  bool fuseShapeOps = false;      ///< cat/stack codegen (Inductor-style)
  /// Cap on ops per group: a run is flushed when it reaches this size, so
  /// longer chains split into several groups. 0 = unlimited (the historical
  /// behaviour and every preset's default); the autotuner (src/tune) measures
  /// small caps, which can run faster on the host.
  std::size_t maxKernelOps = 0;

  static FusionPolicy nnc() { return {false, false, false, false, false}; }
  static FusionPolicy nvfuser() { return {true, false, true, false, false}; }
  static FusionPolicy inductor() { return {true, true, true, true, true}; }
  static FusionPolicy tensorssa() { return {true, true, true, true, false}; }
};

/// Hoists prim::Constant nodes to the top of their blocks so that constant
/// materialization never interrupts a fusable run. Returns count moved.
std::size_t hoistConstants(ir::Graph& graph);

/// Fuses maximal contiguous runs of policy-fusable nodes in every block
/// (including loop/branch bodies). Returns the number of groups created.
std::size_t fuseKernels(ir::Graph& graph, const FusionPolicy& policy);

/// Converts read-only views (views of storage that is never mutated) into
/// immut::access when every consumer is policy-fusable (or another converted
/// view), so they can join fusion groups as index transforms instead of
/// breaking them. Run after convertToTensorSSA and before fuseKernels.
/// Returns the number converted.
std::size_t readonlyViewsToAccess(ir::Graph& graph,
                                  const FusionPolicy& policy);

}  // namespace tssa::core
