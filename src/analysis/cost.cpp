#include "src/analysis/cost.h"

#include "src/support/error.h"
#include "src/texpr/texpr.h"

namespace tssa::analysis {

using ir::Node;
using ir::OpKind;

std::vector<CostValue> costInputs(std::span<const runtime::RtValue> inputs) {
  std::vector<CostValue> out;
  out.reserve(inputs.size());
  for (const runtime::RtValue& v : inputs) {
    if (v.isTensor()) {
      out.push_back(
          CostValue::tensor(v.tensor().sizes(), v.tensor().dtype()));
    } else if (v.isScalar()) {
      out.push_back(CostValue::scalar(v.scalar()));
    } else {
      std::vector<TensorMeta> items;
      items.reserve(v.list().size());
      for (const Tensor& t : v.list())
        items.push_back(TensorMeta{t.sizes(), t.dtype()});
      out.push_back(CostValue::list(std::move(items)));
    }
  }
  return out;
}

std::vector<CostValue> bindSymbolic(
    std::span<const ir::Type> inputs,
    const std::map<std::string, std::int64_t>& extents,
    const std::map<std::size_t, Scalar>& scalarInputs) {
  std::vector<CostValue> out;
  out.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ir::Type& t = inputs[i];
    if (t.isTensor()) {
      TSSA_CHECK(t.hasDims(), "bindSymbolic: tensor input " << i
                                  << " carries no dims");
      Shape sizes;
      sizes.reserve(t.dims().size());
      for (const ir::Dim& d : t.dims()) {
        if (!d.symbolic()) {
          sizes.push_back(d.extent);
          continue;
        }
        auto it = extents.find(d.sym);
        TSSA_CHECK(it != extents.end(),
                   "bindSymbolic: unbound symbol '" << d.sym << "'");
        sizes.push_back(it->second + d.offset);
      }
      out.push_back(
          CostValue::tensor(std::move(sizes), t.dtype().value_or(DType::Float32)));
    } else if (auto it = scalarInputs.find(i); it != scalarInputs.end()) {
      out.push_back(CostValue::scalar(it->second));
    } else {
      out.push_back(CostValue::unknown());
    }
  }
  return out;
}

namespace {

/// The metadata walk. It owns no per-op rule — leaf ops go through
/// inferOutputs/chargeOf, FusionGroups through fusionGroupCharge — only the
/// abstract propagation of values through blocks, branches and loops.
class CostWalker {
 public:
  CostWalker(const CostOptions& opts, runtime::Profiler& profiler)
      : opts_(opts), sink_(&profiler) {}

  std::int64_t walk(const ir::Graph& graph,
                    std::span<const CostValue> inputs) {
    TSSA_CHECK(inputs.size() == graph.inputs().size(),
               "estimateCost: expected " << graph.inputs().size()
                                         << " inputs, got " << inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
      env_[graph.inputs()[i]] = inputs[i];
    walkBlock(*graph.topBlock());
    return unknownOps_;
  }

 private:
  const CostValue& get(const ir::Value* v) const {
    auto it = env_.find(v);
    TSSA_CHECK(it != env_.end(), "cost value %" << v->id() << " not bound");
    return it->second;
  }

  std::vector<Operand> operands(const Node& node) const {
    std::vector<Operand> in;
    in.reserve(node.numInputs());
    for (const ir::Value* v : node.inputs()) in.push_back(get(v).operand());
    return in;
  }

  std::vector<CostValue> blockReturns(const ir::Block& block) const {
    std::vector<CostValue> out;
    out.reserve(block.numReturns());
    for (const ir::Value* r : block.returns()) out.push_back(get(r));
    return out;
  }

  void bindOutputs(const Node& node, std::vector<CostValue> values) {
    for (std::size_t i = 0; i < values.size(); ++i)
      env_[node.output(i)] = std::move(values[i]);
  }

  void walkBlock(const ir::Block& block) {
    sink_.enterBlock(block);
    for (const Node* node : block) {
      try {
        walkNode(*node);
      } catch (const Error&) {
        // Unknown operands, out-of-metadata structure, shape mismatches:
        // the node's effect cannot be priced. Charges are always issued
        // after a node's metadata resolved, so a throwing node charged
        // nothing.
        ++unknownOps_;
        for (const ir::Value* out : node->outputs())
          env_[out] = CostValue::unknown();
      }
    }
  }

  /// Runs `body` once per iteration: param 0 is the induction variable, the
  /// rest carry `carried` from one iteration's returns to the next.
  void walkIterations(const ir::Block& body, std::int64_t trip,
                      std::vector<CostValue>& carried, bool perIteration) {
    TSSA_CHECK(trip <= opts_.maxLoopTrip, "loop trip beyond cost budget");
    for (std::int64_t it = 0; it < trip; ++it) {
      if (perIteration) {
        sink_.loopIteration();
      } else {
        sink_.beginIteration();
      }
      env_[body.param(0)] = CostValue::scalar(Scalar(it));
      for (std::size_t i = 0; i < carried.size(); ++i)
        env_[body.param(i + 1)] = std::move(carried[i]);
      walkBlock(body);
      carried = blockReturns(body);
    }
  }

  void walkNode(const Node& node) {
    switch (node.kind()) {
      case OpKind::If: {
        const bool cond = get(node.input(0)).scalarValue().toBool();
        sink_.branch();
        const ir::Block& block = *node.block(cond ? 0 : 1);
        walkBlock(block);
        bindOutputs(node, blockReturns(block));
        return;
      }
      case OpKind::Loop:
      case OpKind::ParallelMap: {
        const std::int64_t trip = get(node.input(0)).scalarValue().toInt();
        std::vector<CostValue> carried;
        for (std::size_t i = 1; i < node.numInputs(); ++i)
          carried.push_back(get(node.input(i)));
        if (node.kind() == OpKind::Loop) {
          walkIterations(*node.block(0), trip, carried, true);
        } else {
          // Always the serial-merge accounting: the threaded executor
          // merges per-worker slots into identical totals by construction.
          std::vector<ChargeSink::Slot> slots;
          {
            ChargeSink::MergeScope merge(sink_);
            walkIterations(*node.block(0), trip, carried, false);
            slots = sink_.takeSlots();
          }
          sink_.flushParallelMap(slots);
        }
        bindOutputs(node, std::move(carried));
        return;
      }
      case OpKind::FusionGroup:
        walkFusionGroup(node);
        return;
      default: {
        const std::vector<Operand> in = operands(node);
        std::vector<CostValue> out(node.numOutputs());
        inferOutputs(node, in, out);
        std::vector<Operand> outOps;
        outOps.reserve(out.size());
        for (const CostValue& v : out) outOps.push_back(v.operand());
        sink_.charge(node, chargeOf(node, in, outOps));
        bindOutputs(node, std::move(out));
        return;
      }
    }
  }

  void walkFusionGroup(const Node& node) {
    const ir::Block& body = *node.block(0);
    const std::vector<Operand> in = operands(node);
    for (std::size_t i = 0; i < node.numInputs(); ++i) {
      const CostValue& v = get(node.input(i));
      TSSA_CHECK(!v.isUnknown(), "fusion group input unknown");
      env_[body.param(i)] = v;
    }
    std::int64_t flops = 0;
    std::int64_t savedBytes = 0;
    std::vector<CostValue> rets;
    if (opts_.useTexpr && texpr::Kernel::supports(body)) {
      // Priced exactly as the interpreter charges a supported body, native
      // or interpreted.
      const texpr::Kernel::BodyMeta meta = texpr::Kernel::infer(body, in);
      flops = meta.stats.flops;
      savedBytes = meta.stats.savedBytes;
      for (const ir::Value* r : body.returns()) {
        auto it = meta.tensors.find(r);
        TSSA_CHECK(it != meta.tensors.end(), "fusion group return unknown");
        rets.push_back(CostValue::tensor(it->second));
      }
    } else {
      // Interpreted body: the suppress scope counts elementwise flops and
      // in-place savings; views/scalars inside still pay op dispatch.
      ChargeSink::SuppressScope suppress(sink_);
      walkBlock(body);
      flops = suppress.flops();
      savedBytes = suppress.savedBytes();
      rets = blockReturns(body);
      for (const CostValue& r : rets) {
        // Already counted as an unknown op inside the body.
        if (r.isUnknown()) {
          for (const ir::Value* out : node.outputs())
            env_[out] = CostValue::unknown();
          return;
        }
      }
    }
    std::vector<Operand> outOps;
    outOps.reserve(rets.size());
    for (const CostValue& r : rets) outOps.push_back(r.operand());
    sink_.charge(node, fusionGroupCharge(in, outOps, flops, savedBytes));
    bindOutputs(node, std::move(rets));
  }

  const CostOptions& opts_;
  ChargeSink sink_;
  std::unordered_map<const ir::Value*, CostValue> env_;
  std::int64_t unknownOps_ = 0;
};

}  // namespace

CostReport estimateCost(const ir::Graph& graph,
                        std::span<const CostValue> inputs,
                        const CostOptions& options) {
  runtime::Profiler profiler(options.device, options.host);
  CostReport r;
  r.unknownOps = CostWalker(options, profiler).walk(graph, inputs);
  r.launches = profiler.kernelLaunches();
  r.bytes = profiler.bytesMoved();
  r.flops = profiler.flops();
  r.gpuUs = profiler.gpuTimeUs();
  r.hostUs = profiler.hostTimeUs();
  r.simUs = profiler.simTimeUs();
  r.perKernel = profiler.kernelHistogram();
  return r;
}

}  // namespace tssa::analysis
