#include "src/analysis/cost.h"

#include <string>
#include <string_view>
#include <utility>

#include "src/support/error.h"

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

/// Prices charges into a CostReport under the options' device and host
/// models. Owns the two pieces of state a metadata walk needs beyond the
/// per-op rules: ParallelMap launch merging and the suppress scope of
/// interpreted FusionGroup bodies.
class ChargeSink {
 public:
  ChargeSink(const CostOptions& opts, CostReport& report)
      : device_(opts.device), host_(opts.host), report_(report) {}

  /// Records one op's charge. Inside a merge scope kernel j of the current
  /// iteration joins batched launch slot j and host work is not paid;
  /// inside a suppress scope kernels count only their flops.
  void charge(const Node& node, const Charge& c) {
    if (c.dispatch && mergeDepth_ == 0) hostOnly(host_.perOpUs);
    if (suppressDepth_ > 0) suppressSavedBytes_ += c.savedBytes;
    for (int i = 0; i < c.launches; ++i) kernel(node.kind(), c.bytes, c.flops);
    if (c.hostSyncs > 0 && mergeDepth_ == 0 && suppressDepth_ == 0)
      hostOnly(c.hostSyncs * device_.syncLatencyUs);
  }

  /// Host control-flow charges; free inside a merge scope.
  void loopIter() {
    if (mergeDepth_ == 0) hostOnly(host_.perLoopIterUs);
  }
  void branch() {
    if (mergeDepth_ == 0) hostOnly(host_.perIfUs);
  }
  /// Graph-break model: entering a block whose segment contains generated
  /// kernels costs one region call (guard checks, Python resume).
  void enterBlock(const ir::Block& block) {
    if (mergeDepth_ > 0 || suppressDepth_ > 0 || host_.perRegionCallUs <= 0)
      return;
    for (const Node* node : block) {
      if (node->kind() == OpKind::FusionGroup) {
        hostOnly(host_.perRegionCallUs);
        return;
      }
    }
  }

  /// One batched launch of a ParallelMap: the j-th kernel of every
  /// iteration, merged (a batched grid).
  struct Slot {
    std::string_view name;
    std::int64_t bytes = 0;
    std::int64_t flops = 0;
  };

  /// ParallelMap iterations: kernels charged inside merge into slots.
  class MergeScope {
   public:
    explicit MergeScope(ChargeSink& sink) : sink_(sink) {
      ++sink_.mergeDepth_;
    }
    ~MergeScope() { --sink_.mergeDepth_; }
    MergeScope(const MergeScope&) = delete;
    MergeScope& operator=(const MergeScope&) = delete;

   private:
    ChargeSink& sink_;
  };
  /// Starts an iteration: its first kernel joins slot 0 again.
  void beginIteration() { mergePos_ = 0; }
  /// Moves the accumulated slots out.
  std::vector<Slot> takeSlots() { return std::exchange(slots_, {}); }
  /// Records each slot as one `tssa::ParallelMap(<op>)` launch; nothing
  /// inside an enclosing merge scope.
  void flushParallelMap(std::span<const Slot> slots) {
    if (mergeDepth_ > 0) return;
    for (const Slot& slot : slots) {
      launch("tssa::ParallelMap(" + std::string(slot.name) + ")", slot.bytes,
             slot.flops);
    }
  }

  /// Interpreted FusionGroup body: kernels count flops (and donated
  /// assigns their savings) instead of launching; the group is charged as
  /// one kernel by its caller. Nests: the outer totals are restored.
  class SuppressScope {
   public:
    explicit SuppressScope(ChargeSink& sink)
        : sink_(sink),
          outerFlops_(sink.suppressFlops_),
          outerSaved_(sink.suppressSavedBytes_) {
      ++sink_.suppressDepth_;
      sink_.suppressFlops_ = 0;
      sink_.suppressSavedBytes_ = 0;
    }
    ~SuppressScope() {
      sink_.suppressFlops_ = outerFlops_;
      sink_.suppressSavedBytes_ = outerSaved_;
      --sink_.suppressDepth_;
    }
    SuppressScope(const SuppressScope&) = delete;
    SuppressScope& operator=(const SuppressScope&) = delete;

    std::int64_t flops() const { return sink_.suppressFlops_; }
    std::int64_t savedBytes() const { return sink_.suppressSavedBytes_; }

   private:
    ChargeSink& sink_;
    std::int64_t outerFlops_;
    std::int64_t outerSaved_;
  };

 private:
  void kernel(OpKind kind, std::int64_t bytes, std::int64_t flops) {
    if (suppressDepth_ > 0) {
      suppressFlops_ += flops;
      return;
    }
    if (mergeDepth_ > 0) {
      if (mergePos_ >= slots_.size())
        slots_.push_back(Slot{opName(kind), 0, 0});
      slots_[mergePos_].bytes += bytes;
      slots_[mergePos_].flops += flops;
      ++mergePos_;
      return;
    }
    launch(std::string(opName(kind)), bytes, flops);
  }

  /// A device kernel plus the host work that dispatched it.
  void launch(std::string name, std::int64_t bytes, std::int64_t flops) {
    const double k = device_.kernelTimeUs(bytes, flops);
    const double h = host_.perOpUs;
    ++report_.launches;
    report_.bytes += bytes;
    report_.flops += flops;
    report_.gpuUs += k;
    report_.hostUs += h;
    // Asynchronous dispatch pipelines host work under kernel execution;
    // Python-serialized dispatch pays both.
    report_.simUs += host_.serialDispatch ? k + h : (k > h ? k : h);
    report_.perKernel[std::move(name)] += 1;
  }

  /// Host-only work (op dispatch, control flow, syncs, region calls).
  void hostOnly(double us) {
    report_.hostUs += us;
    report_.simUs += us;
  }

  const runtime::DeviceSpec& device_;
  const runtime::HostSpec& host_;
  CostReport& report_;
  int mergeDepth_ = 0;
  std::size_t mergePos_ = 0;
  std::vector<Slot> slots_;
  int suppressDepth_ = 0;
  std::int64_t suppressFlops_ = 0;
  std::int64_t suppressSavedBytes_ = 0;
};

/// The metadata walk. It owns no per-op rule — leaf ops go through
/// inferOutputs/chargeOf, FusionGroups through fusionGroupCharge — only the
/// abstract propagation of values through blocks, branches and loops.
class CostWalker {
 public:
  CostWalker(const CostOptions& opts, CostReport& report)
      : opts_(opts), report_(report), sink_(opts, report) {}

  void walk(const ir::Graph& graph, std::span<const CostValue> inputs) {
    TSSA_CHECK(inputs.size() == graph.inputs().size(),
               "estimateCost: expected " << graph.inputs().size()
                                         << " inputs, got " << inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
      env_[graph.inputs()[i]] = inputs[i];
    walkBlock(*graph.topBlock());
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
        ++report_.unknownOps;
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
        sink_.loopIter();
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
          // One batched launch per kernel position, however the executor
          // schedules the iterations.
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
    if (pricesAsOneKernel(body)) {
      const FusedBody meta = inferFusedBody(body, in);
      flops = meta.flops;
      savedBytes = meta.savedBytes;
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
  CostReport& report_;
  ChargeSink sink_;
  std::unordered_map<const ir::Value*, CostValue> env_;
};

}  // namespace

CostReport estimateCost(const ir::Graph& graph,
                        std::span<const CostValue> inputs,
                        const CostOptions& options) {
  CostReport report;
  CostWalker(options, report).walk(graph, inputs);
  return report;
}

}  // namespace tssa::analysis
