#include "src/workloads/workload.h"

#include <map>
#include <sstream>

#include "src/support/error.h"

namespace tssa::workloads {

const BatchTraits& workloadBatchTraits(const std::string& name) {
  // All workloads batch along dim 0 of every tensor input/output; -1 marks
  // shared scalar inputs (coalesced requests must agree on their values).
  static const std::map<std::string, BatchTraits> table = {
      {"yolov3", {{0, 0, 0}, {0, 0}}},
      {"ssd", {{0, 0}, {0, 0, 0}}},
      {"yolact", {{0, 0, -1}, {0}}},
      {"fcos", {{0, 0, 0, 0, 0, 0, 0, 0, 0, -1}, {0, 0, 0}}},
      {"nasrnn", {{0, 0}, {0, 0}}},
      {"lstm", {{0, 0, 0}, {0, 0, 0}}},
      {"seq2seq", {{0, 0}, {0, 0}}},
      {"attention", {{0, 0, 0}, {0}}},
      // Serving-only decode step (not a figure workload, see workloadNames).
      {"decode_step", {{0, 0, 0, 0}, {0, 0, 0}}},
  };
  auto it = table.find(name);
  if (it == table.end()) TSSA_THROW("unknown workload '" << name << "'");
  return it->second;
}

namespace {

std::string patternSignature(const std::vector<ir::Type>& inputs) {
  std::ostringstream os;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (i) os << ";";
    const ir::Type& t = inputs[i];
    if (t.isTensor()) {
      os << dtypeName(*t.dtype()) << "[";
      for (std::size_t d = 0; d < t.dims().size(); ++d)
        os << (d ? "," : "") << t.dims()[d].toString();
      os << "]";
    } else if (t.kind() == ir::TypeKind::Int) {
      os << dtypeName(DType::Int64);
    } else if (t.kind() == ir::TypeKind::Bool) {
      os << dtypeName(DType::Bool);
    } else {
      TSSA_THROW("unsupported pattern input type " << t.toString());
    }
  }
  return os.str();
}

SymbolicPattern pattern(std::vector<ir::Type> inputs) {
  SymbolicPattern p;
  p.signature = patternSignature(inputs);
  p.inputs = std::move(inputs);
  return p;
}

std::map<std::string, SymbolicPattern> makeSymbolicPatterns() {
  using ir::Dim;
  using ir::Type;
  auto T = [](std::vector<Dim> dims) {
    return Type::tensor(DType::Float32, std::move(dims));
  };
  const Dim B = Dim::symbol("B");   // batch
  const Dim S = Dim::symbol("T");   // sequence length
  const Dim C = Dim::symbol("C");   // decode context length

  std::map<std::string, SymbolicPattern> out;
  out.emplace("yolov3", pattern({T({B, 3, 16, 16, 21}), T({B, 3, 8, 8, 21}),
                                 T({B, 3, 4, 4, 21})}));
  out.emplace("ssd", pattern({T({B, 6144, 4}), T({B, 6144, 21})}));
  out.emplace("yolact",
              pattern({T({B, 16, 8}), T({B, 16, 4}), Type::integer()}));
  out.emplace("fcos",
              pattern({T({B, 4096, 32}), T({B, 4096, 1}), T({B, 4096, 4}),
                       T({B, 1024, 32}), T({B, 1024, 1}), T({B, 1024, 4}),
                       T({B, 256, 32}), T({B, 256, 1}), T({B, 256, 4}),
                       Type::boolean()}));
  out.emplace("nasrnn", pattern({T({B, S, 256}), T({B, 32})}));
  out.emplace("lstm", pattern({T({B, S, 128}), T({B, 32}), T({B, 32})}));
  out.emplace("seq2seq", pattern({T({B, S, 32}), T({B, 32})}));
  out.emplace("attention",
              pattern({T({B, S, 32}), T({B, S, 32}), T({B, S, 32})}));
  out.emplace("decode_step",
              pattern({T({B, 32}), T({B, C, 32}), T({B, C, 32}),
                       T({B, Dim::symbol("C", 1)})}));
  return out;
}

}  // namespace

const SymbolicPattern& workloadSymbolicPattern(const std::string& name) {
  static const std::map<std::string, SymbolicPattern> table =
      makeSymbolicPatterns();
  auto it = table.find(name);
  if (it == table.end()) TSSA_THROW("unknown workload '" << name << "'");
  return it->second;
}

bool matchesSymbolicPattern(const SymbolicPattern& pattern,
                            std::span<const runtime::RtValue> inputs) {
  if (inputs.size() != pattern.inputs.size()) return false;
  std::map<std::string, std::int64_t> binding;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ir::Type& t = pattern.inputs[i];
    const runtime::RtValue& v = inputs[i];
    if (t.isTensor()) {
      if (!v.isTensor()) return false;
      const Tensor& x = v.tensor();
      if (t.dtype() && x.dtype() != *t.dtype()) return false;
      const auto& dims = t.dims();
      if (x.dim() != static_cast<std::int64_t>(dims.size())) return false;
      for (std::size_t d = 0; d < dims.size(); ++d) {
        const std::int64_t extent = x.size(static_cast<std::int64_t>(d));
        if (!dims[d].symbolic()) {
          if (extent != dims[d].extent) return false;
          continue;
        }
        const std::int64_t bound = extent - dims[d].offset;
        if (bound < 1) return false;
        auto [it, fresh] = binding.emplace(dims[d].sym, bound);
        if (!fresh && it->second != bound) return false;
      }
    } else if (t.kind() == ir::TypeKind::Int) {
      if (!v.isScalar() || v.scalar().dtype() != DType::Int64) return false;
    } else if (t.kind() == ir::TypeKind::Bool) {
      if (!v.isScalar() || v.scalar().dtype() != DType::Bool) return false;
    } else {
      return false;
    }
  }
  return true;
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "yolov3", "ssd", "yolact", "fcos",
      "nasrnn", "lstm", "seq2seq", "attention",
  };
  return names;
}

Workload buildWorkload(const std::string& name, const WorkloadConfig& config) {
  if (name == "yolov3") return buildYolov3(config);
  if (name == "ssd") return buildSsd(config);
  if (name == "yolact") return buildYolact(config);
  if (name == "fcos") return buildFcos(config);
  if (name == "nasrnn") return buildNasRnn(config);
  if (name == "lstm") return buildLstm(config);
  if (name == "seq2seq") return buildSeq2Seq(config);
  if (name == "attention") return buildAttention(config);
  if (name == "decode_step") return buildDecodeStep(config);
  TSSA_THROW("unknown workload '" << name << "'");
}

}  // namespace tssa::workloads
