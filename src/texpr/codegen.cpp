#include "src/texpr/codegen.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/analysis/op_rules.h"
#include "src/ir/op_kind.h"
#include "src/tensor/shape.h"

namespace tssa::texpr::codegen {

using ir::AttrValue;
using ir::Block;
using ir::Node;
using ir::OpKind;
using ir::Value;

std::string_view declineName(Decline reason) {
  switch (reason) {
    case Decline::None: return "none";
    case Decline::Op: return "op";
    case Decline::Dtype: return "dtype";
    case Decline::Rank: return "rank";
    case Decline::Toolchain: return "toolchain";
  }
  return "?";
}

namespace {

/// Values of rank above this are left to the interpreter: the generated
/// coordinate arrays are stack-allocated and fully unrolled per dimension.
constexpr int kRankCap = 8;

OpKind viewRuleOf(const Node& node) {
  return static_cast<OpKind>(node.attrs().i("view"));
}

/// Doubles are rendered as hexfloat literals so the generated source parses
/// back to the bit-identical value (decimal printing would round).
std::string doubleLiteral(double v) {
  if (std::isnan(v)) return "std::numeric_limits<double>::quiet_NaN()";
  if (std::isinf(v)) {
    return v > 0 ? "std::numeric_limits<double>::infinity()"
                 : "(-std::numeric_limits<double>::infinity())";
  }
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

std::string attrKeyString(const AttrValue& value) {
  std::ostringstream os;
  if (const auto* s = std::get_if<Scalar>(&value)) {
    if (s->isFloat()) {
      os << "f" << std::hexfloat << s->toDouble();
    } else if (s->isBool()) {
      os << "b" << (s->toBool() ? 1 : 0);
    } else {
      os << "i" << s->toInt();
    }
  } else if (const auto* str = std::get_if<std::string>(&value)) {
    os << "s" << *str;
  } else if (const auto* ints =
                 std::get_if<std::vector<std::int64_t>>(&value)) {
    os << "v";
    for (std::int64_t i : *ints) os << i << ",";
  } else if (const auto* dt = std::get_if<DType>(&value)) {
    os << "d" << dtypeName(*dt);
  } else {
    os << "t?";  // Tensor attrs structurally decline before key use
  }
  return os.str();
}

/// Per-slot dtype/rank facts derived from the input signature alone (shapes
/// stay runtime). Dtypes come from the shared op rules
/// (analysis::elementwiseDType), the same ones Kernel::infer binds: a wrong
/// dtype here would become a wrong rounding in the generated code.
struct SlotMeta {
  bool isTensor = false;
  DType dtype = DType::Float32;
  int rank = 0;
};

}  // namespace

// ---- Construction: slots, structure key, structural declines ---------------

Generator::Generator(const Block& body) : body_(body) {
  for (std::size_t i = 0; i < body.numParams(); ++i) {
    slots_[body.param(i)] = static_cast<int>(values_.size());
    values_.push_back(body.param(i));
  }
  std::ostringstream key;
  key << "p" << body.numParams() << ";";
  fastEligible_ = true;
  for (const Node* node : body) {
    const OpKind kind = node->kind();
    slots_[node->output(0)] = static_cast<int>(values_.size());
    values_.push_back(node->output(0));

    if (kind == OpKind::MaskedFill) structural_ = Decline::Op;
    if (kind == OpKind::Access || kind == OpKind::Assign) {
      fastEligible_ = false;
      const OpKind rule = viewRuleOf(*node);
      if (kind == OpKind::Assign &&
          (rule == OpKind::Reshape || rule == OpKind::Flatten)) {
        // The covers-check needs a base-to-view delinearization entangled
        // with the written region's extents; interpreter-only for now.
        structural_ = Decline::Op;
      }
      if (kind == OpKind::Access && rule == OpKind::Select) {
        guards_.push_back(
            {node->input(1), node->input(0), node->attrs().i("dim")});
      }
      if (kind == OpKind::Assign && rule == OpKind::Select) {
        guards_.push_back(
            {node->input(2), node->input(0), node->attrs().i("dim")});
      }
    }

    key << opName(kind) << "(";
    for (std::size_t i = 0; i < node->numInputs(); ++i) {
      auto it = slots_.find(node->input(i));
      if (it == slots_.end()) {
        structural_ = Decline::Op;  // input defined outside the body
        key << "x";
      } else {
        key << it->second;
      }
      key << ",";
    }
    key << "){";
    for (const auto& [name, value] : node->attrs().all()) {
      if (std::holds_alternative<Tensor>(value)) structural_ = Decline::Op;
      key << name << "=" << attrKeyString(value) << ";";
    }
    key << "};";
  }
  key << "r";
  for (const Value* r : body.returns()) {
    auto it = slots_.find(r);
    if (it == slots_.end()) {
      structural_ = Decline::Op;
      key << "x,";
    } else {
      key << it->second << ",";
    }
  }
  structureKey_ = key.str();
}

int Generator::slotOf(const Value* v) const { return slots_.at(v); }

// ---- Signature-dependent analysis ------------------------------------------

namespace {

/// Resolves per-slot dtype/rank for `sig`, or reports why it cannot.
Decline resolveMetas(const Block& body,
                     const std::unordered_map<const Value*, int>& slots,
                     std::span<const InputSig> sig,
                     std::vector<SlotMeta>& metas) {
  metas.assign(slots.size(), SlotMeta{});
  if (sig.size() != body.numParams()) return Decline::Op;
  for (std::size_t i = 0; i < body.numParams(); ++i) {
    SlotMeta& m = metas[i];
    m.isTensor = sig[i].isTensor;
    m.dtype = sig[i].dtype;
    m.rank = sig[i].rank;
  }
  auto metaOf = [&](const Value* v) -> SlotMeta& {
    return metas[static_cast<std::size_t>(slots.at(v))];
  };
  // Element operands must be tensor-valued; dynamic view operands (select
  // index, slice bounds) must be scalar body parameters — that is where the
  // interpreter reads them from too.
  auto tensorOperand = [&](const Value* v) { return metaOf(v).isTensor; };
  auto scalarParam = [&](const Value* v) {
    return v->definingNode() == nullptr && !metaOf(v).isTensor;
  };

  for (const Node* node : body) {
    const OpKind kind = node->kind();
    SlotMeta& out = metaOf(node->output(0));
    out.isTensor = true;
    try {
      switch (kind) {
        case OpKind::Access: {
          if (!tensorOperand(node->input(0))) return Decline::Op;
          const SlotMeta& base = metaOf(node->input(0));
          const OpKind rule = viewRuleOf(*node);
          const auto& attrs = node->attrs();
          out.dtype = base.dtype;
          switch (rule) {
            case OpKind::Identity:
              out.rank = base.rank;
              break;
            case OpKind::Select:
              if (!scalarParam(node->input(1))) return Decline::Op;
              out.rank = base.rank - 1;
              break;
            case OpKind::Slice:
              if (!scalarParam(node->input(1)) ||
                  !scalarParam(node->input(2)))
                return Decline::Op;
              out.rank = base.rank;
              break;
            case OpKind::Transpose:
              out.rank = base.rank;
              break;
            case OpKind::Permute:
              out.rank = static_cast<int>(attrs.ints("dims").size());
              break;
            case OpKind::Squeeze:
              out.rank = base.rank - 1;
              break;
            case OpKind::Unsqueeze:
              out.rank = base.rank + 1;
              break;
            case OpKind::Reshape:
            case OpKind::Expand:
              out.rank = static_cast<int>(attrs.ints("sizes").size());
              break;
            case OpKind::Flatten: {
              const std::int64_t rank = base.rank;
              const std::int64_t s = normalizeDim(attrs.i("start_dim"), rank);
              const std::int64_t e = normalizeDim(attrs.i("end_dim"), rank);
              out.rank = static_cast<int>(rank - (e - s));
              break;
            }
            default:
              return Decline::Op;
          }
          break;
        }
        case OpKind::Assign: {
          if (!tensorOperand(node->input(0)) ||
              !tensorOperand(node->input(1)))
            return Decline::Op;
          const OpKind rule = viewRuleOf(*node);
          if (rule == OpKind::Select && !scalarParam(node->input(2)))
            return Decline::Op;
          if (rule == OpKind::Slice &&
              (!scalarParam(node->input(2)) || !scalarParam(node->input(3))))
            return Decline::Op;
          out.dtype = metaOf(node->input(0)).dtype;
          out.rank = metaOf(node->input(0)).rank;
          break;
        }
        case OpKind::MaskedFill:
          return Decline::Op;  // also caught structurally
        default: {
          // Elementwise compute (where included), typed by the shared rule.
          out.rank = 0;
          DType dtypes[3] = {};
          const std::size_t n = std::min<std::size_t>(node->numInputs(), 3);
          for (std::size_t i = 0; i < node->numInputs(); ++i) {
            if (!tensorOperand(node->input(i))) return Decline::Op;
            out.rank = std::max(out.rank, metaOf(node->input(i)).rank);
            if (i < n) dtypes[i] = metaOf(node->input(i)).dtype;
          }
          out.dtype = analysis::elementwiseDType(*node, std::span(dtypes, n));
          switch (kind) {
            case OpKind::Add:
            case OpKind::Sub:
            case OpKind::Mul:
            case OpKind::Minimum:
            case OpKind::Maximum:
              // Bool arithmetic (e.g. Bool + Bool) stays interpreter-only:
              // the natural trigger for the "dtype" decline reason.
              if (out.dtype == DType::Bool) return Decline::Dtype;
              break;
            default:
              break;
          }
          break;
        }
      }
    } catch (...) {
      return Decline::Op;  // malformed attrs; the interpreter raises the error
    }
    if (out.rank > kRankCap || out.rank < 0) return Decline::Rank;
  }
  for (const Value* r : body.returns()) {
    if (!metas[static_cast<std::size_t>(slots.at(r))].isTensor)
      return Decline::Op;
  }
  return Decline::None;
}

}  // namespace

Decline Generator::declineFor(std::span<const InputSig> sig) const {
  if (structural_ != Decline::None) return structural_;
  for (const InputSig& s : sig)
    if (s.isTensor && s.rank > kRankCap) return Decline::Rank;
  std::vector<SlotMeta> metas;
  return resolveMetas(body_, slots_, sig, metas);
}

std::string Generator::cacheKey(std::span<const InputSig> sig) const {
  std::ostringstream os;
  os << structureKey_ << "|";
  for (const InputSig& s : sig) {
    if (s.isTensor) {
      os << "T" << dtypeName(s.dtype) << s.rank << (s.contiguous ? "c" : "s");
    } else {
      os << "S";
    }
    os << ",";
  }
  return os.str();
}

// ---- Source emission -------------------------------------------------------

namespace {

const char* ctypeName(DType dtype) {
  switch (dtype) {
    case DType::Float32: return "float";
    case DType::Int64: return "long long";
    case DType::Bool: return "unsigned char";
  }
  return "double";
}

/// Wraps `expr` in the rounding a tensor store applies: the value a tensor
/// of `dtype` would store, kept as a double.
std::string finishExpr(DType dtype, const std::string& expr) {
  switch (dtype) {
    case DType::Float32:
      return "(double)(float)(" + expr + ")";
    case DType::Int64:
      return "(double)(long long)(" + expr + ")";
    case DType::Bool:
      return "(((" + expr + ") != 0.0) ? 1.0 : 0.0)";
  }
  return expr;
}

class Emitter {
 public:
  Emitter(const Block& body,
          const std::unordered_map<const Value*, int>& slots,
          std::span<const InputSig> sig, const std::vector<SlotMeta>& metas,
          bool emitFast)
      : body_(body),
        slots_(slots),
        sig_(sig),
        metas_(metas),
        emitFast_(emitFast) {}

  std::string emit() {
    os_ << "// Generated by the tssa texpr JIT backend. Mirrors the\n"
           "// interpreted body element for element (DESIGN.md S11);\n"
           "// compiled with -ffp-contract=off so every node boundary keeps\n"
           "// its own IEEE rounding, bitwise-equal to the interpreter.\n"
           "#include <algorithm>\n"
           "#include <cmath>\n"
           "#include <cstdint>\n"
           "#include <limits>\n\n"
           "using i64 = long long;\n\n"
           "extern \"C\" {\n"
           "struct TssaJitBuffer {\n"
           "  void* data;\n"
           "  const i64* sizes;\n"
           "  const i64* strides;\n"
           "};\n"
           "}\n\n"
           "namespace {\n"
           "struct C {\n"
           "  const TssaJitBuffer* ins;\n"
           "  const i64* const* shapes;\n"
           "  const double* scalars;\n"
           "};\n"
           "}  // namespace\n\n";
    for (std::size_t i = 0; i < body_.numParams(); ++i) {
      if (sig_[i].isTensor) emitParam(i);
    }
    for (const Node* node : body_) emitNode(*node);
    if (emitFast_) {
      for (std::size_t i = 0; i < body_.numParams(); ++i) {
        if (sig_[i].isTensor) emitFastParam(i);
      }
      for (const Node* node : body_) emitFastNode(*node);
    }
    std::size_t ri = 0;
    for (const Value* r : body_.returns()) emitRunner(ri++, r);
    emitEntry();
    return os_.str();
  }

 private:
  int slot(const Value* v) const { return slots_.at(v); }
  const SlotMeta& meta(const Value* v) const {
    return metas_[static_cast<std::size_t>(slot(v))];
  }
  static std::string arrayLen(int rank) {
    return std::to_string(std::max(rank, 1));
  }
  int normDim(std::int64_t dim, int rank) const {
    return static_cast<int>(normalizeDim(dim, rank));
  }

  void emitParam(std::size_t i) {
    const Value* p = body_.param(i);
    const SlotMeta& m = meta(p);
    os_ << "static inline double v" << slot(p)
        << "(const C* g, const i64* c) {\n"
        << "  const TssaJitBuffer& b = g->ins[" << i << "];\n"
        << "  i64 off = 0;\n";
    for (int d = 0; d < m.rank; ++d)
      os_ << "  off += c[" << d << "] * b.strides[" << d << "];\n";
    if (m.rank == 0) os_ << "  (void)c;\n";
    os_ << "  return (double)((const " << ctypeName(m.dtype)
        << "*)b.data)[off];\n}\n\n";
  }

  void emitFastParam(std::size_t i) {
    const Value* p = body_.param(i);
    os_ << "static inline double f" << slot(p) << "(const C* g, i64 i) {\n"
        << "  return (double)((const " << ctypeName(meta(p).dtype)
        << "*)g->ins[" << i << "].data)[i];\n}\n\n";
  }

  /// Emits `i64 name[...]` holding the coordinate of operand `o` aligned to
  /// the output coordinate `c` of rank `outRank` (trailing-dim broadcast:
  /// size-1 dims pin to 0). Mirrors texpr's alignCoord.
  void emitAlign(const std::string& name, const Value* o, int outRank) {
    const SlotMeta& m = meta(o);
    os_ << "  i64 " << name << "[" << arrayLen(m.rank) << "];\n";
    if (m.rank > 0) {
      os_ << "  const i64* S" << name << " = g->shapes[" << slot(o) << "];\n";
      for (int d = 0; d < m.rank; ++d) {
        os_ << "  " << name << "[" << d << "] = (S" << name << "[" << d
            << "] == 1) ? 0 : c[" << (outRank - m.rank + d) << "];\n";
      }
    } else {
      os_ << "  (void)" << name << ";\n";
    }
  }

  /// The scalars-table index of a dynamic view operand (a scalar body
  /// param, whose slot equals its param index).
  int scalarIndex(const Value* v) const { return slot(v); }

  void emitNode(const Node& node) {
    const Value* out = node.output(0);
    os_ << "static inline double v" << slot(out)
        << "(const C* g, const i64* c) {\n";
    switch (node.kind()) {
      case OpKind::Access:
        emitAccessBody(node);
        break;
      case OpKind::Assign:
        emitAssignBody(node);
        break;
      default:
        emitComputeBody(node, /*fast=*/false);
        break;
    }
    os_ << "}\n\n";
  }

  void emitFastNode(const Node& node) {
    os_ << "static inline double f" << slot(node.output(0))
        << "(const C* g, i64 i) {\n";
    emitComputeBody(node, /*fast=*/true);
    os_ << "}\n\n";
  }

  /// Elementwise body: loads operands (aligned coordinates in the generic
  /// form, the shared linear index in the fast form), then returns the op
  /// expression with the output dtype's rounding, as tensor/ops.h stores it.
  void emitComputeBody(const Node& node, bool fast) {
    const SlotMeta& m = meta(node.output(0));
    std::vector<std::string> x;
    for (std::size_t i = 0; i < node.numInputs(); ++i) {
      const Value* o = node.input(i);
      const std::string name = "x" + std::to_string(i);
      if (fast) {
        os_ << "  double " << name << " = f" << slot(o) << "(g, i);\n";
      } else if (node.numInputs() == 1) {
        // Unary output shape equals the input's: the coordinate passes
        // through (alignCoord against an identical shape is the identity).
        os_ << "  double " << name << " = v" << slot(o) << "(g, c);\n";
      } else {
        const std::string cn = "oc" + std::to_string(i);
        emitAlign(cn, o, m.rank);
        os_ << "  double " << name << " = v" << slot(o) << "(g, " << cn
            << ");\n";
      }
      x.push_back(name);
    }
    os_ << "  return " << opExpr(node, m.dtype, x) << ";\n";
  }

  std::string opExpr(const Node& node, DType outDtype,
                     const std::vector<std::string>& x) {
    auto fin = [&](const std::string& e) { return finishExpr(outDtype, e); };
    switch (node.kind()) {
      case OpKind::Add: return fin(x[0] + " + " + x[1]);
      case OpKind::Sub: return fin(x[0] + " - " + x[1]);
      case OpKind::Mul: return fin(x[0] + " * " + x[1]);
      case OpKind::Div: return fin(x[0] + " / " + x[1]);
      case OpKind::Pow: return fin("std::pow(" + x[0] + ", " + x[1] + ")");
      case OpKind::Minimum:
        return fin("std::min(" + x[0] + ", " + x[1] + ")");
      case OpKind::Maximum:
        return fin("std::max(" + x[0] + ", " + x[1] + ")");
      case OpKind::Eq: return "(" + x[0] + " == " + x[1] + ") ? 1.0 : 0.0";
      case OpKind::Ne: return "(" + x[0] + " != " + x[1] + ") ? 1.0 : 0.0";
      case OpKind::Lt: return "(" + x[0] + " < " + x[1] + ") ? 1.0 : 0.0";
      case OpKind::Le: return "(" + x[0] + " <= " + x[1] + ") ? 1.0 : 0.0";
      case OpKind::Gt: return "(" + x[0] + " > " + x[1] + ") ? 1.0 : 0.0";
      case OpKind::Ge: return "(" + x[0] + " >= " + x[1] + ") ? 1.0 : 0.0";
      case OpKind::LogicalAnd:
        return "(" + x[0] + " != 0.0 && " + x[1] + " != 0.0) ? 1.0 : 0.0";
      case OpKind::LogicalOr:
        return "(" + x[0] + " != 0.0 || " + x[1] + " != 0.0) ? 1.0 : 0.0";
      case OpKind::LogicalNot:
        return "(" + x[0] + " == 0.0) ? 1.0 : 0.0";
      case OpKind::Neg: return fin("-" + x[0]);
      case OpKind::Exp: return fin("std::exp(" + x[0] + ")");
      case OpKind::Log: return fin("std::log(" + x[0] + ")");
      case OpKind::Sqrt: return fin("std::sqrt(" + x[0] + ")");
      case OpKind::Abs: return fin("std::abs(" + x[0] + ")");
      case OpKind::Sigmoid:
        return fin("1.0 / (1.0 + std::exp(-" + x[0] + "))");
      case OpKind::Tanh: return fin("std::tanh(" + x[0] + ")");
      case OpKind::Relu:
        return fin("(" + x[0] + " > 0) ? " + x[0] + " : 0.0");
      case OpKind::Clamp:
        return fin("std::clamp(" + x[0] + ", " +
                   doubleLiteral(node.attrs().f("lo")) + ", " +
                   doubleLiteral(node.attrs().f("hi")) + ")");
      case OpKind::Cast: return fin(x[0]);
      case OpKind::Where:
        return fin("(" + x[0] + " != 0.0) ? " + x[1] + " : " + x[2]);
      default:
        return "0.0 /* unreachable: gated by declineFor */";
    }
  }

  /// Access: compute the base coordinate `bc` that the view coordinate `c`
  /// reads, then recurse into the base (the view rule run backwards).
  void emitAccessBody(const Node& node) {
    const Value* base = node.input(0);
    const int bs = slot(base);
    const int rb = meta(base).rank;
    const int r = meta(node.output(0)).rank;
    const OpKind rule = viewRuleOf(node);
    const auto& attrs = node.attrs();
    auto ret = [&] { os_ << "  return v" << bs << "(g, bc);\n"; };
    auto declBc = [&] { os_ << "  i64 bc[" << arrayLen(rb) << "];\n"; };
    switch (rule) {
      case OpKind::Identity:
        os_ << "  return v" << bs << "(g, c);\n";
        return;
      case OpKind::Select: {
        const int d = normDim(attrs.i("dim"), rb);
        os_ << "  i64 idx = (i64)g->scalars[" << scalarIndex(node.input(1))
            << "];\n"
            << "  if (idx < 0) idx += g->shapes[" << bs << "][" << d
            << "];\n";
        declBc();
        for (int i = 0; i < rb; ++i) {
          if (i < d) {
            os_ << "  bc[" << i << "] = c[" << i << "];\n";
          } else if (i == d) {
            os_ << "  bc[" << i << "] = idx;\n";
          } else {
            os_ << "  bc[" << i << "] = c[" << (i - 1) << "];\n";
          }
        }
        ret();
        return;
      }
      case OpKind::Slice: {
        const int d = normDim(attrs.i("dim"), rb);
        const std::int64_t step = attrs.i("step");
        os_ << "  const i64 ext = g->shapes[" << bs << "][" << d << "];\n"
            << "  i64 start = (i64)g->scalars["
            << scalarIndex(node.input(1)) << "];\n"
            << "  if (start < 0) start += ext;\n"
            << "  if (start < 0) start = 0;\n"
            << "  if (start > ext) start = ext;\n";
        declBc();
        for (int i = 0; i < rb; ++i) {
          if (i == d) {
            os_ << "  bc[" << i << "] = start + c[" << i << "] * " << step
                << ";\n";
          } else {
            os_ << "  bc[" << i << "] = c[" << i << "];\n";
          }
        }
        ret();
        return;
      }
      case OpKind::Transpose: {
        const int d0 = normDim(attrs.i("dim0"), rb);
        const int d1 = normDim(attrs.i("dim1"), rb);
        declBc();
        for (int i = 0; i < rb; ++i) {
          const int src = i == d0 ? d1 : (i == d1 ? d0 : i);
          os_ << "  bc[" << i << "] = c[" << src << "];\n";
        }
        ret();
        return;
      }
      case OpKind::Permute: {
        const auto& dims = attrs.ints("dims");
        declBc();
        for (std::size_t i = 0; i < dims.size(); ++i)
          os_ << "  bc[" << normDim(dims[i], rb) << "] = c[" << i << "];\n";
        ret();
        return;
      }
      case OpKind::Squeeze: {
        const int d = normDim(attrs.i("dim"), rb);
        declBc();
        for (int i = 0; i < rb; ++i) {
          if (i < d) {
            os_ << "  bc[" << i << "] = c[" << i << "];\n";
          } else if (i == d) {
            os_ << "  bc[" << i << "] = 0;\n";
          } else {
            os_ << "  bc[" << i << "] = c[" << (i - 1) << "];\n";
          }
        }
        ret();
        return;
      }
      case OpKind::Unsqueeze: {
        std::int64_t d = attrs.i("dim");
        if (d < 0) d += rb + 1;
        declBc();
        for (int i = 0; i < rb; ++i)
          os_ << "  bc[" << i << "] = c[" << (i < d ? i : i + 1) << "];\n";
        if (rb == 0) os_ << "  (void)c;\n";
        ret();
        return;
      }
      case OpKind::Reshape:
      case OpKind::Flatten: {
        os_ << "  i64 lin = 0;\n";
        if (r > 0) {
          os_ << "  const i64* So = g->shapes[" << slot(node.output(0))
              << "];\n";
          for (int i = 0; i < r; ++i)
            os_ << "  lin = lin * So[" << i << "] + c[" << i << "];\n";
        } else {
          os_ << "  (void)c;\n";
        }
        declBc();
        if (rb > 0) {
          os_ << "  const i64* Sb = g->shapes[" << bs << "];\n";
          for (int i = rb - 1; i >= 0; --i) {
            os_ << "  bc[" << i << "] = lin % Sb[" << i << "];\n"
                << "  lin /= Sb[" << i << "];\n";
          }
        }
        ret();
        return;
      }
      case OpKind::Expand: {
        declBc();
        if (rb > 0) {
          os_ << "  const i64* Sb = g->shapes[" << bs << "];\n";
          for (int i = 0; i < rb; ++i) {
            os_ << "  bc[" << i << "] = (Sb[" << i << "] == 1) ? 0 : c["
                << (r - rb + i) << "];\n";
          }
        } else {
          os_ << "  (void)c;\n";
        }
        ret();
        return;
      }
      default:
        os_ << "  return 0.0; /* unreachable */\n";
        return;
    }
  }

  /// Assign: if the base coordinate lies in the written view region, read
  /// the source at the view coordinate (with the output dtype's rounding);
  /// otherwise pass the base element through unrounded — Assign's pure
  /// definition (copy the base, write the source through the view).
  void emitAssignBody(const Node& node) {
    const Value* out = node.output(0);
    const Value* base = node.input(0);
    const Value* src = node.input(1);
    const int bs = slot(base);
    const int r = meta(out).rank;  // == base rank
    const int rs = meta(src).rank;
    const OpKind rule = viewRuleOf(node);
    const auto& attrs = node.attrs();
    const DType outDtype = meta(out).dtype;

    // Emits the covered epilogue: align `vcName` (rank rv) to the source
    // shape and return the rounded source element.
    auto coveredReturn = [&](const std::string& vcName, int rv) {
      os_ << "  i64 sc[" << arrayLen(rs) << "];\n";
      if (rs > 0) {
        os_ << "  const i64* Ss = g->shapes[" << slot(src) << "];\n";
        for (int i = 0; i < rs; ++i) {
          os_ << "  sc[" << i << "] = (Ss[" << i << "] == 1) ? 0 : "
              << vcName << "[" << (rv - rs + i) << "];\n";
        }
      }
      os_ << "  return "
          << finishExpr(outDtype, "v" + std::to_string(slot(src)) + "(g, sc)")
          << ";\n";
    };
    auto uncovered = [&] { return "v" + std::to_string(bs) + "(g, c)"; };

    switch (rule) {
      case OpKind::Identity:
        coveredReturn("c", r);
        return;
      case OpKind::Select: {
        const int d = normDim(attrs.i("dim"), r);
        os_ << "  i64 idx = (i64)g->scalars[" << scalarIndex(node.input(2))
            << "];\n"
            << "  if (idx < 0) idx += g->shapes[" << bs << "][" << d
            << "];\n"
            << "  if (c[" << d << "] != idx) return " << uncovered()
            << ";\n"
            << "  i64 vc[" << arrayLen(r - 1) << "];\n";
        for (int i = 0; i < r - 1; ++i)
          os_ << "  vc[" << i << "] = c[" << (i < d ? i : i + 1) << "];\n";
        if (r - 1 == 0) os_ << "  (void)vc;\n";
        coveredReturn("vc", r - 1);
        return;
      }
      case OpKind::Slice: {
        const int d = normDim(attrs.i("dim"), r);
        const std::int64_t step = attrs.i("step");
        os_ << "  const i64 ext = g->shapes[" << bs << "][" << d << "];\n"
            << "  i64 start = (i64)g->scalars["
            << scalarIndex(node.input(2)) << "];\n"
            << "  i64 end = (i64)g->scalars[" << scalarIndex(node.input(3))
            << "];\n"
            << "  if (start < 0) start += ext;\n"
            << "  if (end < 0) end += ext;\n"
            << "  if (start < 0) start = 0;\n"
            << "  if (start > ext) start = ext;\n"
            << "  if (end < start) end = start;\n"
            << "  if (end > ext) end = ext;\n"
            << "  const i64 p = c[" << d << "];\n"
            << "  if (p < start || p >= end || (p - start) % " << step
            << " != 0) return " << uncovered() << ";\n"
            << "  i64 vc[" << arrayLen(r) << "];\n";
        for (int i = 0; i < r; ++i) {
          if (i == d) {
            os_ << "  vc[" << i << "] = (p - start) / " << step << ";\n";
          } else {
            os_ << "  vc[" << i << "] = c[" << i << "];\n";
          }
        }
        coveredReturn("vc", r);
        return;
      }
      case OpKind::Transpose: {
        const int d0 = normDim(attrs.i("dim0"), r);
        const int d1 = normDim(attrs.i("dim1"), r);
        os_ << "  i64 vc[" << arrayLen(r) << "];\n";
        for (int i = 0; i < r; ++i) {
          const int srcI = i == d0 ? d1 : (i == d1 ? d0 : i);
          os_ << "  vc[" << i << "] = c[" << srcI << "];\n";
        }
        coveredReturn("vc", r);
        return;
      }
      case OpKind::Permute: {
        const auto& dims = attrs.ints("dims");
        os_ << "  i64 vc[" << arrayLen(r) << "];\n";
        for (std::size_t i = 0; i < dims.size(); ++i)
          os_ << "  vc[" << i << "] = c[" << normDim(dims[i], r) << "];\n";
        coveredReturn("vc", r);
        return;
      }
      case OpKind::Squeeze: {
        const int d = normDim(attrs.i("dim"), r);
        os_ << "  i64 vc[" << arrayLen(r - 1) << "];\n";
        for (int i = 0; i < r - 1; ++i)
          os_ << "  vc[" << i << "] = c[" << (i < d ? i : i + 1) << "];\n";
        if (r - 1 == 0) os_ << "  (void)vc;\n";
        coveredReturn("vc", r - 1);
        return;
      }
      case OpKind::Unsqueeze: {
        std::int64_t d = attrs.i("dim");
        if (d < 0) d += r + 1;
        os_ << "  i64 vc[" << arrayLen(r + 1) << "];\n";
        for (int i = 0; i < r + 1; ++i) {
          if (i < d) {
            os_ << "  vc[" << i << "] = c[" << i << "];\n";
          } else if (i == d) {
            os_ << "  vc[" << i << "] = 0;\n";
          } else {
            os_ << "  vc[" << i << "] = c[" << (i - 1) << "];\n";
          }
        }
        coveredReturn("vc", r + 1);
        return;
      }
      default:
        os_ << "  return 0.0; /* unreachable */\n";
        return;
    }
  }

  void emitRunner(std::size_t ri, const Value* r) {
    const SlotMeta& m = meta(r);
    const char* t = ctypeName(m.dtype);
    const int rank = m.rank;
    os_ << "static void run_r" << ri
        << "(const C* g, TssaJitBuffer* out, i64 begin, i64 end, "
           "std::int32_t flags) {\n"
        << "  " << t << "* o = (" << t << "*)out->data;\n";
    if (emitFast_) {
      os_ << "  if (flags & 1) {\n"
          << "    for (i64 i = begin; i < end; ++i) o[i] = (" << t << ")f"
          << slot(r) << "(g, i);\n"
          << "    return;\n"
          << "  }\n";
    } else {
      os_ << "  (void)flags;\n";
    }
    os_ << "  i64 c[" << arrayLen(rank) << "];\n";
    if (rank > 0) {
      os_ << "  const i64* S = g->shapes[" << slot(r) << "];\n"
          << "  i64 lin = begin;\n";
      for (int d = rank - 1; d >= 0; --d) {
        os_ << "  c[" << d << "] = lin % S[" << d << "];\n"
            << "  lin /= S[" << d << "];\n";
      }
      os_ << "  for (i64 i = begin; i < end; ++i) {\n"
          << "    o[i] = (" << t << ")v" << slot(r) << "(g, c);\n"
          << "    for (int d = " << rank - 1
          << "; d >= 0; --d) { if (++c[d] < S[d]) break; c[d] = 0; }\n"
          << "  }\n";
    } else {
      os_ << "  c[0] = 0;\n"
          << "  for (i64 i = begin; i < end; ++i) o[i] = (" << t << ")v"
          << slot(r) << "(g, c);\n";
    }
    os_ << "}\n\n";
  }

  void emitEntry() {
    os_ << "extern \"C\" void tssa_jit_entry(const TssaJitBuffer* ins, "
           "TssaJitBuffer* out,\n"
           "                                const i64* const* shapes, "
           "const double* scalars,\n"
           "                                std::int32_t outIndex, i64 "
           "begin, i64 end,\n"
           "                                std::int32_t flags) {\n"
           "  C g{ins, shapes, scalars};\n"
           "  switch (outIndex) {\n";
    for (std::size_t i = 0; i < body_.numReturns(); ++i) {
      os_ << "    case " << i << ": run_r" << i
          << "(&g, out, begin, end, flags); return;\n";
    }
    os_ << "    default: return;\n"
           "  }\n"
           "}\n";
  }

  const Block& body_;
  const std::unordered_map<const Value*, int>& slots_;
  std::span<const InputSig> sig_;
  const std::vector<SlotMeta>& metas_;
  bool emitFast_;
  std::ostringstream os_;
};

}  // namespace

std::string Generator::emitSource(std::span<const InputSig> sig) const {
  std::vector<SlotMeta> metas;
  resolveMetas(body_, slots_, sig, metas);
  bool allContig = true;
  for (const InputSig& s : sig)
    if (s.isTensor && !s.contiguous) allContig = false;
  Emitter e(body_, slots_, sig, metas, fastEligible_ && allContig);
  return e.emit();
}

}  // namespace tssa::texpr::codegen
