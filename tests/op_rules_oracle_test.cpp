// Metadata oracle: analysis::inferOutputs against the kernels it describes.
//
// Every leaf op the interpreter executes runs here as a one-node graph on
// generated operands, Access and Assign under every static view rule. On
// operands the op accepts, the metadata inferOutputs derives must equal the
// sizes and dtype of what the Interpreter produced (the value, for scalar
// ops; the items, for lists). On operands a shape or dtype rule rejects,
// both must throw tssa::Error. The cost walk, the tile planner and fused-body
// pricing see an op only through inferOutputs, so this is what ties their
// metadata to execution. Checks on index values (gather/index_select
// indices) are data-dependent and stay with the kernels: no case here feeds
// an out-of-range index value.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/cost.h"
#include "src/analysis/op_rules.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/runtime/interpreter.h"
#include "src/tensor/random.h"

namespace tssa {
namespace {

using analysis::CostValue;
using ir::OpKind;
using runtime::RtValue;

using Attrs = std::vector<std::pair<std::string, ir::AttrValue>>;

/// One node: its kind, operands and attributes, and whether its rules accept
/// the operands.
struct Case {
  OpKind kind;
  std::vector<RtValue> operands;
  Attrs attrs = {};
  bool valid = true;
  std::size_t outputs = 1;
};

ir::Type typeOf(const RtValue& v) {
  if (v.isTensor()) return ir::Type::tensor(v.tensor().dtype());
  if (v.isList()) return ir::Type::tensorList();
  switch (v.scalar().dtype()) {
    case DType::Float32:
      return ir::Type::floating();
    case DType::Int64:
      return ir::Type::integer();
    case DType::Bool:
      return ir::Type::boolean();
  }
  return ir::Type::none();
}

std::string describe(const CostValue& v) {
  std::ostringstream os;
  if (v.isTensor()) {
    os << dtypeName(v.tensorMeta().dtype) << bracketed(v.tensorMeta().sizes);
  } else if (v.isScalar()) {
    os << v.scalarValue();
  } else if (v.isList()) {
    os << "list of " << v.listMeta().size();
    for (const auto& m : v.listMeta())
      os << " " << dtypeName(m.dtype) << bracketed(m.sizes);
  } else {
    os << "unknown";
  }
  return os.str();
}

bool sameMeta(const CostValue& a, const CostValue& b) {
  if (a.isTensor() && b.isTensor()) return a.tensorMeta() == b.tensorMeta();
  if (a.isScalar() && b.isScalar()) return a.scalarValue() == b.scalarValue();
  if (a.isList() && b.isList()) return a.listMeta() == b.listMeta();
  return false;
}

/// `c` as a one-node graph into `g`; returns the node.
ir::Node* buildGraph(const Case& c, ir::Graph& g) {
  std::vector<ir::Value*> ins;
  for (const RtValue& v : c.operands) ins.push_back(g.addInput(typeOf(v)));
  ir::IRBuilder b(g);
  ir::Node* node = b.emitNode(c.kind, ins, c.outputs);
  for (const auto& [name, value] : c.attrs) node->attrs().set(name, value);
  for (std::size_t i = 0; i < c.outputs; ++i) g.addOutput(node->output(i));
  return node;
}

/// Runs `c` through inferOutputs and through the Interpreter.
void check(const Case& c) {
  ir::Graph g;
  const ir::Node* node = buildGraph(c, g);

  const std::vector<CostValue> meta = analysis::costInputs(c.operands);
  std::ostringstream label;
  label << ir::toString(*node) << " on";
  for (const CostValue& m : meta) label << " " << describe(m);

  std::vector<analysis::Operand> in;
  for (const CostValue& m : meta) in.push_back(m.operand());
  std::vector<CostValue> inferred(c.outputs);
  std::string inferError;
  try {
    analysis::inferOutputs(*node, in, inferred);
  } catch (const Error& e) {
    inferError = e.what();
  }
  std::vector<RtValue> ran;
  std::string runError;
  try {
    ran = runtime::Interpreter().run(g, c.operands);
  } catch (const Error& e) {
    runError = e.what();
  }

  if (!c.valid) {
    EXPECT_NE(inferError, "") << label.str()
                              << ": inferOutputs accepts operands the kernel "
                                 "rejects with: "
                              << runError;
    EXPECT_NE(runError, "") << label.str()
                            << ": the kernel accepts operands inferOutputs "
                               "rejects with: "
                            << inferError;
    return;
  }
  EXPECT_EQ(inferError, "") << label.str();
  EXPECT_EQ(runError, "") << label.str();
  if (!inferError.empty() || !runError.empty()) return;
  for (std::size_t i = 0; i < c.outputs; ++i) {
    const CostValue executed = analysis::costInputs(std::span(&ran[i], 1))[0];
    EXPECT_TRUE(sameMeta(inferred[i], executed))
        << label.str() << ": output " << i << " inferred "
        << describe(inferred[i]) << ", executed " << describe(executed);
  }
}

/// The shape of `c`'s executed result; empty when the run throws.
std::optional<Shape> executedShape(const Case& c) {
  ir::Graph g;
  buildGraph(c, g);
  try {
    return runtime::Interpreter().run(g, c.operands)[0].tensor().sizes();
  } catch (const Error&) {
    return std::nullopt;
  }
}

constexpr DType kDTypes[] = {DType::Float32, DType::Int64, DType::Bool};

/// Random operands for one seed.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  std::int64_t pick(std::int64_t lo, std::int64_t hi) {
    return rng_.nextInt(lo, hi);
  }
  bool coin() { return rng_.nextBool(); }
  std::mt19937_64& engine() { return rng_.engine(); }
  DType dtype() { return kDTypes[pick(0, 2)]; }

  /// Rank in [minRank, maxRank], extents in [1, 4].
  Shape shape(std::int64_t minRank = 0, std::int64_t maxRank = 3) {
    Shape s(static_cast<std::size_t>(pick(minRank, maxRank)));
    for (std::int64_t& e : s) e = pick(1, 4);
    return s;
  }

  Tensor tensor(const Shape& s, DType dtype) {
    switch (dtype) {
      case DType::Float32:
        return rng_.uniform(s, -2.0, 2.0);
      case DType::Int64:
        return rng_.randint(s, -3, 3);
      case DType::Bool:
        return rng_.bernoulli(s);
    }
    return Tensor();
  }
  Tensor tensor(const Shape& s) { return tensor(s, dtype()); }
  RtValue value(const Shape& s) { return RtValue(tensor(s)); }
  /// Int64 indices in [0, extent).
  Tensor index(const Shape& s, std::int64_t extent) {
    return rng_.randint(s, 0, extent - 1);
  }

  /// A shape that broadcasts to `s`: leading dims dropped, extents set to 1.
  Shape broadcastable(const Shape& s) {
    Shape out(s.begin() + pick(0, static_cast<std::int64_t>(s.size())),
              s.end());
    for (std::int64_t& e : out)
      if (coin()) e = 1;
    return out;
  }

  /// A dim of a rank-`rank` tensor, negative half the time.
  std::int64_t dim(std::int64_t rank) {
    const std::int64_t d = pick(0, rank - 1);
    return coin() ? d - rank : d;
  }

  Scalar scalar() {
    switch (pick(0, 2)) {
      case 0:
        return Scalar(rng_.nextDouble(-3.0, 3.0));
      case 1:
        return Scalar(pick(-5, 5));
      default:
        return Scalar(coin());
    }
  }

 private:
  Rng rng_;
};

/// `s` grown by a leading extent-2 dim: it never broadcasts to `s`.
Shape wider(Shape s) {
  s.insert(s.begin(), 2);
  return s;
}

// ---- Views -----------------------------------------------------------------

/// A view rule applied to a base: its attributes and dynamic operands.
struct View {
  Attrs attrs = {};
  std::vector<RtValue> operands;
  bool valid = true;
};

constexpr OpKind kViewRules[] = {
    OpKind::Identity, OpKind::Select,    OpKind::Slice,
    OpKind::Reshape,  OpKind::Permute,   OpKind::Transpose,
    OpKind::Expand,   OpKind::Squeeze,   OpKind::Unsqueeze,
    OpKind::Flatten};

Scalar ints(std::int64_t v) { return Scalar(v); }
Attrs dimAttr(std::int64_t d) { return {{"dim", ints(d)}}; }

std::size_t normalized(std::int64_t dim, std::int64_t rank) {
  return static_cast<std::size_t>(dim < 0 ? dim + rank : dim);
}

/// View rule `rule` on a base of shape `base` (rank >= 1), valid or not.
View makeView(Gen& gen, OpKind rule, const Shape& base, bool valid) {
  const auto rank = static_cast<std::int64_t>(base.size());
  const std::int64_t numel = numelOf(base);
  View v;
  v.valid = valid;
  switch (rule) {
    case OpKind::Identity:
      v.valid = true;  // nothing to reject
      break;
    case OpKind::Select: {
      const std::int64_t d = gen.dim(rank);
      const std::int64_t extent = base[normalized(d, rank)];
      if (valid) {
        v.attrs = {{"dim", ints(d)}};
        v.operands = {RtValue(gen.pick(-extent, extent - 1))};
      } else if (gen.coin()) {
        v.attrs = {{"dim", ints(d)}};
        v.operands = {RtValue(extent + gen.pick(0, 2))};  // index out of range
      } else {
        v.attrs = {{"dim", ints(rank)}};  // dim out of range
        v.operands = {RtValue(std::int64_t{0})};
      }
      break;
    }
    case OpKind::Slice: {
      const std::int64_t d = gen.dim(rank);
      const std::int64_t extent = base[normalized(d, rank)];
      v.attrs = {{"dim", ints(d)},
                 {"step", ints(valid ? gen.pick(1, 3) : gen.pick(-1, 0))}};
      v.operands = {RtValue(gen.pick(-extent - 2, extent + 2)),
                    RtValue(gen.pick(-extent - 2, extent + 2))};
      break;
    }
    case OpKind::Reshape: {
      if (gen.coin()) {
        // Symbolic-dim form: the one extent binds from a scalar operand.
        v.attrs = {{"sizes", Shape{-1}}, {"dyn", ints(1)}};
        v.operands = {RtValue(valid ? numel : gen.coin() ? numel + 1 : -1)};
        break;
      }
      Shape sizes = base;
      std::shuffle(sizes.begin(), sizes.end(), gen.engine());
      if (gen.coin()) sizes[normalized(gen.dim(rank), rank)] = -1;
      if (!valid) sizes = gen.coin() ? Shape{numel + 1} : Shape{-1, -1};
      v.attrs = {{"sizes", sizes}};
      break;
    }
    case OpKind::Permute: {
      std::vector<std::int64_t> dims(static_cast<std::size_t>(rank));
      std::iota(dims.begin(), dims.end(), 0);
      std::shuffle(dims.begin(), dims.end(), gen.engine());
      for (std::int64_t& d : dims)
        if (gen.coin()) d -= rank;
      if (!valid) {
        if (rank > 1 && gen.coin()) {
          dims[1] = dims[0];  // duplicate
        } else {
          dims.push_back(0);  // one entry too many
        }
      }
      v.attrs = {{"dims", dims}};
      break;
    }
    case OpKind::Transpose:
      v.attrs = {{"dim0", ints(valid ? gen.dim(rank) : rank)},
                 {"dim1", ints(gen.dim(rank))}};
      break;
    case OpKind::Expand: {
      Shape target = base;
      if (gen.coin()) target.insert(target.begin(), gen.pick(1, 3));
      const std::size_t lead = target.size() - base.size();
      for (std::size_t i = 0; i < base.size(); ++i)
        if (base[i] == 1) target[lead + i] = gen.pick(1, 3);
      if (!valid) {
        const auto fixed = std::find_if(base.begin(), base.end(),
                                        [](std::int64_t e) { return e != 1; });
        if (fixed != base.end() && gen.coin()) {
          target[lead + static_cast<std::size_t>(fixed - base.begin())] += 1;
        } else {  // fewer dims than the base
          target.erase(target.begin(),
                       target.begin() + static_cast<std::ptrdiff_t>(lead + 1));
        }
      }
      if (!target.empty() && gen.coin()) {
        // Symbolic-dim form: the leading extent binds from an operand.
        v.operands = {RtValue(target[0])};
        target[0] = -1;
        v.attrs = {{"sizes", target}, {"dyn", ints(1)}};
        break;
      }
      v.attrs = {{"sizes", target}};
      break;
    }
    case OpKind::Squeeze: {
      std::vector<std::int64_t> units, others;
      for (std::int64_t d = 0; d < rank; ++d)
        (base[static_cast<std::size_t>(d)] == 1 ? units : others).push_back(d);
      const std::vector<std::int64_t>& dims = valid ? units : others;
      if (dims.empty()) {
        v.valid = false;
        v.attrs = {{"dim", ints(rank)}};  // out of range
      } else {
        const std::int64_t last = static_cast<std::int64_t>(dims.size()) - 1;
        v.attrs = dimAttr(dims[static_cast<std::size_t>(gen.pick(0, last))]);
      }
      break;
    }
    case OpKind::Unsqueeze:
      v.attrs = {{"dim", ints(valid ? gen.pick(-rank - 1, rank) : rank + 1)}};
      break;
    case OpKind::Flatten: {
      std::int64_t s = gen.pick(0, rank - 1);
      std::int64_t e = gen.pick(0, rank - 1);
      if (s > e) std::swap(s, e);
      if (!valid) {
        if (s == e) {
          e = rank;  // out of range
        } else {
          std::swap(s, e);  // start after end
        }
      }
      v.attrs = {{"start_dim", ints(s)}, {"end_dim", ints(e)}};
      break;
    }
    default:
      ADD_FAILURE() << "not a view rule: " << opName(rule);
  }
  return v;
}

/// A base shape for view rules: rank 1-3, with a unit dim half the time so
/// squeeze and expand have something to work on.
Shape viewBase(Gen& gen) {
  Shape s = gen.shape(1, 3);
  const auto rank = static_cast<std::int64_t>(s.size());
  if (gen.coin()) s[normalized(gen.dim(rank), rank)] = 1;
  return s;
}

void addViewCases(Gen& gen, std::vector<Case>& cases) {
  for (const OpKind rule : kViewRules) {
    for (const bool valid : {true, false}) {
      const Shape base = viewBase(gen);
      const View v = makeView(gen, rule, base, valid);
      // The view op itself.
      Case op{rule, {gen.value(base)}, v.attrs, v.valid};
      op.operands.insert(op.operands.end(), v.operands.begin(),
                         v.operands.end());
      cases.push_back(op);
      // Access through it: the same operands, the rule in "view".
      Case access = op;
      access.kind = OpKind::Access;
      access.attrs.push_back(
          {"view", ints(static_cast<std::int64_t>(rule))});
      cases.push_back(access);
      // Assign through it: a source that broadcasts to the region, or one
      // that does not.
      Case assign = access;
      assign.kind = OpKind::Assign;
      if (gen.coin()) assign.attrs.push_back({"inplace", Scalar(true)});
      Shape src = wider(base);
      if (const std::optional<Shape> region = executedShape(access)) {
        src = gen.coin() ? gen.broadcastable(*region) : wider(*region);
        assign.valid = src.size() <= region->size();
      }
      assign.operands.insert(assign.operands.begin() + 1, gen.value(src));
      cases.push_back(assign);
    }
  }
}

// ---- Every other leaf op ---------------------------------------------------

constexpr OpKind kBinary[] = {
    OpKind::Add, OpKind::Sub, OpKind::Mul,        OpKind::Div,
    OpKind::Pow, OpKind::Minimum, OpKind::Maximum, OpKind::Eq,
    OpKind::Ne,  OpKind::Lt,  OpKind::Le,         OpKind::Gt,
    OpKind::Ge,  OpKind::LogicalAnd, OpKind::LogicalOr};
constexpr OpKind kOneTensor[] = {OpKind::Neg,     OpKind::Exp,  OpKind::Log,
                             OpKind::Sqrt,    OpKind::Abs,  OpKind::Sigmoid,
                             OpKind::Tanh,    OpKind::Relu, OpKind::LogicalNot,
                             OpKind::Sum,     OpKind::Clone,
                             OpKind::Contiguous};
constexpr OpKind kScalarOps[] = {
    OpKind::ScalarAdd, OpKind::ScalarSub, OpKind::ScalarMul,
    OpKind::ScalarMod, OpKind::ScalarMin, OpKind::ScalarMax,
    OpKind::ScalarLt,  OpKind::ScalarLe,  OpKind::ScalarGt,
    OpKind::ScalarGe,  OpKind::ScalarEq,  OpKind::ScalarNe};
constexpr OpKind kDimReductions[] = {OpKind::SumDim, OpKind::Mean,
                                     OpKind::MaxDim, OpKind::MinDim,
                                     OpKind::Argmax, OpKind::Softmax,
                                     OpKind::Cumsum};
constexpr OpKind kWritesSource[] = {OpKind::Copy_, OpKind::Add_, OpKind::Sub_,
                                    OpKind::Mul_, OpKind::Div_};
constexpr OpKind kWritesSelf[] = {OpKind::Zero_, OpKind::Relu_,
                                  OpKind::Sigmoid_, OpKind::Tanh_};

/// Two shapes that do not broadcast against each other.
std::pair<Shape, Shape> clashing(Gen& gen) {
  Shape a = gen.shape(1, 3);
  Shape b = a;
  const auto d = static_cast<std::size_t>(
      gen.pick(0, static_cast<std::int64_t>(a.size()) - 1));
  a[d] = 2;
  b[d] = 3;
  return gen.coin() ? std::pair{a, b} : std::pair{b, a};
}

void addElementwiseCases(Gen& gen, std::vector<Case>& cases) {
  for (const OpKind kind : kBinary) {
    const Shape s = gen.shape();
    Case c{kind, {gen.value(s), gen.value(gen.broadcastable(s))}};
    if (gen.coin()) std::swap(c.operands[0], c.operands[1]);
    cases.push_back(c);
    const auto [a, b] = clashing(gen);
    cases.push_back({kind, {gen.value(a), gen.value(b)}, {}, false});
  }
  for (const OpKind kind : kOneTensor)
    cases.push_back({kind, {gen.value(gen.shape())}});
  cases.push_back({OpKind::Clamp,
                   {gen.value(gen.shape())},
                   {{"lo", Scalar(-0.5)}, {"hi", Scalar(gen.pick(0, 2))}}});
  cases.push_back(
      {OpKind::Cast, {gen.value(gen.shape())}, {{"dtype", gen.dtype()}}});
  // A scalar where a tensor belongs.
  cases.push_back({OpKind::Exp, {RtValue(gen.scalar())}, {}, false});

  // where(cond, a, b): cond must be Bool.
  {
    const Shape s = gen.shape();
    std::vector<RtValue> ops{
        RtValue(gen.tensor(gen.broadcastable(s), DType::Bool)),
        gen.value(gen.broadcastable(s)), gen.value(s)};
    if (gen.coin()) std::swap(ops[1], ops[2]);
    cases.push_back({OpKind::Where, ops});
    ops[0] = RtValue(gen.tensor(ops[0].tensor().sizes(),
                                gen.coin() ? DType::Float32 : DType::Int64));
    cases.push_back({OpKind::Where, ops, {}, false});
    const auto [a, b] = clashing(gen);
    cases.push_back({OpKind::Where,
                     {RtValue(gen.tensor(a, DType::Bool)), gen.value(b),
                      gen.value(b)},
                     {},
                     false});
  }
  // masked_fill(a, mask, value) and its in-place form: mask must be Bool.
  // A mask wider than `a` widens the result, which the in-place form cannot
  // write back.
  for (const OpKind kind : {OpKind::MaskedFill, OpKind::MaskedFill_}) {
    const Shape s = gen.shape();
    auto masked = [&](const Shape& a, const Shape& m, DType dtype, bool valid) {
      cases.push_back({kind,
                       {gen.value(a), RtValue(gen.tensor(m, dtype)),
                        RtValue(gen.scalar())},
                       {},
                       valid});
    };
    masked(s, gen.broadcastable(s), DType::Bool, true);
    masked(s, gen.broadcastable(s), DType::Float32, false);
    masked(s, wider(s), DType::Bool, kind == OpKind::MaskedFill);
    const auto [a, m] = clashing(gen);
    masked(a, m, DType::Bool, false);
  }
  // In-place writes: the source broadcasts to the target.
  for (const OpKind kind : kWritesSource) {
    const Shape s = gen.shape();
    cases.push_back({kind, {gen.value(s), gen.value(gen.broadcastable(s))}});
    cases.push_back({kind, {gen.value(s), gen.value(wider(s))}, {}, false});
    Shape unit = gen.shape(1, 3);
    Shape three = unit;
    unit[0] = 1;
    three[0] = 3;
    cases.push_back({kind, {gen.value(unit), gen.value(three)}, {}, false});
  }
  for (const OpKind kind : kWritesSelf)
    cases.push_back({kind, {gen.value(gen.shape())}});
  cases.push_back(
      {OpKind::Fill_, {gen.value(gen.shape()), RtValue(gen.scalar())}});
}

void addReductionCases(Gen& gen, std::vector<Case>& cases) {
  for (const OpKind kind : kDimReductions) {
    const Shape s = gen.shape(1, 3);
    const auto rank = static_cast<std::int64_t>(s.size());
    Attrs attrs{{"dim", ints(gen.dim(rank))}};
    if (gen.coin()) attrs.push_back({"keepdim", Scalar(gen.coin())});
    cases.push_back({kind, {gen.value(s)}, attrs});
    cases.push_back({kind, {gen.value(s)}, {{"dim", ints(rank)}}, false});
    // An empty reduced dim: sum, mean and cumsum have an identity; max, min,
    // argmax and softmax (which takes a max first) do not.
    Shape empty = s;
    const std::int64_t d = gen.pick(0, rank - 1);
    empty[static_cast<std::size_t>(d)] = 0;
    const bool identity = kind == OpKind::SumDim || kind == OpKind::Mean ||
                          kind == OpKind::Cumsum;
    cases.push_back({kind, {gen.value(empty)}, {{"dim", ints(d)}}, identity});
  }
  cases.push_back({OpKind::Sum, {gen.value({2, 0})}});
}

void addLinalgCases(Gen& gen, std::vector<Case>& cases) {
  const std::int64_t m = gen.pick(1, 4), k = gen.pick(1, 4), n = gen.pick(1, 4),
                     batch = gen.pick(1, 3);
  const Shape a2{m, k}, b2{k, n}, a3{batch, m, k}, b3{batch, k, n};
  cases.push_back({OpKind::Matmul, {gen.value(a2), gen.value(b2)}});
  cases.push_back({OpKind::Matmul, {gen.value(a3), gen.value(b3)}});
  cases.push_back({OpKind::Bmm, {gen.value(a3), gen.value(b3)}});
  cases.push_back(
      {OpKind::Matmul, {gen.value(a2), gen.value({k + 1, n})}, {}, false});
  cases.push_back({OpKind::Matmul, {gen.value(a2), gen.value(b3)}, {}, false});
  cases.push_back({OpKind::Matmul, {gen.value({k}), gen.value(b2)}, {}, false});
  cases.push_back({OpKind::Bmm, {gen.value(a2), gen.value(b2)}, {}, false});
  cases.push_back(
      {OpKind::Bmm, {gen.value(a3), gen.value({batch + 1, k, n})}, {}, false});
  cases.push_back(
      {OpKind::Bmm, {gen.value(a3), gen.value({batch, k + 1, n})}, {}, false});
}

RtValue list(Gen& gen, const std::vector<Shape>& shapes) {
  std::vector<Tensor> out;
  for (const Shape& s : shapes) out.push_back(gen.tensor(s));
  return RtValue(std::move(out));
}

void addShapeOpCases(Gen& gen, std::vector<Case>& cases) {
  auto add = [&](OpKind kind, std::vector<RtValue> ops, Attrs attrs,
                 bool valid = true) {
    cases.push_back({kind, std::move(ops), std::move(attrs), valid});
  };
  // cat / stack over a list operand.
  {
    const Shape s = gen.shape(1, 3);
    const auto rank = static_cast<std::int64_t>(s.size());
    const std::int64_t d = gen.dim(rank);
    const std::size_t du = normalized(d, rank);
    std::vector<Shape> parts(static_cast<std::size_t>(gen.pick(1, 3)), s);
    for (Shape& p : parts) p[du] = gen.pick(0, 3);
    add(OpKind::Cat, {list(gen, parts)}, dimAttr(d));
    std::vector<Shape> bad = parts;
    bad.push_back(wider(s));  // rank mismatch
    add(OpKind::Cat, {list(gen, bad)}, dimAttr(d), false);
    if (rank > 1) {
      bad = parts;
      bad.push_back(s);
      bad.back()[(du + 1) % s.size()] += 1;  // mismatch off the cat dim
      add(OpKind::Cat, {list(gen, bad)}, dimAttr(d), false);
    }
    add(OpKind::Cat, {list(gen, {})}, dimAttr(0), false);
    add(OpKind::Cat, {list(gen, {s})}, dimAttr(rank), false);

    const std::vector<Shape> same(static_cast<std::size_t>(gen.pick(1, 3)), s);
    const std::int64_t sd = gen.pick(-rank - 1, rank);
    add(OpKind::Stack, {list(gen, same)}, dimAttr(sd));
    bad = same;
    bad.push_back(s);
    bad.back()[0] += 1;
    add(OpKind::Stack, {list(gen, bad)}, dimAttr(sd), false);
    // An operand of a lower rank than the first, stacked past its last dim.
    bad = same;
    bad.push_back(Shape(s.begin() + 1, s.end()));
    add(OpKind::Stack, {list(gen, bad)}, dimAttr(rank), false);
    add(OpKind::Stack, {list(gen, same)}, dimAttr(rank + 2), false);
    add(OpKind::Stack, {list(gen, {})}, dimAttr(0), false);

    add(OpKind::ListConstruct, {gen.value(s), gen.value(wider(s))}, {});
    const RtValue items = list(gen, parts);
    const auto len = static_cast<std::int64_t>(parts.size());
    add(OpKind::ListIndex, {items, RtValue(gen.pick(0, len - 1))}, {});
    add(OpKind::ListIndex, {items, RtValue(len)}, {}, false);
  }
  // index_select: a 1-D Int64 index.
  {
    const Shape s = gen.shape(1, 3);
    const auto rank = static_cast<std::int64_t>(s.size());
    const std::int64_t d = gen.dim(rank);
    const std::int64_t extent = s[normalized(d, rank)];
    const Tensor index = gen.index({gen.pick(0, 4)}, extent);
    add(OpKind::IndexSelect, {gen.value(s), RtValue(index)}, dimAttr(d));
    add(OpKind::IndexSelect, {gen.value(s), RtValue(gen.index({2, 2}, extent))},
        dimAttr(d), false);
    add(OpKind::IndexSelect,
        {gen.value(s), RtValue(index.to(DType::Float32))}, dimAttr(d), false);
    add(OpKind::IndexSelect, {gen.value(s), RtValue(index)}, dimAttr(rank),
        false);
  }
  // gather: an Int64 index of a's rank, inside a off the gather dim.
  {
    const Shape s = gen.shape(1, 3);
    const auto rank = static_cast<std::int64_t>(s.size());
    const std::int64_t d = gen.dim(rank);
    const std::size_t du = normalized(d, rank);
    Shape is = s;
    for (std::size_t i = 0; i < is.size(); ++i)
      is[i] = i == du ? gen.pick(0, 3) : gen.pick(1, s[i]);
    const Tensor index = gen.index(is, s[du]);
    add(OpKind::Gather, {gen.value(s), RtValue(index)}, dimAttr(d));
    add(OpKind::Gather, {gen.value(s), RtValue(index.to(DType::Float32))},
        dimAttr(d), false);
    add(OpKind::Gather, {gen.value(s), RtValue(gen.index(wider(is), s[du]))},
        dimAttr(d), false);
    if (rank > 1) {
      Shape big = is;
      big[(du + 1) % big.size()] = s[(du + 1) % s.size()] + 1;
      add(OpKind::Gather, {gen.value(s), RtValue(gen.index(big, s[du]))},
          dimAttr(d), false);
    }
  }
  // topk (two outputs) and argsort: along the last dim.
  {
    const Shape s = gen.shape(1, 3);
    Case topk{OpKind::Topk, {gen.value(s)},
              {{"k", ints(gen.pick(0, s.back()))}}};
    topk.outputs = 2;
    cases.push_back(topk);
    topk.attrs = {{"k", ints(s.back() + 1)}};
    topk.valid = false;
    cases.push_back(topk);
    topk.operands = {gen.value({})};
    topk.attrs = {{"k", ints(0)}};
    cases.push_back(topk);
    add(OpKind::Argsort, {gen.value(s)}, {{"descending", Scalar(gen.coin())}});
    add(OpKind::Argsort, {gen.value({})}, {{"descending", Scalar(true)}},
        false);
  }
  add(OpKind::SizeOf, {gen.value(gen.shape(1, 3))}, dimAttr(-1));
  add(OpKind::SizeOf, {gen.value(gen.shape(0, 2))}, dimAttr(3), false);
}

void addFactoryCases(Gen& gen, std::vector<Case>& cases) {
  const Shape s = gen.shape();
  for (const OpKind kind : {OpKind::Zeros, OpKind::Ones, OpKind::Full}) {
    std::vector<RtValue> ops;
    if (kind == OpKind::Full) ops.push_back(RtValue(gen.scalar()));
    cases.push_back({kind, ops, {{"sizes", s}, {"dtype", gen.dtype()}}});
    if (s.empty()) continue;
    // Symbolic-dim form: every extent bound from an operand; a negative one
    // is rejected.
    for (const std::int64_t e : s) ops.push_back(RtValue(Scalar(e)));
    const Attrs dyn{{"sizes", Shape(s.size(), -1)},
                    {"dtype", gen.dtype()},
                    {"dyn", ints(static_cast<std::int64_t>(s.size()))}};
    cases.push_back({kind, ops, dyn});
    ops.back() = RtValue(std::int64_t{-2});
    cases.push_back({kind, ops, dyn, false});
  }
  const RtValue start(gen.pick(-5, 5)), end(gen.pick(-5, 5));
  const std::int64_t step = gen.pick(1, 3) * (gen.coin() ? 1 : -1);
  cases.push_back({OpKind::Arange, {start, end, RtValue(step)}});
  cases.push_back(
      {OpKind::Arange, {start, end, RtValue(std::int64_t{0})}, {}, false});
  cases.push_back({OpKind::Constant, {}, {{"tensor", gen.tensor(s)}}});
  cases.push_back({OpKind::Constant, {}, {{"value", gen.scalar()}}});
}

void addScalarCases(Gen& gen, std::vector<Case>& cases) {
  for (const OpKind kind : kScalarOps) {
    const Scalar a = gen.coin() ? Scalar(gen.pick(-5, 5)) : gen.scalar();
    const Scalar b = gen.coin() ? Scalar(gen.pick(1, 5)) : gen.scalar();
    const bool valid = kind != OpKind::ScalarMod ||
                       (!a.isFloat() && !b.isFloat() && b.toInt() != 0);
    cases.push_back({kind, {RtValue(a), RtValue(b)}, {}, valid});
  }
  cases.push_back({OpKind::ScalarMod,
                   {RtValue(std::int64_t{4}), RtValue(std::int64_t{0})},
                   {},
                   false});
}

std::vector<Case> generate(std::uint64_t seed) {
  Gen gen(seed);
  std::vector<Case> cases;
  addViewCases(gen, cases);
  addElementwiseCases(gen, cases);
  addReductionCases(gen, cases);
  addLinalgCases(gen, cases);
  addShapeOpCases(gen, cases);
  addFactoryCases(gen, cases);
  addScalarCases(gen, cases);
  return cases;
}

constexpr std::uint64_t kSeeds = 40;

TEST(OpRulesOracleTest, InferredMetadataMatchesExecution) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const Case& c : generate(seed)) check(c);
  }
}

TEST(OpRulesOracleTest, CoversEveryLeafOp) {
  // Every op the interpreter executes as a leaf (all but control flow,
  // fusion groups and the two annotation-only kinds) has both accepted and
  // rejected operand sets, except where no rule can reject.
  std::set<OpKind> accepted, rejected;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    for (const Case& c : generate(seed))
      (c.valid ? accepted : rejected).insert(c.kind);
  }
  const std::set<OpKind> notLeaf{OpKind::If,     OpKind::Loop,
                                 OpKind::Return, OpKind::Update,
                                 OpKind::FusionGroup, OpKind::ParallelMap};
  const std::set<OpKind> nothingToReject{
      OpKind::Constant, OpKind::ListConstruct, OpKind::Identity,
      OpKind::Neg,      OpKind::Log,           OpKind::Sqrt,
      OpKind::Abs,      OpKind::Sigmoid,       OpKind::Tanh,
      OpKind::Relu,     OpKind::LogicalNot,    OpKind::Clamp,
      OpKind::Cast,     OpKind::Sum,           OpKind::Clone,
      OpKind::Contiguous, OpKind::Fill_,       OpKind::Zero_,
      OpKind::Relu_,    OpKind::Sigmoid_,      OpKind::Tanh_,
      OpKind::ScalarAdd, OpKind::ScalarSub,    OpKind::ScalarMul,
      OpKind::ScalarMin, OpKind::ScalarMax,    OpKind::ScalarLt,
      OpKind::ScalarLe, OpKind::ScalarGt,      OpKind::ScalarGe,
      OpKind::ScalarEq, OpKind::ScalarNe};
#define TSSA_CHECK_COVERED(name, str, cat)                                  \
  if (!notLeaf.count(OpKind::name)) {                                      \
    EXPECT_TRUE(accepted.count(OpKind::name)) << str << " never accepted"; \
    if (!nothingToReject.count(OpKind::name)) {                            \
      EXPECT_TRUE(rejected.count(OpKind::name)) << str << " never rejected"; \
    }                                                                      \
  }
  TSSA_FOREACH_OPKIND(TSSA_CHECK_COVERED)
#undef TSSA_CHECK_COVERED
}

}  // namespace
}  // namespace tssa
