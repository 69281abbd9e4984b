// Unit tests for the out-of-place operator library.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "src/tensor/ops.h"
#include "src/tensor/random.h"
#include "tests/ops_reference.h"
#include "tests/property_gen.h"

namespace tssa {
namespace {

TEST(OpsTest, AddBroadcast) {
  Tensor a = Tensor::fromData({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::fromData({10, 20, 30}, {3});
  Tensor c = ops::add(a, b);
  EXPECT_EQ(c.sizes(), (Shape{2, 3}));
  EXPECT_EQ(c.scalarAt(Shape{1, 2}), 36.0);
  Tensor d = ops::add(a, Scalar(1.0));
  EXPECT_EQ(d.scalarAtLinear(0), 2.0);
}

TEST(OpsTest, ArithOnViews) {
  Tensor a = Tensor::fromData({1, 2, 3, 4}, {2, 2});
  Tensor t = a.transpose(0, 1);  // non-contiguous operand
  Tensor c = ops::mul(t, t);
  EXPECT_EQ(c.scalarAt(Shape{0, 1}), 9.0);
  EXPECT_EQ(c.scalarAt(Shape{1, 0}), 4.0);
}

TEST(OpsTest, IntPromotion) {
  Tensor a = Tensor::arange(3);  // Int64
  Tensor b = Tensor::fromData({0.5f, 0.5f, 0.5f}, {3});
  Tensor c = ops::add(a, b);
  EXPECT_EQ(c.dtype(), DType::Float32);
  EXPECT_FLOAT_EQ(static_cast<float>(c.scalarAtLinear(2)), 2.5f);
  Tensor d = ops::div(a, Scalar(2));
  EXPECT_EQ(d.dtype(), DType::Float32);
}

TEST(OpsTest, UnaryMath) {
  Tensor a = Tensor::fromData({-1, 0, 1}, {3});
  EXPECT_EQ(ops::relu(a).scalarAtLinear(0), 0.0);
  EXPECT_EQ(ops::neg(a).scalarAtLinear(2), -1.0);
  EXPECT_NEAR(ops::sigmoid(a).scalarAtLinear(1), 0.5, 1e-6);
  EXPECT_NEAR(ops::tanh(a).scalarAtLinear(2), std::tanh(1.0), 1e-6);
  EXPECT_NEAR(ops::exp(a).scalarAtLinear(2), std::exp(1.0), 1e-6);
  EXPECT_EQ(ops::abs(a).scalarAtLinear(0), 1.0);
  EXPECT_EQ(ops::clamp(a, Scalar(-0.5), Scalar(0.5)).scalarAtLinear(0), -0.5);
}

TEST(OpsTest, Comparisons) {
  Tensor a = Tensor::fromData({1, 2, 3}, {3});
  Tensor b = Tensor::fromData({3, 2, 1}, {3});
  Tensor lt = ops::lt(a, b);
  EXPECT_EQ(lt.dtype(), DType::Bool);
  EXPECT_EQ(lt.scalarAtLinear(0), 1);
  EXPECT_EQ(lt.scalarAtLinear(1), 0);
  EXPECT_EQ(ops::ge(a, b).scalarAtLinear(1), 1);
  EXPECT_EQ(ops::logicalNot(lt).scalarAtLinear(0), 0);
}

TEST(OpsTest, WhereAndMaskedFill) {
  Tensor cond = Tensor::fromData({1, 0, 1}, {3}).to(DType::Bool);
  Tensor a = Tensor::fromData({10, 20, 30}, {3});
  Tensor b = Tensor::fromData({-1, -2, -3}, {3});
  Tensor w = ops::where(cond, a, b);
  EXPECT_EQ(w.scalarAtLinear(0), 10.0);
  EXPECT_EQ(w.scalarAtLinear(1), -2.0);
  Tensor mf = ops::maskedFill(a, cond, Scalar(0.0));
  EXPECT_EQ(mf.scalarAtLinear(0), 0.0);
  EXPECT_EQ(mf.scalarAtLinear(1), 20.0);
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::fromData({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_EQ(ops::sum(a).item().toDouble(), 21.0);
  Tensor s0 = ops::sum(a, 0);
  EXPECT_EQ(s0.sizes(), (Shape{3}));
  EXPECT_EQ(s0.scalarAtLinear(0), 5.0);
  Tensor s1k = ops::sum(a, 1, /*keepDim=*/true);
  EXPECT_EQ(s1k.sizes(), (Shape{2, 1}));
  EXPECT_EQ(s1k.scalarAtLinear(1), 15.0);
  EXPECT_EQ(ops::maxReduce(a, 1).scalarAtLinear(0), 3.0);
  EXPECT_EQ(ops::minReduce(a, 0).scalarAtLinear(2), 3.0);
  EXPECT_EQ(ops::mean(a, 1).scalarAtLinear(0), 2.0);
  Tensor am = ops::argmax(a, 1);
  EXPECT_EQ(am.dtype(), DType::Int64);
  EXPECT_EQ(am.scalarAtLinear(0), 2);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(7);
  Tensor a = rng.uniform({4, 9}, -5, 5);
  Tensor s = ops::softmax(a, 1);
  Tensor rows = ops::sum(s, 1);
  for (std::int64_t i = 0; i < 4; ++i)
    EXPECT_NEAR(rows.scalarAtLinear(i), 1.0, 1e-5);
  // Stability: huge logits must not produce NaN.
  Tensor big = Tensor::full({2, 2}, Scalar(1e30f));
  Tensor sb = ops::softmax(big, 1);
  EXPECT_NEAR(sb.scalarAtLinear(0), 0.5, 1e-5);
}

TEST(OpsTest, MatmulSmall) {
  Tensor a = Tensor::fromData({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::fromData({5, 6, 7, 8}, {2, 2});
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.scalarAt(Shape{0, 0}), 19.0);
  EXPECT_EQ(c.scalarAt(Shape{0, 1}), 22.0);
  EXPECT_EQ(c.scalarAt(Shape{1, 0}), 43.0);
  EXPECT_EQ(c.scalarAt(Shape{1, 1}), 50.0);
  EXPECT_THROW(ops::matmul(a, Tensor::zeros({3, 2})), Error);
}

TEST(OpsTest, BmmMatchesPerBatchMatmul) {
  Rng rng(3);
  Tensor a = rng.uniform({2, 3, 4});
  Tensor b = rng.uniform({2, 4, 5});
  Tensor c = ops::bmm(a, b);
  EXPECT_EQ(c.sizes(), (Shape{2, 3, 5}));
  Tensor c0 = ops::matmul(a.select(0, 0), b.select(0, 0));
  EXPECT_TRUE(allClose(c.select(0, 0), c0));
}

TEST(OpsTest, CatAndStack) {
  Tensor a = Tensor::fromData({1, 2}, {1, 2});
  Tensor b = Tensor::fromData({3, 4, 5, 6}, {2, 2});
  std::vector<Tensor> parts{a, b};
  Tensor c = ops::cat(parts, 0);
  EXPECT_EQ(c.sizes(), (Shape{3, 2}));
  EXPECT_EQ(c.scalarAt(Shape{2, 1}), 6.0);

  std::vector<Tensor> rows{Tensor::fromData({1, 2}, {2}),
                           Tensor::fromData({3, 4}, {2})};
  Tensor s = ops::stack(rows, 0);
  EXPECT_EQ(s.sizes(), (Shape{2, 2}));
  Tensor s1 = ops::stack(rows, 1);
  EXPECT_EQ(s1.sizes(), (Shape{2, 2}));
  EXPECT_EQ(s1.scalarAt(Shape{0, 1}), 3.0);
}

TEST(OpsTest, IndexSelectAndGather) {
  Tensor a = Tensor::fromData({10, 11, 20, 21, 30, 31}, {3, 2});
  Tensor idx = Tensor::fromData(std::vector<std::int64_t>{2, 0}, {2});
  Tensor sel = ops::indexSelect(a, 0, idx);
  EXPECT_EQ(sel.sizes(), (Shape{2, 2}));
  EXPECT_EQ(sel.scalarAt(Shape{0, 0}), 30.0);
  EXPECT_EQ(sel.scalarAt(Shape{1, 1}), 11.0);

  Tensor gidx = Tensor::fromData(std::vector<std::int64_t>{1, 0, 0, 1, 2, 2},
                                 {3, 2});
  Tensor g = ops::gather(a, 0, gidx);
  EXPECT_EQ(g.scalarAt(Shape{0, 0}), 20.0);
  EXPECT_EQ(g.scalarAt(Shape{2, 1}), 31.0);
}

TEST(OpsTest, TopkArgsortCumsum) {
  Tensor a = Tensor::fromData({3, 1, 4, 1, 5}, {5});
  auto [values, indices] = ops::topk(a, 3);
  EXPECT_EQ(values.scalarAtLinear(0), 5.0);
  EXPECT_EQ(indices.scalarAtLinear(0), 4);
  EXPECT_EQ(values.scalarAtLinear(2), 3.0);

  Tensor order = ops::argsort(a, /*descending=*/true);
  EXPECT_EQ(order.scalarAtLinear(0), 4);
  EXPECT_EQ(order.scalarAtLinear(1), 2);

  Tensor cs = ops::cumsum(a, 0);
  EXPECT_EQ(cs.scalarAtLinear(4), 14.0);
}

// ---- Bitwise oracle for the row-loop kernels ----------------------------------
//
// The kernels walk typed rows; their outputs must match the per-element
// references of tests/ops_reference.h byte for byte on random shapes, views
// and dtypes from ViewedTensorGenerator.

using namespace testing_support::reference;
using testing_support::ViewedTensorGenerator;

/// gtest form of sameBits, printing both tensors on a mismatch.
::testing::AssertionResult bitwiseEqual(const Tensor& got,
                                        const Tensor& want) {
  if (sameBits(got, want)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << got << "\n  vs\n" << want;
}

constexpr int kOracleReps = 300;

TEST(OpsOracleTest, CastsMatchPerElementReference) {
  Rng rng(101);
  ViewedTensorGenerator gen(rng);
  for (int rep = 0; rep < kOracleReps; ++rep) {
    const DType from = gen.dtype();
    const DType to = gen.dtype();
    // NaN, ±inf and out-of-range values cast to Int64 as INT64_MIN.
    const Tensor a = gen.viewOf(gen.shape(), from, false).view();
    SCOPED_TRACE(a.toString() + " -> " + dtypeName(to));
    EXPECT_TRUE(bitwiseEqual(a.to(to), refTo(a, to)));
    EXPECT_TRUE(bitwiseEqual(a.clone(), refTo(a, from)));
  }
}

TEST(OpsOracleTest, CopyIntoViewsMatchesPerElementReference) {
  Rng rng(102);
  ViewedTensorGenerator gen(rng);
  for (int rep = 0; rep < kOracleReps; ++rep) {
    const DType dstType = gen.dtype();
    const Shape shape = gen.shape();
    const ViewedTensorGenerator::Viewed dst =
        gen.viewOf(shape, dstType, false, /*writable=*/true);
    const Tensor src =
        gen.viewOf(gen.broadcastableTo(shape), gen.dtype(), false).view();
    SCOPED_TRACE(src.toString() + " into " + dst.view().toString());
    const Tensor got = dst.base.clone();
    dst.recipe.on(got).copy_(src);
    Tensor want = dst.base.clone();
    Tensor wantView = dst.recipe.on(want);
    refCopy(wantView, src);
    EXPECT_TRUE(bitwiseEqual(got, want));
  }
}

TEST(OpsOracleTest, OverlappingCopyMatchesSnapshotReference) {
  Rng rng(103);
  ViewedTensorGenerator gen(rng);
  for (int rep = 0; rep < kOracleReps; ++rep) {
    const std::int64_t n = rng.nextInt(1, 6);
    const DType dtype = gen.dtype();
    const Tensor base = gen.values({n, n}, dtype, false);
    // Destination and source are views of one buffer.
    std::function<Tensor(const Tensor&)> dstOf, srcOf;
    switch (rng.nextInt(0, 4)) {
      case 0:  // self copy
        dstOf = srcOf = [](const Tensor& t) { return t; };
        break;
      case 1:  // transpose onto itself
        dstOf = [](const Tensor& t) { return t; };
        srcOf = [](const Tensor& t) { return t.transpose(0, 1); };
        break;
      case 2:  // shifted rows
        dstOf = [n](const Tensor& t) { return t.slice(0, 1, n); };
        srcOf = [n](const Tensor& t) { return t.slice(0, 0, n - 1); };
        break;
      case 3:  // one row broadcast over the whole buffer
        dstOf = [](const Tensor& t) { return t; };
        srcOf = [n](const Tensor& t) { return t.select(0, n - 1); };
        break;
      default:  // a column into a row
        dstOf = [](const Tensor& t) { return t.select(0, 0); };
        srcOf = [](const Tensor& t) { return t.select(1, 0); };
        break;
    }
    const Tensor got = base.clone();
    dstOf(got).copy_(srcOf(got));
    const Tensor want = base.clone();
    Tensor wantDst = dstOf(want);
    refCopy(wantDst, srcOf(want));
    EXPECT_TRUE(bitwiseEqual(got, want)) << "n=" << n;
  }
}

TEST(OpsOracleTest, FillOnViewsMatchesPerElementReference) {
  Rng rng(104);
  ViewedTensorGenerator gen(rng);
  for (int rep = 0; rep < kOracleReps; ++rep) {
    const DType dtype = gen.dtype();
    const ViewedTensorGenerator::Viewed v = gen.viewOf(gen.shape(), dtype,
                                                       false);
    const Scalar value =
        dtype == DType::Float32
            ? Scalar(gen.values({}, DType::Float32, false).scalarAt({}))
            : Scalar(rng.nextInt(-3, 3));
    const Tensor got = v.base.clone();
    v.recipe.on(got).fill_(value);
    const Tensor want = v.base.clone();
    Tensor wantView = v.recipe.on(want);
    for (IndexIterator it(wantView.sizes()); it.valid(); it.next())
      wantView.setScalarAt(it.index(), value.toDouble());
    EXPECT_TRUE(bitwiseEqual(got, want)) << v.view();
  }
}

TEST(OpsOracleTest, ReductionsOverEveryDimMatchPerElementReference) {
  Rng rng(105);
  ViewedTensorGenerator gen(rng);
  for (int rep = 0; rep < kOracleReps; ++rep) {
    const Tensor a =
        gen.viewOf(gen.shape(), gen.dtype(), rng.nextBool(0.3)).view();
    SCOPED_TRACE(a.toString());
    EXPECT_TRUE(bitwiseEqual(ops::sum(a), refSumAll(a)));
    for (std::int64_t d = -a.dim(); d < a.dim(); ++d) {
      const bool keep = rng.nextBool();
      SCOPED_TRACE("dim " + std::to_string(d));
      EXPECT_TRUE(bitwiseEqual(ops::sum(a, d, keep),
                               refReduce(a, d, keep, Reduce::Sum)));
      EXPECT_TRUE(bitwiseEqual(ops::mean(a, d, keep),
                               refReduce(a, d, keep, Reduce::Mean)));
      if (a.size(d) == 0) {
        EXPECT_THROW(ops::maxReduce(a, d, keep), Error);
        EXPECT_THROW(ops::argmax(a, d, keep), Error);
        continue;
      }
      EXPECT_TRUE(bitwiseEqual(ops::maxReduce(a, d, keep),
                               refReduce(a, d, keep, Reduce::Max)));
      EXPECT_TRUE(bitwiseEqual(ops::minReduce(a, d, keep),
                               refReduce(a, d, keep, Reduce::Min)));
      EXPECT_TRUE(bitwiseEqual(ops::argmax(a, d, keep), refArgmax(a, d, keep)));
    }
  }
}

TEST(OpsOracleTest, SoftmaxMatchesComposedReference) {
  Rng rng(109);
  ViewedTensorGenerator gen(rng);
  for (int rep = 0; rep < kOracleReps; ++rep) {
    Shape shape = gen.shape(3);
    if (rng.nextBool(0.5)) shape.push_back(rng.nextInt(6, 40));
    const Tensor a = gen.viewOf(shape, gen.dtype(), rng.nextBool(0.3)).view();
    SCOPED_TRACE(a.toString());
    for (std::int64_t d = -a.dim(); d < a.dim(); ++d) {
      SCOPED_TRACE("dim " + std::to_string(d));
      if (a.size(d) == 0) {
        EXPECT_THROW(ops::softmax(a, d), Error);
        continue;
      }
      EXPECT_TRUE(bitwiseEqual(ops::softmax(a, d), refSoftmax(a, d)));
    }
  }
  // A row holding a NaN is all NaN, and so is a row of -inf (-inf - -inf)
  // and a row holding +inf (inf - inf enters the sum); -inf beside finite
  // values is 0.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor rows = Tensor::empty({4, 19});
  float* p = rows.data<float>();
  for (std::int64_t j = 0; j < 19; ++j) {
    p[j] = j == 11 ? nan : 0.25f * static_cast<float>(j);
    p[19 + j] = -kInf;
    p[2 * 19 + j] = j == 3 ? kInf : -1.0f;
    p[3 * 19 + j] = j % 2 == 0 ? -kInf : 0.5f;
  }
  for (const std::int64_t d : {0, 1}) {
    const Tensor got = ops::softmax(rows, d);
    EXPECT_TRUE(bitwiseEqual(got, refSoftmax(rows, d))) << "dim " << d;
  }
  const Tensor got = ops::softmax(rows, 1);
  const float* q = got.data<float>();
  for (std::int64_t j = 0; j < 3 * 19; ++j) EXPECT_TRUE(std::isnan(q[j])) << j;
  EXPECT_EQ(q[3 * 19], 0.0f);
  EXPECT_GT(q[3 * 19 + 1], 0.0f);
}

TEST(OpsOracleTest, MatmulAndBmmMatchPlainLoop) {
  Rng rng(106);
  ViewedTensorGenerator gen(rng);
  for (int rep = 0; rep < kOracleReps; ++rep) {
    // Past 4 rows and 256 columns the kernel's row blocks and column tiles
    // have ragged edges.
    const std::int64_t m = rng.nextInt(0, 9);
    const std::int64_t k = rng.nextInt(0, 6);
    const std::int64_t n = rng.nextBool(0.2) ? rng.nextInt(250, 520)
                                             : rng.nextInt(0, 9);
    const Tensor a = gen.viewOf({m, k}, gen.dtype(), false).view();
    const Tensor b = gen.viewOf({k, n}, gen.dtype(), false).view();
    SCOPED_TRACE(a.toString() + " x " + b.toString());
    EXPECT_TRUE(bitwiseEqual(ops::matmul(a, b), refMatmul(a, b)));

    const std::int64_t batch = rng.nextInt(1, 3);
    const Tensor ba = gen.viewOf({batch, m, k}, gen.dtype(), false).view();
    const Tensor bb = gen.viewOf({batch, k, n}, gen.dtype(), false).view();
    std::vector<Tensor> slices;
    for (std::int64_t i = 0; i < batch; ++i)
      slices.push_back(refMatmul(ba.select(0, i), bb.select(0, i)));
    EXPECT_TRUE(bitwiseEqual(ops::bmm(ba, bb), ops::stack(slices, 0)));
  }
  const Tensor none =
      ops::bmm(Tensor::zeros({0, 2, 3}), Tensor::zeros({0, 3, 4}));
  EXPECT_EQ(none.sizes(), (Shape{0, 2, 4}));
}

TEST(OpsOracleTest, ElementwiseGeneralPathsMatchPerElementReference) {
  using Binary = Tensor (*)(const Tensor&, const Tensor&);
  struct BinaryCase {
    const char* name;
    Binary op;
    std::function<double(double, double)> fn;
    bool arith;  ///< result dtype promotes; else Bool (compare) or Float32
    bool toFloat;
  };
  const BinaryCase binaries[] = {
      {"add", ops::add, [](double x, double y) { return x + y; }, true, false},
      {"sub", ops::sub, [](double x, double y) { return x - y; }, true, false},
      {"mul", ops::mul, [](double x, double y) { return x * y; }, true, false},
      {"div", ops::div, [](double x, double y) { return x / y; }, false, true},
      {"maximum", ops::maximum,
       [](double x, double y) { return std::max(x, y); }, true, false},
      {"lt", ops::lt, [](double x, double y) { return x < y ? 1.0 : 0.0; },
       false, false},
      {"eq", ops::eq, [](double x, double y) { return x == y ? 1.0 : 0.0; },
       false, false},
  };
  using Unary = Tensor (*)(const Tensor&);
  struct UnaryCase {
    const char* name;
    Unary op;
    std::function<double(double)> fn;
    bool keepsDType;
  };
  const UnaryCase unaries[] = {
      {"neg", ops::neg, [](double x) { return -x; }, true},
      {"relu", ops::relu, [](double x) { return x > 0 ? x : 0.0; }, true},
      {"exp", ops::exp, refExp, false},
      {"log", ops::log, refLog, false},
      {"tanh", ops::tanh, refTanh, false},
      {"sigmoid", ops::sigmoid, refSigmoid, false},
      {"sqrt", ops::sqrt, [](double x) { return std::sqrt(x); }, false},
  };
  Rng rng(107);
  ViewedTensorGenerator gen(rng);
  for (int rep = 0; rep < kOracleReps; ++rep) {
    const Shape shape = gen.shape();
    const DType da = gen.dtype();
    const DType db = gen.dtype();
    // Int64 results come from Int64/Bool operands only, so every value
    // stored into Int64 is finite.
    const Tensor a = gen.viewOf(gen.broadcastableTo(shape), da, false).view();
    const Tensor b = gen.viewOf(shape, db, false).view();
    SCOPED_TRACE(a.toString() + " , " + b.toString());
    for (const BinaryCase& c : binaries) {
      const DType out = c.arith     ? promoteTypes(da, db)
                        : c.toFloat ? DType::Float32
                                    : DType::Bool;
      EXPECT_TRUE(bitwiseEqual(c.op(a, b), refBinary(a, b, out, c.fn)))
          << c.name;
      EXPECT_TRUE(bitwiseEqual(c.op(b, a), refBinary(b, a, out, c.fn)))
          << c.name << " (swapped)";
    }
    for (const UnaryCase& c : unaries) {
      const DType out = c.keepsDType ? db : DType::Float32;
      EXPECT_TRUE(bitwiseEqual(c.op(b), refUnary(b, out, c.fn))) << c.name;
    }
    const Tensor cond =
        gen.viewOf(gen.broadcastableTo(shape), DType::Bool, false).view();
    EXPECT_TRUE(bitwiseEqual(ops::where(cond, a, b), refWhere(cond, a, b)));
    EXPECT_TRUE(bitwiseEqual(ops::where(cond, b, a), refWhere(cond, b, a)));
  }
}

/// Rank >= 1 with a last dim that is sometimes long enough for
/// std::stable_sort's merge passes (it insertion-sorts short runs).
Shape sortShape(Rng& rng, ViewedTensorGenerator& gen) {
  Shape s = gen.shape(3);
  s.push_back(rng.nextBool(0.5) ? rng.nextInt(0, 5) : rng.nextInt(16, 48));
  return s;
}

/// `t`'s values with the last two dims stored transposed, when there are
/// two: same logical content, strided layout.
Tensor maybeTransposedLayout(Rng& rng, const Tensor& t) {
  if (t.dim() < 2 || !rng.nextBool(0.5)) return t;
  const std::int64_t r = t.dim();
  return t.transpose(r - 2, r - 1).contiguous().transpose(r - 2, r - 1);
}

TEST(OpsOracleTest, SortsMatchPerElementReference) {
  Rng rng(107);
  ViewedTensorGenerator gen(rng);
  for (int rep = 0; rep < kOracleReps; ++rep) {
    // Integral values and Bool/Int64 dtypes give ties; non-finite draws
    // give NaN and ±inf.
    const Tensor a = gen.viewOf(sortShape(rng, gen), gen.dtype(),
                                rng.nextBool(0.3))
                         .view();
    SCOPED_TRACE(a.toString(256));
    for (const bool descending : {false, true})
      EXPECT_TRUE(bitwiseEqual(ops::argsort(a, descending),
                               refArgsort(a, descending)))
          << "descending=" << descending;
    const std::int64_t extent = a.size(-1);
    for (const std::int64_t k : {std::int64_t{0}, rng.nextInt(0, extent),
                                 extent}) {
      const auto [values, indices] = ops::topk(a, k);
      const auto [refValues, refIndices] = refTopk(a, k);
      EXPECT_TRUE(bitwiseEqual(values, refValues)) << "k=" << k;
      EXPECT_TRUE(bitwiseEqual(indices, refIndices)) << "k=" << k;
    }
  }
  EXPECT_THROW(ops::argsort(Tensor::scalar(Scalar(1.0)), false), Error);
  EXPECT_THROW(ops::topk(Tensor::scalar(Scalar(1.0)), 0), Error);
}

TEST(OpsOracleTest, GatherAndCumsumMatchPerElementReference) {
  Rng rng(108);
  ViewedTensorGenerator gen(rng);
  for (int rep = 0; rep < kOracleReps; ++rep) {
    Shape shape = gen.shape();
    if (shape.empty()) shape.push_back(rng.nextInt(0, 5));
    const Tensor a =
        gen.viewOf(shape, gen.dtype(), rng.nextBool(0.3)).view();
    SCOPED_TRACE(a.toString());
    for (std::int64_t d = -a.dim(); d < a.dim(); ++d) {
      SCOPED_TRACE("dim " + std::to_string(d));
      EXPECT_TRUE(bitwiseEqual(ops::cumsum(a, d), refCumsum(a, d)));

      // An index block no wider than `a` off dim d, any length along it.
      const std::int64_t nd = d < 0 ? d + a.dim() : d;
      const std::int64_t extent = a.size(nd);
      Shape indexShape = a.sizes();
      for (std::int64_t i = 0; i < a.dim(); ++i) {
        auto& e = indexShape[static_cast<std::size_t>(i)];
        e = i == nd ? rng.nextInt(0, 5) : rng.nextInt(0, e);
      }
      Tensor index = Tensor::empty(indexShape, DType::Int64);
      std::int64_t* pi = index.data<std::int64_t>();
      for (std::int64_t i = 0; i < index.numel(); ++i)
        pi[i] = extent > 0 ? rng.nextInt(0, extent - 1) : 0;
      // Sometimes one index out of range: both forms raise the same error.
      if (index.numel() > 0 && rng.nextBool(0.2))
        pi[rng.nextInt(0, index.numel() - 1)] =
            rng.nextBool() ? extent : -1;
      index = maybeTransposedLayout(rng, index);
      // Messages compare without their source location.
      auto message = [](const Error& e) {
        const std::string what = e.what();
        return what.substr(0, what.find(" (at "));
      };
      std::string want;
      Tensor ref;
      try {
        ref = refGather(a, d, index);
      } catch (const Error& e) {
        want = message(e);
      }
      if (want.empty()) {
        EXPECT_TRUE(bitwiseEqual(ops::gather(a, d, index), ref));
      } else {
        try {
          ops::gather(a, d, index);
          ADD_FAILURE() << "gather accepted an out-of-range index: " << want;
        } catch (const Error& e) {
          EXPECT_EQ(message(e), want);
        }
      }
    }
  }
}

}  // namespace
}  // namespace tssa
