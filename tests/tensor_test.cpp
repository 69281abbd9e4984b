// Unit tests for the tensor substrate: shapes, views, aliasing, mutation.
#include <gtest/gtest.h>

#include "src/tensor/ops.h"
#include "src/tensor/random.h"
#include "src/tensor/tensor.h"

namespace tssa {
namespace {

TEST(ShapeTest, NumelAndStrides) {
  EXPECT_EQ(numelOf(Shape{2, 3, 4}), 24);
  EXPECT_EQ(numelOf(Shape{}), 1);
  EXPECT_EQ(numelOf(Shape{5, 0, 2}), 0);
  EXPECT_EQ(contiguousStrides(Shape{2, 3, 4}), (Strides{12, 4, 1}));
  EXPECT_EQ(contiguousStrides(Shape{}), (Strides{}));
}

TEST(ShapeTest, Broadcast) {
  EXPECT_EQ(broadcastShapes(Shape{3, 1}, Shape{1, 4}), (Shape{3, 4}));
  EXPECT_EQ(broadcastShapes(Shape{5, 3, 1}, Shape{3, 4}), (Shape{5, 3, 4}));
  EXPECT_EQ(broadcastShapes(Shape{}, Shape{2, 2}), (Shape{2, 2}));
  EXPECT_THROW(broadcastShapes(Shape{2}, Shape{3}), Error);
  EXPECT_TRUE(broadcastableTo(Shape{1, 4}, Shape{3, 4}));
  EXPECT_FALSE(broadcastableTo(Shape{2, 4}, Shape{3, 4}));
}

TEST(ShapeTest, NormalizeDimAndIndex) {
  EXPECT_EQ(normalizeDim(-1, 3), 2);
  EXPECT_EQ(normalizeDim(0, 3), 0);
  EXPECT_THROW(normalizeDim(3, 3), Error);
  EXPECT_EQ(normalizeIndex(-1, 5), 4);
  EXPECT_THROW(normalizeIndex(5, 5), Error);
}

TEST(ShapeTest, IndexIteratorVisitsRowMajor) {
  IndexIterator it(Shape{2, 2});
  std::vector<Shape> seen;
  for (; it.valid(); it.next())
    seen.emplace_back(it.index().begin(), it.index().end());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (Shape{0, 0}));
  EXPECT_EQ(seen[1], (Shape{0, 1}));
  EXPECT_EQ(seen[2], (Shape{1, 0}));
  EXPECT_EQ(seen[3], (Shape{1, 1}));
}

TEST(TensorTest, FactoryBasics) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.dtype(), DType::Float32);
  EXPECT_DOUBLE_EQ(z.scalarAtLinear(5), 0.0);

  Tensor o = Tensor::ones({4}, DType::Int64);
  EXPECT_EQ(o.scalarAtLinear(3), 1.0);

  Tensor f = Tensor::full({2}, Scalar(2.5));
  EXPECT_FLOAT_EQ(static_cast<float>(f.scalarAtLinear(0)), 2.5f);

  Tensor ar = Tensor::arange(3, 11, 2);
  EXPECT_EQ(ar.sizes(), (Shape{4}));
  EXPECT_EQ(ar.scalarAtLinear(0), 3);
  EXPECT_EQ(ar.scalarAtLinear(3), 9);
}

TEST(TensorTest, ScalarTensorIsRankZero) {
  Tensor s = Tensor::scalar(Scalar(7.0));
  EXPECT_EQ(s.dim(), 0);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_DOUBLE_EQ(s.item().toDouble(), 7.0);
}

TEST(TensorTest, SelectSharesStorage) {
  Tensor a = Tensor::fromData({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor row = a.select(0, 1);
  EXPECT_EQ(row.sizes(), (Shape{3}));
  EXPECT_TRUE(row.sharesStorageWith(a));
  EXPECT_EQ(row.scalarAtLinear(0), 4.0);
  // Mutating the view mutates the base — the aliasing the paper targets.
  row.fill_(Scalar(0));
  EXPECT_EQ(a.scalarAtLinear(3), 0.0);
  EXPECT_EQ(a.scalarAtLinear(4), 0.0);
  EXPECT_EQ(a.scalarAtLinear(5), 0.0);
  EXPECT_EQ(a.scalarAtLinear(0), 1.0);
}

TEST(TensorTest, SliceWithStep) {
  Tensor a = Tensor::arange(10).to(DType::Float32);
  Tensor s = a.slice(0, 1, 8, 2);
  EXPECT_EQ(s.sizes(), (Shape{4}));
  EXPECT_EQ(s.scalarAtLinear(0), 1.0);
  EXPECT_EQ(s.scalarAtLinear(3), 7.0);
  s.fill_(Scalar(-1));
  EXPECT_EQ(a.scalarAtLinear(1), -1.0);
  EXPECT_EQ(a.scalarAtLinear(2), 2.0);
}

TEST(TensorTest, SliceNegativeBoundsClamp) {
  Tensor a = Tensor::arange(10);
  Tensor s = a.slice(0, -3, 100);
  EXPECT_EQ(s.sizes(), (Shape{3}));
  EXPECT_EQ(s.scalarAtLinear(0), 7);
}

TEST(TensorTest, PermuteAndTranspose) {
  Tensor a = Tensor::fromData({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor t = a.transpose(0, 1);
  EXPECT_EQ(t.sizes(), (Shape{3, 2}));
  EXPECT_FALSE(t.isContiguous());
  EXPECT_EQ(t.scalarAt(Shape{2, 1}), 6.0);
  EXPECT_EQ(t.scalarAt(Shape{1, 0}), 2.0);
  Tensor c = t.contiguous();
  EXPECT_TRUE(c.isContiguous());
  EXPECT_EQ(c.scalarAtLinear(1), 4.0);
}

TEST(TensorTest, ViewAndReshape) {
  Tensor a = Tensor::arange(12).to(DType::Float32);
  Tensor v = a.view({3, 4});
  EXPECT_TRUE(v.sharesStorageWith(a));
  EXPECT_EQ(v.scalarAt(Shape{2, 3}), 11.0);
  Tensor inferred = a.view({2, -1});
  EXPECT_EQ(inferred.sizes(), (Shape{2, 6}));
  EXPECT_THROW(a.view({5, 5}), Error);

  Tensor t = v.transpose(0, 1);
  Tensor r = t.reshape({12});  // non-contiguous: reshape copies
  EXPECT_FALSE(r.sharesStorageWith(a));
  EXPECT_EQ(r.scalarAtLinear(1), 4.0);
}

TEST(TensorTest, ExpandBroadcastsWithZeroStride) {
  Tensor a = Tensor::fromData({1, 2, 3}, {3, 1});
  Tensor e = a.expand({3, 4});
  EXPECT_TRUE(e.sharesStorageWith(a));
  EXPECT_EQ(e.scalarAt(Shape{1, 3}), 2.0);
  EXPECT_THROW(a.expand({4, 4}), Error);
}

TEST(TensorTest, SqueezeUnsqueeze) {
  Tensor a = Tensor::zeros({2, 1, 3});
  EXPECT_EQ(a.squeeze(1).sizes(), (Shape{2, 3}));
  EXPECT_THROW(a.squeeze(0), Error);
  EXPECT_EQ(a.unsqueeze(0).sizes(), (Shape{1, 2, 1, 3}));
  EXPECT_EQ(a.unsqueeze(-1).sizes(), (Shape{2, 1, 3, 1}));
  EXPECT_TRUE(a.unsqueeze(1).isContiguous());
}

TEST(TensorTest, FlattenRange) {
  Tensor a = Tensor::zeros({2, 3, 4});
  EXPECT_EQ(a.flatten().sizes(), (Shape{24}));
  EXPECT_EQ(a.flatten(1, 2).sizes(), (Shape{2, 12}));
}

TEST(TensorTest, CopyBroadcasts) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor src = Tensor::fromData({7, 8, 9}, {3});
  a.copy_(src);
  EXPECT_EQ(a.scalarAt(Shape{0, 2}), 9.0);
  EXPECT_EQ(a.scalarAt(Shape{1, 0}), 7.0);
  Tensor bad = Tensor::zeros({2});
  EXPECT_THROW(a.copy_(bad), Error);
}

TEST(TensorTest, OverlappingSelfCopyIsSnapshotted) {
  // b[1:] = b[:-1] — source and destination overlap in storage.
  Tensor b = Tensor::fromData({1, 2, 3, 4}, {4});
  b.slice(0, 1, 4).copy_(b.slice(0, 0, 3));
  EXPECT_EQ(b.scalarAtLinear(0), 1.0);
  EXPECT_EQ(b.scalarAtLinear(1), 1.0);
  EXPECT_EQ(b.scalarAtLinear(2), 2.0);
  EXPECT_EQ(b.scalarAtLinear(3), 3.0);
}

TEST(TensorTest, CloneDetachesStorage) {
  Tensor a = Tensor::ones({3});
  Tensor c = a.clone();
  EXPECT_FALSE(c.sharesStorageWith(a));
  c.fill_(Scalar(5));
  EXPECT_EQ(a.scalarAtLinear(0), 1.0);
}

TEST(TensorTest, DTypeCast) {
  Tensor a = Tensor::fromData({1.9f, -0.5f, 0.0f}, {3});
  Tensor i = a.to(DType::Int64);
  EXPECT_EQ(i.dtype(), DType::Int64);
  EXPECT_EQ(i.scalarAtLinear(0), 1);
  Tensor b = a.to(DType::Bool);
  EXPECT_EQ(b.scalarAtLinear(0), 1);
  EXPECT_EQ(b.scalarAtLinear(2), 0);
}

TEST(TensorTest, FloatToBoolStoresNonZero) {
  // A Bool element stores `v != 0`, like comparisons and the texpr JIT: a
  // narrowing cast would store 0.5 as false and -1.5 as 255 (undefined).
  const Tensor src = Tensor::fromData({0.5f, -1.5f, 0.0f, 2.0f}, {4});
  const double want[] = {1, 1, 0, 1};
  auto expectBools = [&](const Tensor& t, const char* what) {
    ASSERT_EQ(t.dtype(), DType::Bool) << what;
    for (std::int64_t i = 0; i < t.numel(); ++i)
      EXPECT_EQ(t.scalarAtLinear(i), want[i]) << what << " element " << i;
  };
  Tensor copied = Tensor::zeros({4}, DType::Bool);
  copied.copy_(src);
  expectBools(copied, "copy_");
  expectBools(src.to(DType::Bool), "to(Bool)");

  for (const double v : {0.5, -1.5}) {
    Tensor filled = Tensor::zeros({2, 2}, DType::Bool);
    filled.fill_(Scalar(v));
    // A non-contiguous column takes the per-element path.
    Tensor column = Tensor::zeros({2, 2}, DType::Bool);
    column.select(1, 0).fill_(Scalar(v));
    for (std::int64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(filled.scalarAtLinear(i), 1.0) << "fill_ " << v;
      EXPECT_EQ(column.scalarAtLinear(i), i % 2 == 0 ? 1.0 : 0.0)
          << "strided fill_ " << v;
    }
  }
}

TEST(TensorTest, ChainedViewsShareOneStorage) {
  // The Figure-1 scenario: B = A[0], B.copy_(C) mutates A.
  Tensor a = Tensor::zeros({2, 2});
  Tensor b = a.select(0, 0);
  Tensor c = Tensor::fromData({5, 6}, {2});
  b.copy_(c);
  EXPECT_EQ(a.scalarAt(Shape{0, 0}), 5.0);
  EXPECT_EQ(a.scalarAt(Shape{0, 1}), 6.0);
  EXPECT_EQ(a.scalarAt(Shape{1, 0}), 0.0);
}

TEST(AllCloseTest, Basics) {
  Tensor a = Tensor::fromData({1, 2, 3}, {3});
  Tensor b = Tensor::fromData({1, 2, 3}, {3});
  EXPECT_TRUE(allClose(a, b));
  b.setScalarAtLinear(1, 2.1);
  EXPECT_FALSE(allClose(a, b));
  EXPECT_FALSE(allClose(a, Tensor::fromData({1, 2, 3, 4}, {4})));
  EXPECT_FALSE(allClose(a, a.to(DType::Int64)));
}

TEST(RngTest, Deterministic) {
  Rng r1(42), r2(42);
  Tensor a = r1.uniform({8});
  Tensor b = r2.uniform({8});
  EXPECT_TRUE(allClose(a, b, 0.0));
  Tensor m = r1.bernoulli({100}, 0.5);
  double count = ops::sum(m).item().toDouble();
  EXPECT_GT(count, 20);
  EXPECT_LT(count, 80);
}

}  // namespace
}  // namespace tssa
