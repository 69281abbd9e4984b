// Accuracy of the float32 transcendentals of src/tensor/fmath.h against
// glibc's double functions rounded to float, the bitwise agreement of the
// vectorized ops kernels with the scalar functions, and the exhaustive proof
// that ops::sqrt's float form keeps the bits of the double one.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <string>

#include "src/tensor/fmath.h"
#include "src/tensor/ops.h"

namespace tssa {
namespace {

float fromBits(std::uint32_t b) { return std::bit_cast<float>(b); }
std::uint32_t bitsOf(float x) { return std::bit_cast<std::uint32_t>(x); }

/// Position of `x` on the line of floats ordered by value; -0 and +0 share
/// one position.
std::int64_t orderedBits(float x) {
  const std::int64_t magnitude = bitsOf(x) & 0x7fffffffu;
  return (bitsOf(x) >> 31) != 0 ? -magnitude : magnitude;
}

/// Ulps between two non-NaN floats (+inf is one ulp above FLT_MAX).
std::int64_t ulpDistance(float a, float b) {
  return std::llabs(orderedBits(a) - orderedBits(b));
}

/// Equal bits, or both NaN: which NaN an operation returns is not part of
/// any kernel's contract (tests/ops_reference.h sameBits).
bool sameFloat(float a, float b) {
  return (std::isnan(a) && std::isnan(b)) || bitsOf(a) == bitsOf(b);
}

/// `n` floats with bit patterns first, first + stride, ... as a tensor.
Tensor patterns(std::uint64_t first, std::uint64_t stride, std::int64_t n) {
  Tensor t = Tensor::empty({n});
  float* p = t.data<float>();
  for (std::int64_t i = 0; i < n; ++i)
    p[i] = fromBits(static_cast<std::uint32_t>(
        first + static_cast<std::uint64_t>(i) * stride));
  return t;
}

struct Fn {
  const char* name;
  Tensor (*op)(const Tensor&);
  float (*fn)(float);
  /// glibc's double function rounded to float: correctly rounded but for
  /// the rare value within the double computation's error of a midpoint.
  float (*glibc)(float);
  std::int64_t maxUlp;
};

const Fn kFns[] = {
    {"exp", ops::exp, fmath::exp,
     [](float x) { return static_cast<float>(std::exp(double{x})); }, 1},
    {"log", ops::log, fmath::log,
     [](float x) { return static_cast<float>(std::log(double{x})); }, 1},
    {"tanh", ops::tanh, fmath::tanh,
     [](float x) { return static_cast<float>(std::tanh(double{x})); }, 1},
    {"sigmoid", ops::sigmoid, fmath::sigmoid,
     [](float x) {
       return static_cast<float>(1.0 / (1.0 + std::exp(-double{x})));
     },
     2},
};

/// Names the parameter in test listings (gtest would print its bytes).
void PrintTo(const Fn& f, std::ostream* os) { *os << f.name; }

class FmathTest : public ::testing::TestWithParam<Fn> {};

/// Every 409th bit pattern, 10.5M values over every exponent of both signs,
/// run through the op's kernel in chunks: each result has the bits of the
/// scalar function (vector body and scalar tail agree) and lies within the
/// function's ulp bound of glibc's; NaN exactly where glibc gives NaN.
TEST_P(FmathTest, SweepIsWithinUlpBoundOfGlibc) {
  const Fn& f = GetParam();
  constexpr std::uint64_t kStride = 409;
  constexpr std::uint64_t kCount = (std::uint64_t{1} << 32) / kStride;
  constexpr std::int64_t kChunk = 1 << 20;
  std::int64_t worst = 0;
  float worstAt = 0;
  std::int64_t notScalarBits = 0;
  std::int64_t nanMismatches = 0;
  for (std::uint64_t i0 = 0; i0 < kCount; i0 += kChunk) {
    const auto n = static_cast<std::int64_t>(
        std::min<std::uint64_t>(kChunk, kCount - i0));
    const Tensor in = patterns(i0 * kStride, kStride, n);
    const Tensor out = f.op(in);
    const float* x = in.data<float>();
    const float* got = out.data<float>();
    for (std::int64_t j = 0; j < n; ++j) {
      if (!sameFloat(got[j], f.fn(x[j]))) ++notScalarBits;
      const float want = f.glibc(x[j]);
      if (std::isnan(got[j]) || std::isnan(want)) {
        if (!(std::isnan(got[j]) && std::isnan(want))) ++nanMismatches;
        continue;
      }
      const std::int64_t d = ulpDistance(got[j], want);
      if (d > worst) {
        worst = d;
        worstAt = x[j];
      }
    }
  }
  EXPECT_EQ(notScalarBits, 0) << f.name;
  EXPECT_EQ(nanMismatches, 0) << f.name;
  EXPECT_LE(worst, f.maxUlp) << f.name << " at " << std::hexfloat << worstAt;
}

/// NaN, ±inf and ±0 give glibc's result.
TEST_P(FmathTest, SpecialValuesEqualGlibc) {
  const Fn& f = GetParam();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float x : {nan, -nan, kInf, -kInf, 0.0f, -0.0f}) {
    EXPECT_TRUE(sameFloat(f.fn(x), f.glibc(x)))
        << f.name << "(" << x << ") = " << f.fn(x) << ", glibc "
        << f.glibc(x);
  }
}

/// Every 11th denormal of both signs (arithmetic on denormals is slow), the
/// smallest and the largest included. exp, tanh and sigmoid give glibc's
/// bits; log, whose results there are finite values near -100, stays within
/// its bound (the sum of k ln2 and the reduced part rounds once more than a
/// correctly rounded log would: 0.12% of all denormals are 1 ulp off).
TEST_P(FmathTest, DenormalInputs) {
  const Fn& f = GetParam();
  const bool exact = std::string(f.name) != "log";
  std::int64_t misses = 0;
  auto check = [&](float x) {
    const float got = f.fn(x);
    const float want = f.glibc(x);
    const bool ok = exact ? sameFloat(got, want)
                          : ulpDistance(got, want) <= f.maxUlp;
    if (!ok && misses++ < 3)
      ADD_FAILURE() << f.name << "(" << std::hexfloat << x << ") = " << got
                    << ", glibc " << want;
  };
  for (const std::uint32_t sign : {0u, 0x80000000u}) {
    if (!exact && sign != 0) continue;  // log of a negative: LogOfNegative
    for (std::uint32_t b = 1; b < 0x00800000u; b += 11)
      check(fromBits(b | sign));
    check(fromBits(0x007fffffu | sign));
  }
  EXPECT_EQ(misses, 0) << f.name;
}

INSTANTIATE_TEST_SUITE_P(All, FmathTest, ::testing::ValuesIn(kFns),
                         [](const ::testing::TestParamInfo<Fn>& info) {
                           return std::string(info.param.name);
                         });

TEST(FmathEdgeTest, LogOfNegativeIsNaN) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const float x : {-kInf, -std::numeric_limits<float>::max(), -1.0f,
                        -std::numeric_limits<float>::min(),
                        -std::numeric_limits<float>::denorm_min()}) {
    EXPECT_TRUE(std::isnan(fmath::log(x))) << x;
    EXPECT_TRUE(std::isnan(static_cast<float>(std::log(double{x})))) << x;
  }
}

/// exp (and sigmoid, which is exp there) give glibc's bits for 8 ulps on
/// either side of the inputs where exp overflows to inf, turns denormal,
/// reaches the smallest denormal and rounds to 0.
TEST(FmathEdgeTest, ExpOverflowAndUnderflowEdgesEqualGlibc) {
  const double edges[] = {
      std::log(static_cast<double>(std::numeric_limits<float>::max())),
      std::log(static_cast<double>(std::numeric_limits<float>::min())),
      std::log(static_cast<double>(std::numeric_limits<float>::denorm_min())),
      std::log(static_cast<double>(std::numeric_limits<float>::denorm_min()) /
               2)};
  for (const double edge : edges) {
    const std::uint32_t center = bitsOf(static_cast<float>(edge));
    for (std::uint32_t b = center - 8; b <= center + 8; ++b) {
      const float x = fromBits(b);
      const auto glibcExp = static_cast<float>(std::exp(double{x}));
      EXPECT_TRUE(sameFloat(fmath::exp(x), glibcExp))
          << std::hexfloat << "exp(" << x << ") = " << fmath::exp(x)
          << ", glibc " << glibcExp;
      if (x < 0) {
        const auto glibcSigmoid =
            static_cast<float>(1.0 / (1.0 + std::exp(-double{x})));
        EXPECT_TRUE(sameFloat(fmath::sigmoid(x), glibcSigmoid))
            << std::hexfloat << "sigmoid(" << x << ") = " << fmath::sigmoid(x)
            << ", glibc " << glibcSigmoid;
      }
    }
  }
}

/// The double square root. Out of line, because GCC rewrites
/// `(float)std::sqrt((double)x)` of a float x into the float square root,
/// which is the identity this test checks.
[[gnu::noinline]] double doubleSqrt(double x) { return std::sqrt(x); }

/// ops::sqrt takes the float square root of a Float32 operand, where it
/// took the double one rounded to float. Both are correctly rounded (double
/// has more than 2p+2 bits for float's p = 24, so rounding twice is
/// harmless), and this checks it on every one of the 2^32 bit patterns, one
/// sixteenth per test; an unoptimized build checks every 16th.
class OpsSqrtTest : public ::testing::TestWithParam<int> {};

TEST_P(OpsSqrtTest, FloatFormKeepsDoubleBits) {
#ifdef __OPTIMIZE__
  constexpr std::uint64_t kStride = 1;
#else
  constexpr std::uint64_t kStride = 16;
#endif
  constexpr std::uint64_t kSlice = std::uint64_t{1} << 28;
  constexpr std::int64_t kChunk = 1 << 14;
  const std::uint64_t begin = static_cast<std::uint64_t>(GetParam()) * kSlice;
  std::int64_t misses = 0;
  for (std::uint64_t b0 = begin; b0 < begin + kSlice;
       b0 += kChunk * kStride) {
    const Tensor in = patterns(b0, kStride, kChunk);
    const Tensor out = ops::sqrt(in);
    const float* x = in.data<float>();
    const float* got = out.data<float>();
    for (std::int64_t j = 0; j < kChunk; ++j) {
      const auto want = static_cast<float>(doubleSqrt(x[j]));
      if (!sameFloat(got[j], want) && misses++ < 3)
        ADD_FAILURE() << std::hexfloat << "sqrt(" << x[j] << ") = " << got[j]
                      << ", double form " << want;
    }
  }
  EXPECT_EQ(misses, 0);
}

INSTANTIATE_TEST_SUITE_P(Sixteenths, OpsSqrtTest, ::testing::Range(0, 16));

}  // namespace
}  // namespace tssa
