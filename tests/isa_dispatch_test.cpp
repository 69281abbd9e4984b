// The two copies of the tensor kernels (src/tensor/ops.cpp: baseline SSE2
// and AVX2, one source) agree bit for bit: on fmath_test's sweep of the
// transcendentals, on the operands of the OpsOracleTest tables, on edge
// values (NaN, ±0, ±inf, denormals, the Int64 limits) and on every workload
// under Eager and TensorSSA. Any two NaNs match (the sameBits rule of
// tests/ops_reference.h); each comparison also reports how many NaN
// payloads matched exactly. On a host without AVX2 the AVX2 half skips.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/runtime/pipeline.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"
#include "src/workloads/workload.h"
#include "tests/ops_reference.h"
#include "tests/property_gen.h"

namespace tssa {
namespace {

using namespace testing_support::reference;
using ops::KernelIsa;
using ops::ScopedKernelIsa;
using testing_support::ViewedTensorGenerator;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

bool hostHasAvx2() { return ops::kernelIsaSupported(KernelIsa::Avx2); }

#define SKIP_AVX2_HALF_WITHOUT_AVX2()                                   \
  if (!hostHasAvx2())                                                   \
  GTEST_SKIP() << "this host has no AVX2: the AVX2 kernels cannot run, " \
                  "only the SSE2 half was checked"

/// `run()` under the SSE2 copy of the kernels, then under the AVX2 copy.
template <typename Run>
std::pair<Tensor, Tensor> underBothCopies(Run&& run) {
  Tensor sse2, avx2;
  {
    ScopedKernelIsa isa(KernelIsa::Sse2);
    sse2 = run();
  }
  {
    ScopedKernelIsa isa(KernelIsa::Avx2);
    avx2 = run();
  }
  return {sse2, avx2};
}

/// Compares the two copies' results under sameBits and tallies the NaNs
/// whose payloads (all 32 bits) also matched.
class CopyComparison {
 public:
  explicit CopyComparison(std::string name) : name_(std::move(name)) {}

  ~CopyComparison() {
    std::printf("[ %s ] %lld results compared, %lld NaNs, %lld NaN payloads "
                "identical\n",
                name_.c_str(), static_cast<long long>(results_),
                static_cast<long long>(nans_),
                static_cast<long long>(samePayloads_));
    ::testing::Test::RecordProperty(name_ + "_nans", std::to_string(nans_));
    ::testing::Test::RecordProperty(name_ + "_nan_payloads_identical",
                                    std::to_string(samePayloads_));
  }

  void expectSame(const Tensor& sse2, const Tensor& avx2,
                  const std::string& what) {
    ++results_;
    if (!sameBits(avx2, sse2)) {
      ADD_FAILURE() << what << ": the AVX2 copy differs from the SSE2 copy\n"
                    << avx2 << "\n  vs\n"
                    << sse2;
      return;
    }
    if (sse2.dtype() != DType::Float32) return;
    const Tensor a = avx2.contiguous();
    const Tensor s = sse2.contiguous();
    for (std::int64_t i = 0; i < s.numel(); ++i) {
      const float x = a.data<float>()[i];
      const float y = s.data<float>()[i];
      if (!std::isnan(y)) continue;
      ++nans_;
      if (std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y))
        ++samePayloads_;
    }
  }

  template <typename Run>
  void expectSame(const std::string& what, Run&& run) {
    const auto [sse2, avx2] = underBothCopies(run);
    expectSame(sse2, avx2, what);
  }

 private:
  std::string name_;
  std::int64_t results_ = 0;
  std::int64_t nans_ = 0;
  std::int64_t samePayloads_ = 0;
};

TEST(IsaDispatchTest, HostSelectionAndScopedSwitch) {
  EXPECT_STREQ(ops::kernelIsa(), hostHasAvx2() ? "avx2" : "sse2");
  EXPECT_TRUE(ops::kernelIsaSupported(KernelIsa::Sse2));
  {
    ScopedKernelIsa isa(KernelIsa::Sse2);
    EXPECT_STREQ(ops::kernelIsa(), "sse2");
  }
  EXPECT_STREQ(ops::kernelIsa(), hostHasAvx2() ? "avx2" : "sse2");
  if (!hostHasAvx2()) {
    EXPECT_THROW(ScopedKernelIsa(KernelIsa::Avx2), Error);
    GTEST_SKIP() << "this host has no AVX2: the AVX2 kernels cannot run";
  }
  ScopedKernelIsa isa(KernelIsa::Avx2);
  EXPECT_STREQ(ops::kernelIsa(), "avx2");
}

/// fmath_test's sweep: every 409th float bit pattern, 10.5M values over
/// every exponent of both signs, through exp, log, tanh, sigmoid and sqrt.
/// The rows are long, so both copies run their vector bodies.
TEST(IsaDispatchTest, FmathSweepAgrees) {
  SKIP_AVX2_HALF_WITHOUT_AVX2();
  constexpr std::uint64_t kStride = 409;
  constexpr std::uint64_t kCount = (std::uint64_t{1} << 32) / kStride;
  constexpr std::int64_t kChunk = 1 << 20;
  using Unary = Tensor (*)(const Tensor&);
  const std::pair<const char*, Unary> fns[] = {
      {"exp", ops::exp},         {"log", ops::log}, {"tanh", ops::tanh},
      {"sigmoid", ops::sigmoid}, {"sqrt", ops::sqrt}};
  CopyComparison cmp("fmath_sweep");
  for (std::uint64_t i0 = 0; i0 < kCount; i0 += kChunk) {
    const auto n = static_cast<std::int64_t>(
        std::min<std::uint64_t>(kChunk, kCount - i0));
    Tensor in = Tensor::empty({n});
    for (std::int64_t i = 0; i < n; ++i)
      in.data<float>()[i] = std::bit_cast<float>(static_cast<std::uint32_t>(
          (i0 + static_cast<std::uint64_t>(i)) * kStride));
    for (const auto& [name, op] : fns)
      cmp.expectSame(name, [&] { return op(in); });
  }
}

/// `gen.shape()` whose last dim is sometimes long enough for the vector
/// bodies of both copies (8 floats a ymm register) and their scalar tails.
Shape kernelShape(Rng& rng, ViewedTensorGenerator& gen) {
  Shape s = gen.shape(3);
  if (rng.nextBool(0.6)) s.push_back(rng.nextInt(6, 40));
  return s;
}

/// The operands of OpsOracleTest's elementwise, where, reduction and matmul
/// tables, with NaN and ±inf among the values, through every kernel the two
/// copies hold.
TEST(IsaDispatchTest, OracleTablesAgree) {
  SKIP_AVX2_HALF_WITHOUT_AVX2();
  using Binary = Tensor (*)(const Tensor&, const Tensor&);
  const std::pair<const char*, Binary> binaries[] = {
      {"add", ops::add},       {"sub", ops::sub},
      {"mul", ops::mul},       {"div", ops::div},
      {"pow", ops::pow},       {"minimum", ops::minimum},
      {"maximum", ops::maximum}, {"eq", ops::eq},
      {"ne", ops::ne},         {"lt", ops::lt},
      {"le", ops::le},         {"gt", ops::gt},
      {"ge", ops::ge},         {"logicalAnd", ops::logicalAnd},
      {"logicalOr", ops::logicalOr}};
  using Unary = Tensor (*)(const Tensor&);
  const std::pair<const char*, Unary> unaries[] = {
      {"logicalNot", ops::logicalNot}, {"neg", ops::neg},
      {"exp", ops::exp},               {"log", ops::log},
      {"sqrt", ops::sqrt},             {"abs", ops::abs},
      {"sigmoid", ops::sigmoid},       {"tanh", ops::tanh},
      {"relu", ops::relu}};
  Rng rng(2901);
  ViewedTensorGenerator gen(rng);
  CopyComparison cmp("oracle_tables");
  for (int rep = 0; rep < 300; ++rep) {
    const Shape shape = kernelShape(rng, gen);
    const Tensor a =
        gen.viewOf(gen.broadcastableTo(shape), gen.dtype(), false).view();
    const Tensor b = gen.viewOf(shape, gen.dtype(), false).view();
    SCOPED_TRACE(a.toString() + " , " + b.toString());
    for (const auto& [name, op] : binaries) {
      cmp.expectSame(name, [&] { return op(a, b); });
      cmp.expectSame(name, [&] { return op(b, a); });
    }
    for (const auto& [name, op] : unaries)
      cmp.expectSame(name, [&] { return op(b); });
    cmp.expectSame("clamp", [&] {
      return ops::clamp(b, Scalar(-1.5), Scalar(2.0));
    });
    const Tensor cond =
        gen.viewOf(gen.broadcastableTo(shape), DType::Bool, false).view();
    cmp.expectSame("where", [&] { return ops::where(cond, a, b); });
    cmp.expectSame("maskedFill", [&] {
      return ops::maskedFill(b, cond, Scalar(-kInf));
    });

    cmp.expectSame("sum", [&] { return ops::sum(b); });
    for (std::int64_t d = 0; d < b.dim(); ++d) {
      SCOPED_TRACE("dim " + std::to_string(d));
      const bool keep = rng.nextBool();
      cmp.expectSame("sum", [&] { return ops::sum(b, d, keep); });
      cmp.expectSame("mean", [&] { return ops::mean(b, d, keep); });
      if (b.size(d) == 0) continue;
      cmp.expectSame("maxReduce", [&] { return ops::maxReduce(b, d, keep); });
      cmp.expectSame("minReduce", [&] { return ops::minReduce(b, d, keep); });
      cmp.expectSame("argmax", [&] { return ops::argmax(b, d, keep); });
      cmp.expectSame("softmax", [&] { return ops::softmax(b, d); });
    }

    const std::int64_t m = rng.nextInt(0, 9);
    const std::int64_t k = rng.nextInt(0, 6);
    const std::int64_t n =
        rng.nextBool(0.2) ? rng.nextInt(250, 520) : rng.nextInt(0, 40);
    const Tensor ma = gen.viewOf({m, k}, gen.dtype(), false).view();
    const Tensor mb = gen.viewOf({k, n}, gen.dtype(), false).view();
    cmp.expectSame("matmul", [&] { return ops::matmul(ma, mb); });
    const std::int64_t batch = rng.nextInt(1, 3);
    const Tensor ba = gen.viewOf({batch, m, k}, gen.dtype(), false).view();
    const Tensor bb = gen.viewOf({batch, k, n}, gen.dtype(), false).view();
    cmp.expectSame("bmm", [&] { return ops::bmm(ba, bb); });
  }
}

/// Float32 edge values: NaN of both signs, ±0, ±inf, denormals, the largest
/// float, values at and past the Int64 range and ordinary ones.
const std::vector<float>& floatEdges() {
  static const std::vector<float> edges = {
      kNaN,
      -kNaN,
      0.0f,
      -0.0f,
      kInf,
      -kInf,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min() / 2,
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(),
      0x1p63f,
      -0x1p63f,
      0x1p62f,
      1e30f,
      -1e30f,
      1.0f,
      -1.0f,
      0.5f,
      -2.5f};
  return edges;
}

/// `rows` rows of `n` edge values, cycled from `shift` with a different
/// start per row, so each value meets each position of a vector body and of
/// the scalar tail.
Tensor edgeRows(std::int64_t rows, std::int64_t n, std::int64_t shift = 0) {
  const std::vector<float>& edges = floatEdges();
  const auto count = static_cast<std::int64_t>(edges.size());
  Tensor t = Tensor::empty({rows, n});
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t j = 0; j < n; ++j)
      t.data<float>()[r * n + j] =
          edges[static_cast<std::size_t>((j * 7 + r * 3 + shift) % count)];
  return t;
}

/// Int64 edge values: the limits, their neighbours, 0 and ±1 (they travel
/// through the kernels as doubles, like every staged operand), cycled from
/// `shift`.
Tensor int64Edges(std::int64_t n, std::int64_t shift = 0) {
  const std::int64_t values[] = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min() + 1,
      std::numeric_limits<std::int64_t>::max() - 1,
      0,
      1,
      -1,
      std::int64_t{1} << 53,
      -(std::int64_t{1} << 53) - 1};
  Tensor t = Tensor::empty({n}, DType::Int64);
  for (std::int64_t j = 0; j < n; ++j)
    t.data<std::int64_t>()[j] = values[(j * 5 + shift) % 9];
  return t;
}

/// Max/min selects and converts are where a vector body could differ from
/// the scalar tail. Each result matches the per-element reference under the
/// SSE2 copy first, then under the AVX2 copy and bitwise against SSE2.
TEST(IsaDispatchTest, EdgeValuesAgreeWithReference) {
  const Tensor f = edgeRows(4, 37);
  const Tensor g = edgeRows(4, 37, 11);
  const Tensor col = edgeRows(37, 1);
  const Tensor i64 = int64Edges(37);
  const Tensor i64b = int64Edges(37, 4);
  const Tensor cond = ops::gt(f, g);
  auto maxFn = [](double x, double y) { return std::max(x, y); };
  auto minFn = [](double x, double y) { return std::min(x, y); };
  struct Case {
    std::string name;
    std::function<Tensor()> run;
    std::function<Tensor()> reference;
  };
  std::vector<Case> cases = {
      {"maximum", [&] { return ops::maximum(f, g); },
       [&] { return refBinary(f, g, DType::Float32, maxFn); }},
      {"minimum", [&] { return ops::minimum(f, g); },
       [&] { return refBinary(f, g, DType::Float32, minFn); }},
      {"maximum bcast", [&] { return ops::maximum(f, col.select(0, 3)); },
       [&] { return refBinary(f, col.select(0, 3), DType::Float32, maxFn); }},
      {"maximum i64", [&] { return ops::maximum(i64, i64b); },
       [&] { return refBinary(i64, i64b, DType::Int64, maxFn); }},
      {"minimum i64", [&] { return ops::minimum(i64, i64b); },
       [&] { return refBinary(i64, i64b, DType::Int64, minFn); }},
      {"clamp", [&] { return ops::clamp(f, Scalar(-1.0), Scalar(1e30)); },
       [&] {
         return refUnary(f, DType::Float32, [](double x) {
           return std::clamp(x, -1.0, 1e30);
         });
       }},
      {"clamp i64", [&] { return ops::clamp(i64, Scalar(-1.0), Scalar(1.0)); },
       [&] {
         return refUnary(i64, DType::Int64,
                         [](double x) { return std::clamp(x, -1.0, 1.0); });
       }},
      {"relu", [&] { return ops::relu(f); },
       [&] {
         return refUnary(f, DType::Float32,
                         [](double x) { return x > 0 ? x : 0.0; });
       }},
      {"relu i64", [&] { return ops::relu(i64); },
       [&] {
         return refUnary(i64, DType::Int64,
                         [](double x) { return x > 0 ? x : 0.0; });
       }},
      {"where", [&] { return ops::where(cond, f, g); },
       [&] { return refWhere(cond, f, g); }},
      {"where i64", [&] { return ops::where(cond.select(0, 0), i64, i64b); },
       [&] { return refWhere(cond.select(0, 0), i64, i64b); }},
  };
  for (std::int64_t d : {0, 1}) {
    const std::string dim = " dim " + std::to_string(d);
    cases.push_back({"maxReduce" + dim, [&, d] { return ops::maxReduce(f, d); },
                     [&, d] { return refReduce(f, d, false, Reduce::Max); }});
    cases.push_back({"minReduce" + dim, [&, d] { return ops::minReduce(f, d); },
                     [&, d] { return refReduce(f, d, false, Reduce::Min); }});
    cases.push_back({"argmax" + dim, [&, d] { return ops::argmax(f, d); },
                     [&, d] { return refArgmax(f, d, false); }});
    cases.push_back({"softmax" + dim, [&, d] { return ops::softmax(f, d); },
                     [&, d] { return refSoftmax(f, d); }});
  }
  cases.push_back({"maxReduce i64", [&] { return ops::maxReduce(i64, 0); },
                   [&] { return refReduce(i64, 0, false, Reduce::Max); }});
  cases.push_back({"minReduce i64", [&] { return ops::minReduce(i64, 0); },
                   [&] { return refReduce(i64, 0, false, Reduce::Min); }});
  cases.push_back({"argmax i64", [&] { return ops::argmax(i64, 0); },
                   [&] { return refArgmax(i64, 0, false); }});
  cases.push_back({"softmax i64", [&] { return ops::softmax(i64, 0); },
                   [&] { return refSoftmax(i64, 0); }});

  std::vector<Tensor> sse2Results;
  {
    ScopedKernelIsa isa(KernelIsa::Sse2);
    for (const Case& c : cases) {
      sse2Results.push_back(c.run());
      EXPECT_TRUE(sameBits(sse2Results.back(), c.reference()))
          << c.name << " (sse2)\n"
          << sse2Results.back() << "\n  vs\n"
          << c.reference();
    }
  }
  SKIP_AVX2_HALF_WITHOUT_AVX2();
  CopyComparison cmp("edge_values");
  ScopedKernelIsa isa(KernelIsa::Avx2);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Tensor got = cases[i].run();
    EXPECT_TRUE(sameBits(got, cases[i].reference())) << cases[i].name
                                                     << " (avx2)";
    cmp.expectSame(sse2Results[i], got, cases[i].name);
  }
}

/// Float32 -> Int64 and Bool casts of the edge values under both copies:
/// NaN, ±inf and values outside [-2^63, 2^63) store INT64_MIN, the rest
/// truncate toward zero; Bool stores v != 0, so NaN is true (DESIGN §5).
TEST(IsaDispatchTest, EdgeCastsStoreInt64MinOutOfRange) {
  const Tensor f = edgeRows(2, 37);
  auto check = [&](const char* copy) {
    const Tensor i = f.to(DType::Int64);
    const Tensor b = f.to(DType::Bool);
    for (std::int64_t k = 0; k < f.numel(); ++k) {
      const float v = f.data<float>()[k];
      const std::int64_t want = v >= -0x1p63f && v < 0x1p63f
                                    ? static_cast<std::int64_t>(v)
                                    : std::numeric_limits<std::int64_t>::min();
      EXPECT_EQ(i.data<std::int64_t>()[k], want) << copy << " cast of " << v;
      EXPECT_EQ(b.data<std::uint8_t>()[k], v != 0.0f ? 1 : 0)
          << copy << " Bool cast of " << v;
    }
    // The INT64_MIN the casts stored goes through a kernel like any value.
    EXPECT_TRUE(sameBits(ops::relu(i), refUnary(i, DType::Int64, [](double x) {
                           return x > 0 ? x : 0.0;
                         })))
        << copy;
  };
  {
    ScopedKernelIsa isa(KernelIsa::Sse2);
    check("sse2");
  }
  SKIP_AVX2_HALF_WITHOUT_AVX2();
  ScopedKernelIsa isa(KernelIsa::Avx2);
  check("avx2");
}

/// Every workload at batch 1 and 8, under Eager and TensorSSA, at threads 1
/// and 4: one compiled program per configuration, run under each copy, with
/// the same outputs.
class IsaWorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(IsaWorkloadTest, BothCopiesGiveTheSameOutputs) {
  SKIP_AVX2_HALF_WITHOUT_AVX2();
  CopyComparison cmp("workload_" + GetParam());
  for (const std::int64_t batch : {1, 8}) {
    workloads::WorkloadConfig config;
    config.batch = batch;
    config.seqLen = 16;
    const workloads::Workload w = workloads::buildWorkload(GetParam(), config);
    for (const runtime::PipelineKind kind :
         {runtime::PipelineKind::Eager, runtime::PipelineKind::TensorSsa}) {
      for (const int threads : {1, 4}) {
        runtime::PipelineOptions options;
        options.threads = threads;
        runtime::Pipeline pipeline(kind, *w.graph, options);
        std::vector<runtime::RtValue> outputs[2];
        for (const KernelIsa copy : {KernelIsa::Sse2, KernelIsa::Avx2}) {
          ScopedKernelIsa isa(copy);
          outputs[copy == KernelIsa::Avx2] = pipeline.run(w.inputs);
        }
        ASSERT_EQ(outputs[0].size(), outputs[1].size());
        for (std::size_t i = 0; i < outputs[0].size(); ++i) {
          if (!outputs[0][i].isTensor()) continue;
          cmp.expectSame(outputs[0][i].tensor(), outputs[1][i].tensor(),
                         std::string(runtime::pipelineName(kind)) +
                             " batch " + std::to_string(batch) + " threads " +
                             std::to_string(threads) + " output " +
                             std::to_string(i));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, IsaWorkloadTest,
                         ::testing::ValuesIn(workloads::workloadNames()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace tssa
