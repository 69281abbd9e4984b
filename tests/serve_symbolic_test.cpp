// Serving over symbolic shapes (DESIGN.md §13).
//
// The program cache is keyed on the workload's symbolic pattern, not the
// concrete input shapes: the compile count and cache size stay flat while
// shape diversity grows, requests that differ only along the batch dim
// coalesce raggedly, everything stays bitwise identical to solo execution
// and to a shape-specialized build, and a request that breaks the pattern
// is refused at submit before anything is compiled.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <vector>

#include "src/runtime/pipeline.h"
#include "src/serve/engine.h"
#include "src/tensor/shape.h"
#include "src/workloads/workload.h"

namespace tssa {
namespace {

using serve::Engine;
using serve::EngineOptions;
using serve::RejectedError;
using serve::RejectReason;
using serve::Request;
using serve::Response;
using runtime::RtValue;
using workloads::WorkloadConfig;

WorkloadConfig configFor(std::int64_t batch, std::int64_t seqLen) {
  WorkloadConfig c;
  c.batch = batch;
  c.seqLen = seqLen;
  return c;
}

bool bitwiseEqual(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  for (IndexIterator it(a.sizes()); it.valid(); it.next()) {
    if (a.scalarAt(it.index()) != b.scalarAt(it.index())) return false;
  }
  return true;
}

TEST(ServeSymbolicTest, CompileCountStaysFlatAcrossShapeDiversity) {
  EngineOptions options;
  options.maxBatch = 1;  // isolate caching from coalescing
  Engine engine(options);

  // 12 distinct (batch, seqLen) shapes; exact-shape keys would compile 12
  // programs, the polymorphic key compiles exactly one.
  int requests = 0;
  for (std::int64_t b : {1, 2, 3}) {
    for (std::int64_t t : {4, 7, 9, 12}) {
      Request r;
      r.workload = "attention";
      r.config = configFor(b, t);
      Response resp = engine.submit(std::move(r)).get();
      EXPECT_FALSE(resp.outputs.empty());
      EXPECT_EQ(resp.cacheHit, requests > 0);
      ++requests;
    }
  }
  EXPECT_EQ(engine.cacheStats().compiles, 1u);
  EXPECT_EQ(engine.cacheStats().size, 1u);
  EXPECT_EQ(engine.metrics().errors, 0u);
}

TEST(ServeSymbolicTest, PolymorphicResponsesMatchShapeSpecializedBitwise) {
  EngineOptions options;
  options.maxBatch = 1;
  Engine engine(options);

  for (const char* workload : {"lstm", "seq2seq", "yolov3", "decode_step"}) {
    for (std::int64_t b : {1, 3}) {
      // Reference: the workload built with concrete extents at this shape
      // and compiled by the same pipeline kind and options.
      const WorkloadConfig config = configFor(b, 6);
      workloads::Workload w = workloads::buildWorkload(workload, config);
      runtime::Pipeline specialized(options.kind, *w.graph, options.pipeline);
      const std::vector<RtValue> want = specialized.run(w.inputs);

      Request r;
      r.workload = workload;
      r.config = config;
      r.inputs = w.inputs;
      const Response got = engine.submit(std::move(r)).get();
      ASSERT_EQ(got.outputs.size(), want.size());
      for (std::size_t o = 0; o < got.outputs.size(); ++o) {
        EXPECT_TRUE(bitwiseEqual(got.outputs[o].tensor(), want[o].tensor()))
            << workload << " output " << o << " at batch " << b;
      }
    }
  }
  EXPECT_EQ(engine.cacheStats().compiles, 4u);  // one program per workload
}

TEST(ServeSymbolicTest, RaggedBatchCoalescesAndMatchesSoloBitwise) {
  // Solo reference: each request alone, batching off.
  EngineOptions soloOptions;
  soloOptions.maxBatch = 1;
  Engine soloEngine(soloOptions);
  const std::int64_t batches[] = {1, 3, 2};
  std::vector<Response> solo;
  for (std::int64_t b : batches) {
    Request r;
    r.workload = "lstm";
    r.config = configFor(b, 6);
    solo.push_back(soloEngine.submit(std::move(r)).get());
  }

  // Ragged batch: same three requests inside one window. They share the
  // polymorphic key and agree on every non-batch extent, so the batcher may
  // coalesce them even though their batch sizes differ.
  EngineOptions batchedOptions;
  batchedOptions.maxBatch = 3;
  batchedOptions.maxWaitUs = 200'000;  // sealed by count, not the window
  Engine batchedEngine(batchedOptions);
  std::vector<std::future<Response>> futures;
  for (std::int64_t b : batches) {
    Request r;
    r.workload = "lstm";
    r.config = configFor(b, 6);
    futures.push_back(batchedEngine.submit(std::move(r)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response got = futures[i].get();
    EXPECT_EQ(got.batchedWith, 3) << "request " << i << " did not coalesce";
    ASSERT_EQ(got.outputs.size(), solo[i].outputs.size());
    for (std::size_t o = 0; o < got.outputs.size(); ++o) {
      EXPECT_TRUE(bitwiseEqual(got.outputs[o].tensor(),
                               solo[i].outputs[o].tensor()))
          << "request " << i << " output " << o;
    }
  }
  EXPECT_EQ(batchedEngine.cacheStats().compiles, 1u);
  EXPECT_EQ(batchedEngine.metrics().batches, 1u);
}

TEST(ServeSymbolicTest, MismatchedSequenceLengthsDoNotCoalesce) {
  EngineOptions options;
  options.maxBatch = 2;
  options.maxWaitUs = 200'000;
  Engine engine(options);

  Request a;
  a.workload = "attention";
  a.config = configFor(2, 6);
  Request b;
  b.workload = "attention";
  b.config = configFor(2, 9);  // same key, different non-batch extent
  auto fa = engine.submit(std::move(a));
  auto fb = engine.submit(std::move(b));
  // The second arrival is incompatible with the open batch (its sequence
  // length differs), so the batcher seals the first solo — but both still
  // run through the one polymorphic program.
  EXPECT_EQ(fa.get().batchedWith, 1);
  EXPECT_EQ(fb.get().batchedWith, 1);
  EXPECT_EQ(engine.cacheStats().compiles, 1u);
}

// Satellite: an unknown workload used to escape Engine::submit as the
// registry's raw error; it must be the same typed, counted refusal every
// other shed path produces.
TEST(ServeSymbolicTest, UnknownWorkloadIsTypedBadRequest) {
  Engine engine;
  Request bogus;
  bogus.workload = "resnet";  // not registered
  try {
    engine.submit(std::move(bogus));
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::BadRequest);
  }

  Request wrongArity;
  wrongArity.workload = "lstm";
  wrongArity.config = configFor(2, 8);
  wrongArity.inputs = {RtValue(Tensor::zeros({2, 8, 128}))};
  try {
    engine.submit(std::move(wrongArity));
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::BadRequest);
  }

  // Metrics balance: both refusals are counted under bad_request, nothing
  // leaked into the queue, and the engine still serves.
  serve::MetricsSnapshot snap = engine.metrics();
  EXPECT_EQ(snap.rejectedFor(RejectReason::BadRequest), 2u);
  EXPECT_EQ(snap.rejectedTotal(), 2u);
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_EQ(snap.requests, 0u);

  Request ok;
  ok.workload = "attention";
  ok.config = configFor(1, 4);
  EXPECT_FALSE(engine.submit(std::move(ok)).get().outputs.empty());
  snap = engine.metrics();
  EXPECT_EQ(snap.requests, 1u);
  EXPECT_EQ(snap.rejectedTotal(), 2u);
}

// A request whose inputs do not instantiate the workload's pattern has no
// program that admits it: it is a typed, counted refusal at submit, and the
// engine never compiles anything for it.
TEST(ServeSymbolicTest, PatternMismatchIsTypedBadRequest) {
  auto withInput = [](const char* workload, WorkloadConfig config,
                      std::size_t index, RtValue value) {
    Request r;
    r.workload = workload;
    r.config = config;
    r.inputs = Engine::defaultInputs(workload, config);
    r.inputs.at(index) = std::move(value);
    return r;
  };
  const WorkloadConfig two = configFor(2, 8);
  const WorkloadConfig one = configFor(1, 8);
  struct Violation {
    const char* what;
    Request request;
  };
  std::vector<Violation> table;
  table.push_back({"wrong static extent (lstm x hidden 64)",
                   withInput("lstm", two, 0, Tensor::zeros({2, 8, 64}))});
  table.push_back(
      {"wrong tensor dtype (ssd boxes Int64)",
       withInput("ssd", one, 0, Tensor::zeros({1, 6144, 4}, DType::Int64))});
  table.push_back({"wrong rank (nasrnn h rank 3)",
                   withInput("nasrnn", one, 1, Tensor::zeros({1, 32, 1}))});
  table.push_back({"wrong scalar type (yolact num_dets Bool)",
                   withInput("yolact", one, 2, RtValue(true))});
  table.push_back({"wrong scalar type (fcos normalize Int64)",
                   withInput("fcos", one, 9, RtValue(std::int64_t{1}))});
  table.push_back({"inconsistent T across attention inputs",
                   withInput("attention", two, 1, Tensor::zeros({2, 9, 32}))});
  // decode_step's mask is [B, C+1]: one longer than the context.
  table.push_back({"decode mask of length C instead of C+1",
                   withInput("decode_step", two, 3, Tensor::zeros({2, 8}))});

  Engine engine;
  for (Violation& v : table) {
    try {
      engine.submit(std::move(v.request));
      ADD_FAILURE() << v.what << ": expected RejectedError";
    } catch (const RejectedError& e) {
      EXPECT_EQ(e.reason(), RejectReason::BadRequest) << v.what;
    }
  }
  const serve::MetricsSnapshot snap = engine.metrics();
  EXPECT_EQ(snap.rejectedFor(RejectReason::BadRequest), table.size());
  EXPECT_EQ(snap.rejectedTotal(), table.size());
  EXPECT_EQ(engine.cacheStats().compiles, 0u);
  EXPECT_EQ(engine.cacheStats().misses, 0u);
}

}  // namespace
}  // namespace tssa
