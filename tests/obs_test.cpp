// Tests for the src/obs observability layer (ISSUE 4 acceptance):
//   (a) concurrent span recording from ThreadPool workers is data-race free
//       (run under TSan in CI) and exports well-formed, properly nested
//       Chrome trace JSON,
//   (b) tracing disabled => zero spans recorded and bitwise-identical
//       workload outputs,
//   (c) a MetricsRegistry snapshot matches the Profiler / serve counters it
//       was exported from,
//   (d) the Prometheus text exposition round-trips a parse,
// plus unit coverage for the JSON escaper and nearest-rank percentiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/ir/builder.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/pipeline.h"
#include "src/runtime/thread_pool.h"
#include "src/serve/engine.h"
#include "src/tensor/random.h"
#include "src/workloads/workload.h"

namespace tssa {
namespace {

using obs::MetricsRegistry;
using obs::TraceEvent;
using obs::Tracer;
using obs::TraceSpan;

// ---- minimal JSON parser (validation + field extraction) -------------------
//
// Just enough of RFC 8259 to verify that everything the obs layer emits is
// well-formed and to pull out the fields the assertions need. Throws
// std::runtime_error on any malformed input.

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    if (it == object.end())
      throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("JSON error at offset " + std::to_string(pos_) +
                             ": " + what);
  }
  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skipWs();
    switch (peek()) {
      case '{': return objectValue();
      case '[': return arrayValue();
      case '"': return stringValue();
      case 't': case 'f': return boolValue();
      case 'n': return nullValue();
      default: return numberValue();
    }
  }

  JsonValue objectValue() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skipWs();
    if (peek() == '}') { ++pos_; return v; }
    for (;;) {
      skipWs();
      JsonValue key = stringValue();
      skipWs();
      expect(':');
      v.object[key.str] = value();
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  JsonValue arrayValue() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skipWs();
    if (peek() == ']') { ++pos_; return v; }
    for (;;) {
      v.array.push_back(value());
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  JsonValue stringValue() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return v;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') { v.str.push_back(c); continue; }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': v.str.push_back('"'); break;
        case '\\': v.str.push_back('\\'); break;
        case '/': v.str.push_back('/'); break;
        case 'b': v.str.push_back('\b'); break;
        case 'f': v.str.push_back('\f'); break;
        case 'n': v.str.push_back('\n'); break;
        case 'r': v.str.push_back('\r'); break;
        case 't': v.str.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u digit");
          }
          // The emitter only \u-escapes control characters (< 0x20), so a
          // single byte is enough here.
          v.str.push_back(static_cast<char>(code));
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue boolValue() {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    if (text_.substr(pos_, 4) == "true") { v.boolean = true; pos_ += 4; }
    else if (text_.substr(pos_, 5) == "false") { v.boolean = false; pos_ += 5; }
    else fail("bad literal");
    return v;
  }

  JsonValue nullValue() {
    if (text_.substr(pos_, 4) != "null") fail("bad literal");
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue numberValue() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) { ++pos_; ++n; }
      return n;
    };
    if (digits() == 0) fail("bad number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) fail("bad exponent");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return v;
  }
};

// ---- shared fixture --------------------------------------------------------

/// Every test starts and ends with the global tracer disabled and empty, so
/// obs tests compose with the rest of the suite in any order.
class ObsTracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
};

workloads::WorkloadConfig tinyConfig() {
  workloads::WorkloadConfig c;
  c.batch = 2;
  c.seqLen = 6;
  return c;
}

/// Asserts that same-tid "X" events nest properly: sorted by start time
/// (parents first at ties), each event either contains the next or is
/// disjoint from everything still open. This is the structural contract
/// Chrome/Perfetto rely on to build flame graphs from complete events.
void expectProperNesting(const std::vector<JsonValue>& events) {
  std::map<double, std::vector<const JsonValue*>> byTid;
  for (const JsonValue& e : events)
    byTid[e.at("tid").number].push_back(&e);
  for (auto& [tid, evs] : byTid) {
    std::sort(evs.begin(), evs.end(),
              [](const JsonValue* a, const JsonValue* b) {
                const double sa = a->at("ts").number;
                const double sb = b->at("ts").number;
                if (sa != sb) return sa < sb;
                return a->at("dur").number > b->at("dur").number;
              });
    std::vector<const JsonValue*> open;
    for (const JsonValue* e : evs) {
      const double start = e->at("ts").number;
      const double end = start + e->at("dur").number;
      while (!open.empty() &&
             start >= open.back()->at("ts").number +
                          open.back()->at("dur").number)
        open.pop_back();
      if (!open.empty()) {
        const double pend = open.back()->at("ts").number +
                            open.back()->at("dur").number;
        EXPECT_LE(end, pend + 1e-6)
            << "span '" << e->at("name").str << "' on tid " << tid
            << " overlaps its parent '" << open.back()->at("name").str
            << "' without being contained";
      }
      open.push_back(e);
    }
  }
}

// ---- (a) concurrent recording, well-formed nested trace --------------------

TEST_F(ObsTracerTest, ConcurrentSpansFromPoolWorkersNestProperly) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();

  constexpr std::int64_t kItems = 96;
  constexpr int kWorkers = 8;
  runtime::ThreadPool::shared().parallelFor(
      kItems, kWorkers, [](std::int64_t begin, std::int64_t end, int chunk) {
        TraceSpan outer("test", "chunk");
        outer.arg("chunk", chunk);
        for (std::int64_t i = begin; i < end; ++i) {
          TraceSpan inner("test", "item");
          inner.arg("index", i);
          // A grandchild exercises depth > 2 on worker threads.
          TraceSpan leaf("test", "leaf");
        }
      });
  tracer.disable();

  const std::string json = tracer.chromeTraceJson();
  const JsonValue doc = JsonParser(json).parse();
  const std::vector<JsonValue>& events = doc.at("traceEvents").array;

  std::int64_t chunks = 0, items = 0, leaves = 0;
  for (const JsonValue& e : events) {
    ASSERT_EQ(e.at("ph").str, "X");
    EXPECT_GE(e.at("dur").number, 0.0);
    if (e.at("cat").str != "test") continue;
    if (e.at("name").str == "chunk") ++chunks;
    if (e.at("name").str == "item") ++items;
    if (e.at("name").str == "leaf") ++leaves;
  }
  EXPECT_GT(chunks, 0);
  EXPECT_LE(chunks, kWorkers);
  EXPECT_EQ(items, kItems);
  EXPECT_EQ(leaves, kItems);
  expectProperNesting(events);
}

TEST_F(ObsTracerTest, TracedThreadedWorkloadShowsAllLayers) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();

  workloads::Workload w = workloads::buildWorkload("lstm", tinyConfig());
  runtime::PipelineOptions opts;
  opts.threads = 4;
  runtime::Pipeline pipeline(runtime::PipelineKind::TensorSsa, *w.graph, opts);
  auto out = pipeline.run(w.inputs);
  tracer.disable();

  const JsonValue doc = JsonParser(tracer.chromeTraceJson()).parse();
  std::map<std::string, int> byCatName;
  for (const JsonValue& e : doc.at("traceEvents").array)
    ++byCatName[e.at("cat").str + "/" + e.at("name").str];

  // Compilation: every pass span once, inside one compile span.
  EXPECT_EQ(byCatName["pipeline/compile"], 1);
  EXPECT_EQ(byCatName["pipeline/functionalize"], 1);
  EXPECT_EQ(byCatName["pipeline/fusion"], 1);
  EXPECT_EQ(byCatName["pipeline/parallelize"], 1);
  // Execution: one run span; fused regions execute inside it.
  EXPECT_EQ(byCatName["exec/Interpreter.run"], 1);
  EXPECT_GT(byCatName["exec/FusionGroup"], 0);
  expectProperNesting(doc.at("traceEvents").array);
}

/// Two fused regions over inputs (x, y, fill): `relu(x + y)` and
/// `masked_fill(x, y > x, fill)`.
std::unique_ptr<ir::Graph> twoFusedRegions() {
  auto g = std::make_unique<ir::Graph>();
  ir::Value* x = g->addInput(ir::Type::tensor());
  ir::Value* y = g->addInput(ir::Type::tensor());
  ir::Value* fill = g->addInput(ir::Type::floating());
  ir::IRBuilder b(*g);
  auto group = [&](std::vector<ir::Value*> ins, auto&& makeBody) {
    ir::Node* node = b.emitNode(ir::OpKind::FusionGroup, ins, 0);
    ir::Block* body = node->addBlock();
    for (ir::Value* in : ins) body->addParam(in->type());
    ir::IRBuilder inner(*g);
    inner.setInsertionPointToEnd(body);
    body->addReturn(makeBody(inner, *body));
    node->addOutput(ir::Type::tensor());
    g->addOutput(node->output(0));
  };
  group({x, y}, [](ir::IRBuilder& in, ir::Block& body) {
    return in.relu(in.add(body.param(0), body.param(1)));
  });
  group({x, y, fill}, [](ir::IRBuilder& in, ir::Block& body) {
    return in.maskedFill(body.param(0), in.gt(body.param(1), body.param(0)),
                         body.param(2));
  });
  return g;
}

TEST_F(ObsTracerTest, FusionGroupSpanNamesTheBackendThatRan) {
  auto g = twoFusedRegions();
  Rng rng(5);
  // Each body fits one tile and runs whole at [3, 4]; at [512, 256] (512
  // KiB per param) both run in tiles.
  auto backends = [&](const Shape& shape) {
    const std::vector<runtime::RtValue> inputs = {
        runtime::RtValue(rng.uniform(shape, -1, 1)),
        runtime::RtValue(rng.uniform(shape, -1, 1)),
        runtime::RtValue(Scalar(0.5))};
    Tracer& tracer = Tracer::instance();
    tracer.clear();
    tracer.enable();
    runtime::Interpreter().run(*g, inputs);
    tracer.disable();
    std::vector<std::string> out;
    const JsonValue doc = JsonParser(tracer.chromeTraceJson()).parse();
    for (const JsonValue& e : doc.at("traceEvents").array) {
      if (e.at("name").str != "FusionGroup") continue;
      const JsonValue& args = e.at("args");
      out.push_back(args.at("backend").str);
      EXPECT_EQ(args.at("tiles").number > 1, out.back() == "tiled");
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(backends({3, 4}), (std::vector<std::string>{"interp", "interp"}));
  EXPECT_EQ(backends({512, 256}),
            (std::vector<std::string>{"tiled", "tiled"}));
}

TEST_F(ObsTracerTest, ChromeJsonSurvivesHostileArgStrings) {
  Tracer& tracer = Tracer::instance();
  tracer.enable();
  {
    TraceSpan span("test", "quotes\"and\\slashes");
    span.arg("key", std::string_view("line1\nline2\ttab\x01ctl\"q\""));
    span.arg("num", 0.5);
  }
  tracer.disable();
  const JsonValue doc = JsonParser(tracer.chromeTraceJson()).parse();
  const JsonValue& e = doc.at("traceEvents").array.at(0);
  EXPECT_EQ(e.at("name").str, "quotes\"and\\slashes");
  EXPECT_EQ(e.at("args").at("key").str, "line1\nline2\ttab\x01ctl\"q\"");
  EXPECT_EQ(e.at("args").at("num").number, 0.5);
}

// ---- (b) disabled tracing: zero spans, bitwise-identical outputs -----------

TEST_F(ObsTracerTest, DisabledTracerRecordsNothingAndPreservesOutputs) {
  workloads::Workload w = workloads::buildWorkload("attention", tinyConfig());

  // Reference run with tracing off.
  ASSERT_FALSE(Tracer::instance().enabled());
  runtime::Pipeline off(runtime::PipelineKind::TensorSsa, *w.graph,
                        runtime::PipelineOptions{});
  auto outOff = off.run(w.inputs);
  EXPECT_EQ(Tracer::instance().spanCount(), 0u);

  // Same graph, tracing on: spans appear, outputs do not change.
  Tracer::instance().enable();
  runtime::Pipeline on(runtime::PipelineKind::TensorSsa, *w.graph,
                       runtime::PipelineOptions{});
  auto outOn = on.run(w.inputs);
  Tracer::instance().disable();
  EXPECT_GT(Tracer::instance().spanCount(), 0u);
  EXPECT_TRUE(bench::outputsBitwiseEqual(outOff, outOn));
  EXPECT_EQ(off.profiler().kernelLaunches(), on.profiler().kernelLaunches());

  // And back off: no further spans get recorded.
  Tracer::instance().clear();
  auto outAgain = on.run(w.inputs);
  EXPECT_EQ(Tracer::instance().spanCount(), 0u);
  EXPECT_TRUE(bench::outputsBitwiseEqual(outOff, outAgain));
}

// ---- (c) registry snapshot matches its sources -----------------------------

TEST(ObsMetricsTest, ExportedProfilerCountersMatch) {
  workloads::Workload w = workloads::buildWorkload("lstm", tinyConfig());
  runtime::Pipeline pipeline(runtime::PipelineKind::TensorSsa, *w.graph,
                             runtime::PipelineOptions{});
  pipeline.run(w.inputs);
  const runtime::Profiler& prof = pipeline.profiler();

  MetricsRegistry registry;
  obs::exportProfiler(prof, registry);
  const MetricsRegistry::Snapshot snap = registry.snapshot();

  EXPECT_EQ(snap.counter("tssa_kernel_launches_total"),
            prof.kernelLaunches());
  EXPECT_EQ(snap.counter("tssa_bytes_moved_total"), prof.bytesMoved());
  EXPECT_EQ(snap.counter("tssa_flops_total"), prof.flops());
  EXPECT_EQ(snap.gauge("tssa_sim_time_us"), prof.simTimeUs());

  // The per-kernel invocation counters add up to the total launch count.
  std::int64_t perKernelSum = 0;
  for (const auto& [name, v] : snap.counters)
    if (name.rfind("tssa_kernel_invocations_total{", 0) == 0)
      perKernelSum += v;
  EXPECT_EQ(perKernelSum, prof.kernelLaunches());

  // Re-exporting after another run refreshes, not double-counts.
  pipeline.run(w.inputs);
  obs::exportProfiler(prof, registry);
  EXPECT_EQ(registry.snapshot().counter("tssa_kernel_launches_total"),
            prof.kernelLaunches());
}

TEST(ObsMetricsTest, ExportedServeMetricsMatchSnapshot) {
  serve::EngineOptions options;
  options.maxBatch = 1;  // deterministic: one request per batch
  serve::Engine engine(options);
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    serve::Request r;
    r.workload = "lstm";
    r.config = tinyConfig();
    engine.submit(std::move(r)).get();
  }
  engine.drain();

  const serve::MetricsSnapshot snap = engine.metrics();
  ASSERT_EQ(snap.requests, static_cast<std::uint64_t>(kRequests));

  MetricsRegistry registry;
  engine.exportMetrics(registry);
  const MetricsRegistry::Snapshot reg = registry.snapshot();

  EXPECT_EQ(reg.counter("tssa_serve_requests_total"),
            static_cast<std::int64_t>(snap.requests));
  EXPECT_EQ(reg.counter("tssa_serve_batches_total"),
            static_cast<std::int64_t>(snap.batches));
  EXPECT_EQ(reg.counter("tssa_serve_cache_hits_total"),
            static_cast<std::int64_t>(snap.cacheHits));
  EXPECT_EQ(reg.counter("tssa_serve_cache_misses_total"),
            static_cast<std::int64_t>(snap.cacheMisses));

  const obs::HistogramStats lat =
      reg.histogram("tssa_serve_request_latency_us");
  EXPECT_EQ(lat.count, snap.requests);
  EXPECT_EQ(lat.p50, snap.total.p50Us);
  EXPECT_EQ(lat.p99, snap.total.p99Us);
  EXPECT_EQ(lat.max, snap.total.maxUs);

  // The snapshot JSON export parses and carries the same counter.
  const JsonValue doc = JsonParser(reg.toJson()).parse();
  EXPECT_EQ(doc.at("counters").at("tssa_serve_requests_total").number,
            static_cast<double>(kRequests));
  EXPECT_EQ(doc.at("histograms")
                .at("tssa_serve_request_latency_us")
                .at("count")
                .number,
            static_cast<double>(kRequests));
}

// ---- (d) Prometheus exposition round-trips ---------------------------------

/// Parses text exposition format 0.0.4 into {metric-with-labels: value},
/// checking structural invariants: every # TYPE line names a base that the
/// following samples share, every sample line is `name[{labels}] value`.
std::map<std::string, double> parsePrometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << "bad comment: " << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "bad sample line: " << line;
    const std::string key = line.substr(0, space);
    // Labels, when present, must be balanced and close at the key's end.
    const std::size_t brace = key.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(key.back(), '}') << "unterminated labels: " << line;
    }
    out[key] = std::stod(line.substr(space + 1));
  }
  return out;
}

TEST(ObsMetricsTest, PrometheusExpositionRoundTrips) {
  MetricsRegistry registry;
  registry.counterAdd("tssa_kernel_launches_total", 42);
  registry.counterSet("tssa_serve_rejected_total{reason=\"deadline\"}", 7);
  registry.counterSet("tssa_serve_rejected_total{reason=\"queue_full\"}",
                      35);
  registry.counterSet(
      "tssa_kernel_invocations_total{kernel=" +
          obs::promLabelValue("fused<add,mul>\"x\"") + "}",
      3);
  registry.gaugeSet("tssa_serve_throughput_rps", 123.5);
  for (int i = 1; i <= 100; ++i)
    registry.observe("tssa_serve_request_latency_us", i);

  const MetricsRegistry::Snapshot snap = registry.snapshot();
  const std::map<std::string, double> parsed =
      parsePrometheus(snap.toPrometheus());

  EXPECT_EQ(parsed.at("tssa_kernel_launches_total"), 42);
  EXPECT_EQ(parsed.at("tssa_serve_rejected_total{reason=\"deadline\"}"), 7);
  EXPECT_EQ(parsed.at("tssa_serve_rejected_total{reason=\"queue_full\"}"),
            35);
  EXPECT_EQ(parsed.at("tssa_serve_throughput_rps"), 123.5);
  EXPECT_EQ(
      parsed.at(
          "tssa_serve_request_latency_us{quantile=\"0.5\"}"),
      50);
  EXPECT_EQ(
      parsed.at(
          "tssa_serve_request_latency_us{quantile=\"0.99\"}"),
      99);
  EXPECT_EQ(parsed.at("tssa_serve_request_latency_us_count"), 100);
  EXPECT_EQ(parsed.at("tssa_serve_request_latency_us_sum"), 5050);
  // The escaped kernel label survives (value keeps its quotes/backslashes).
  bool foundKernel = false;
  for (const auto& [key, v] : parsed)
    if (key.rfind("tssa_kernel_invocations_total{kernel=", 0) == 0) {
      foundKernel = true;
      EXPECT_EQ(v, 3);
    }
  EXPECT_TRUE(foundKernel);

  // One # TYPE line per base name, even with multiple labeled series.
  const std::string text = snap.toPrometheus();
  std::size_t typeCount = 0, pos = 0;
  while ((pos = text.find("# TYPE tssa_serve_rejected_total ", pos)) !=
         std::string::npos) {
    ++typeCount;
    ++pos;
  }
  EXPECT_EQ(typeCount, 1u);
}

TEST(ObsMetricsTest, TwoShardLabeledEnginesShareOneRegistry) {
  // The multi-shard collision fix (DESIGN.md §14): the canonical names are
  // engine-scoped, so two engines exporting unlabeled into one registry
  // would silently overwrite each other's counterSet values. Shard labels
  // keep the series disjoint end to end, through the Prometheus exposition.
  serve::EngineOptions options;
  options.maxBatch = 1;
  serve::Engine a(options);
  serve::Engine b(options);
  auto run = [](serve::Engine& engine, int n) {
    for (int i = 0; i < n; ++i) {
      serve::Request r;
      r.workload = "lstm";
      r.config = tinyConfig();
      engine.submit(std::move(r)).get();
    }
    engine.drain();
  };
  run(a, 3);
  run(b, 1);

  MetricsRegistry registry;
  a.exportMetrics(registry, "shard=\"0\"");
  b.exportMetrics(registry, "shard=\"1\"");
  const MetricsRegistry::Snapshot reg = registry.snapshot();

  EXPECT_EQ(reg.counter("tssa_serve_requests_total{shard=\"0\"}"), 3);
  EXPECT_EQ(reg.counter("tssa_serve_requests_total{shard=\"1\"}"), 1);
  // Already-labeled names get the shard label spliced in, not nested.
  EXPECT_EQ(reg.counter(
                "tssa_serve_rejected_total{reason=\"queue_full\",shard=\"0\"}"),
            0);
  EXPECT_EQ(reg.histogram("tssa_serve_request_latency_us{shard=\"0\"}").count,
            3u);
  EXPECT_EQ(reg.histogram("tssa_serve_request_latency_us{shard=\"1\"}").count,
            1u);
  // Nothing leaked onto the unlabeled canonical names.
  EXPECT_EQ(reg.counter("tssa_serve_requests_total"), 0);
  EXPECT_EQ(reg.histogram("tssa_serve_request_latency_us").count, 0u);

  // Round-trip through the text exposition: both series present with their
  // own values, sharing one # TYPE line per base name.
  const std::string text = reg.toPrometheus();
  const std::map<std::string, double> samples = parsePrometheus(text);
  EXPECT_EQ(samples.at("tssa_serve_requests_total{shard=\"0\"}"), 3.0);
  EXPECT_EQ(samples.at("tssa_serve_requests_total{shard=\"1\"}"), 1.0);
  std::size_t typeCount = 0, pos = 0;
  while ((pos = text.find("# TYPE tssa_serve_requests_total counter", pos)) !=
         std::string::npos) {
    ++typeCount;
    ++pos;
  }
  EXPECT_EQ(typeCount, 1u);
}

// ---- unit coverage ---------------------------------------------------------

TEST(ObsMetricsTest, WithLabelsSplicesIntoExistingLabelSets) {
  EXPECT_EQ(obs::withLabels("m", "shard=\"2\""), "m{shard=\"2\"}");
  EXPECT_EQ(obs::withLabels("m{k=\"v\"}", "shard=\"2\""),
            "m{k=\"v\",shard=\"2\"}");
  EXPECT_EQ(obs::withLabels("m", ""), "m");
}

TEST(ObsMetricsTest, NearestRankPercentiles) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT_EQ(obs::percentileNearestRank(xs, 0.50), 50);
  EXPECT_EQ(obs::percentileNearestRank(xs, 0.95), 95);
  EXPECT_EQ(obs::percentileNearestRank(xs, 0.99), 99);  // not the max
  EXPECT_EQ(obs::percentileNearestRank({7.0}, 0.5), 7.0);
  EXPECT_EQ(obs::percentileNearestRank({100.0, 200.0}, 0.5), 100.0);
  EXPECT_EQ(obs::percentileNearestRank({}, 0.5), 0.0);
}

TEST(ObsMetricsTest, JsonQuoteEscapesEverythingParseable) {
  const std::string hostile = "a\"b\\c\nd\te\x01f\x1f";
  const JsonValue v = JsonParser(obs::jsonQuote(hostile)).parse();
  EXPECT_EQ(v.str, hostile);
  EXPECT_EQ(obs::jsonNumber(std::nan("")), "null");  // JSON has no NaN
  EXPECT_EQ(obs::jsonNumber(std::int64_t{-5}), "-5");
}

}  // namespace
}  // namespace tssa
