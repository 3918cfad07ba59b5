// Tests of the observability subsystem: tracer thread-safety and ordering,
// Chrome trace-event export structure and round-tripping, metrics
// counters/histograms, and the instrumentation threaded through the real
// distributed runtime (span counts and byte accounting against the
// transport's ground-truth traffic statistics).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/spin_wait.h"
#include "net/fabric.h"
#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/distributed_decoder.h"
#include "runtime/voltage_runtime.h"
#include "tensor/ops.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

// --- tracer core --------------------------------------------------------

TEST(Tracer, ConcurrentSpansFromManyThreadsFormAValidTrace) {
  obs::Tracer tracer;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (std::size_t s = 0; s < kSpansPerThread; ++s) {
        obs::TraceSpan span(&tracer, "work", "compute",
                            static_cast<obs::TrackId>(t));
        span.device(static_cast<std::int64_t>(t))
            .layer(static_cast<std::int64_t>(s));
      }
    });
  }
  for (auto& t : threads) t.join();

  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), kThreads * kSpansPerThread);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].duration_us, 0) << i;
    if (i > 0) {
      // events() returns a single merged timeline sorted by start.
      EXPECT_GE(events[i].start_us, events[i - 1].start_us) << i;
    }
  }
  // Per-thread span streams must each be strictly ordered and complete.
  std::vector<std::size_t> per_track(kThreads, 0);
  for (const obs::TraceEvent& e : events) {
    ASSERT_LT(e.track, kThreads);
    per_track[e.track] += 1;
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_track[t], kSpansPerThread) << t;
  }
}

TEST(Tracer, NullTracerSpanIsInertAndCheap) {
  obs::TraceSpan span(nullptr, "never", "compute", 0);
  EXPECT_FALSE(span.enabled());
  // Setters must be safe no-ops (no tag allocation, no recording).
  span.device(1).layer(2).bytes(3).tag("unused");
  span.finish();  // idempotent on a disabled span
}

TEST(Tracer, ClearDropsEventsButKeepsAccepting) {
  obs::Tracer tracer;
  { obs::TraceSpan span(&tracer, "a", "compute", 0); }
  EXPECT_EQ(tracer.size(), 1U);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0U);
  { obs::TraceSpan span(&tracer, "b", "compute", 0); }
  EXPECT_EQ(tracer.size(), 1U);
  EXPECT_STREQ(tracer.events()[0].name, "b");
}

TEST(Tracer, AmbientThreadTracerNestsAndRestores) {
  obs::Tracer tracer;
  EXPECT_EQ(obs::thread_tracer(), nullptr);
  {
    const obs::ThreadTracerScope outer(&tracer);
    EXPECT_EQ(obs::thread_tracer(), &tracer);
    {
      const obs::ThreadTracerScope inner(nullptr);
      EXPECT_EQ(obs::thread_tracer(), nullptr);
    }
    EXPECT_EQ(obs::thread_tracer(), &tracer);
    const obs::ThreadLayerScope layer(7);
    EXPECT_EQ(obs::thread_layer(), 7);
  }
  EXPECT_EQ(obs::thread_tracer(), nullptr);
  EXPECT_EQ(obs::thread_layer(), -1);
}

// --- chrome trace export ------------------------------------------------

TEST(ChromeTrace, ExportedJsonParsesAndRoundTrips) {
  obs::Tracer tracer;
  tracer.set_track_name(0, "device 0");
  {
    obs::TraceSpan span(&tracer, "layer", "compute", 0);
    span.device(0).layer(4).tag("reordered(Eq.8)");
  }
  {
    obs::TraceSpan span(&tracer, "all_gather", "comm", 0);
    span.device(0).layer(4).bytes(12345);
  }

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string text = out.str();

  // Parses as plain JSON with the documented shape.
  const obs::json::Value root = obs::json::parse(text);
  const obs::json::Value* trace_events = root.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  // clock_sync + thread_name metadata + the two spans.
  ASSERT_EQ(trace_events->as_array().size(), 4U);

  // Round-trips through the loader with every attribute intact.
  const obs::LoadedTrace loaded = obs::load_chrome_trace(text);
  ASSERT_EQ(loaded.events.size(), 2U);
  ASSERT_EQ(loaded.track_names.size(), 1U);
  EXPECT_EQ(loaded.track_names[0].second, "device 0");

  const std::vector<obs::TraceEvent> original = tracer.events();
  for (std::size_t i = 0; i < loaded.events.size(); ++i) {
    EXPECT_STREQ(loaded.events[i].name, original[i].name) << i;
    EXPECT_STREQ(loaded.events[i].category, original[i].category) << i;
    EXPECT_EQ(loaded.events[i].track, original[i].track) << i;
    EXPECT_EQ(loaded.events[i].start_us, original[i].start_us) << i;
    EXPECT_EQ(loaded.events[i].duration_us, original[i].duration_us) << i;
    EXPECT_EQ(loaded.events[i].device, original[i].device) << i;
    EXPECT_EQ(loaded.events[i].layer, original[i].layer) << i;
    EXPECT_EQ(loaded.events[i].bytes, original[i].bytes) << i;
    EXPECT_EQ(loaded.events[i].tag, original[i].tag) << i;
  }
}

TEST(ChromeTrace, EscapesSpecialCharactersInTags) {
  obs::Tracer tracer;
  {
    obs::TraceSpan span(&tracer, "span", "compute", 0);
    span.tag("quote \" backslash \\ newline \n tab \t");
  }
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const obs::LoadedTrace loaded = obs::load_chrome_trace(out.str());
  ASSERT_EQ(loaded.events.size(), 1U);
  EXPECT_EQ(loaded.events[0].tag, "quote \" backslash \\ newline \n tab \t");
}

TEST(ChromeTrace, LoaderAcceptsMatchedBeginEndPairs) {
  const char* text = R"({"traceEvents":[
    {"name":"outer","ph":"B","ts":10,"pid":1,"tid":0},
    {"name":"inner","ph":"X","ts":12,"dur":3,"pid":1,"tid":0},
    {"name":"outer","ph":"E","ts":20,"pid":1,"tid":0}]})";
  const obs::LoadedTrace loaded = obs::load_chrome_trace(text);
  ASSERT_EQ(loaded.events.size(), 2U);
  EXPECT_STREQ(loaded.events[0].name, "outer");
  EXPECT_EQ(loaded.events[0].duration_us, 10);
  EXPECT_STREQ(loaded.events[1].name, "inner");
}

TEST(ChromeTrace, LoaderRejectsStructuralViolations) {
  // Unsorted timestamps.
  EXPECT_THROW((void)obs::load_chrome_trace(R"({"traceEvents":[
    {"name":"a","ph":"X","ts":10,"dur":1,"pid":1,"tid":0},
    {"name":"b","ph":"X","ts":5,"dur":1,"pid":1,"tid":0}]})"),
               std::runtime_error);
  // Unmatched "B".
  EXPECT_THROW((void)obs::load_chrome_trace(R"({"traceEvents":[
    {"name":"a","ph":"B","ts":10,"pid":1,"tid":0}]})"),
               std::runtime_error);
  // "E" without "B".
  EXPECT_THROW((void)obs::load_chrome_trace(R"({"traceEvents":[
    {"name":"a","ph":"E","ts":10,"pid":1,"tid":0}]})"),
               std::runtime_error);
  // Mismatched B/E names.
  EXPECT_THROW((void)obs::load_chrome_trace(R"({"traceEvents":[
    {"name":"a","ph":"B","ts":10,"pid":1,"tid":0},
    {"name":"b","ph":"E","ts":12,"pid":1,"tid":0}]})"),
               std::runtime_error);
  // Duration event without a thread id.
  EXPECT_THROW((void)obs::load_chrome_trace(R"({"traceEvents":[
    {"name":"a","ph":"X","ts":10,"dur":1,"pid":1}]})"),
               std::runtime_error);
  // Not JSON at all.
  EXPECT_THROW((void)obs::load_chrome_trace("not json"), std::runtime_error);
}

// --- json ---------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjectsAndEscapes) {
  const obs::json::Value v = obs::json::parse(
      R"({"s":"a\"b\n","n":-2.5e2,"t":true,"f":false,"z":null,"a":[1,2,3]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("s")->as_string(), "a\"b\n");
  EXPECT_DOUBLE_EQ(v.find("n")->as_number(), -250.0);
  EXPECT_TRUE(v.find("t")->as_bool());
  EXPECT_FALSE(v.find("f")->as_bool());
  EXPECT_TRUE(v.find("z")->is_null());
  ASSERT_EQ(v.find("a")->as_array().size(), 3U);
  EXPECT_DOUBLE_EQ(v.find("a")->as_array()[2].as_number(), 3.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)obs::json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("1 2"), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("tru"), std::runtime_error);
}

// --- metrics ------------------------------------------------------------

TEST(Metrics, CountersAreAtomicAcrossThreads) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("hits");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kAdds = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::size_t i = 0; i < kAdds; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kAdds);
  // Same name resolves to the same counter.
  EXPECT_EQ(&registry.counter("hits"), &counter);
}

TEST(Metrics, HistogramQuantilesMatchAKnownDistribution) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram = registry.histogram("latency");
  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 1.0);  // 1..1000
  std::shuffle(values.begin(), values.end(), std::mt19937{7});
  for (const double v : values) histogram.record(v);

  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 1000U);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_DOUBLE_EQ(snap.mean, 500.5);
  EXPECT_DOUBLE_EQ(snap.p50, 500.0);
  EXPECT_DOUBLE_EQ(snap.p95, 950.0);
  EXPECT_DOUBLE_EQ(snap.p99, 990.0);
}

TEST(Metrics, HistogramQuantilesUseNearestRankAtSmallCounts) {
  // Nearest-rank (1-based rank ceil(q*n)) at n = 10: p50 is the 5th value,
  // p95 and p99 the 10th. The old floor(q*(n-1)) indexing under-reported
  // p95 as the 9th value here — this pins the exact ranks.
  obs::MetricsRegistry registry;
  obs::Histogram& histogram = registry.histogram("small");
  for (int v = 10; v >= 1; --v) histogram.record(static_cast<double>(v));
  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 10U);
  EXPECT_DOUBLE_EQ(snap.p50, 5.0);
  EXPECT_DOUBLE_EQ(snap.p95, 10.0);
  EXPECT_DOUBLE_EQ(snap.p99, 10.0);

  // n = 1: every quantile is the lone sample (the clamp path).
  obs::Histogram& one = registry.histogram("one");
  one.record(42.0);
  const obs::HistogramSnapshot lone = one.snapshot();
  EXPECT_DOUBLE_EQ(lone.p50, 42.0);
  EXPECT_DOUBLE_EQ(lone.p95, 42.0);
  EXPECT_DOUBLE_EQ(lone.p99, 42.0);
}

TEST(Metrics, ReportListsEverything) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").add(3);
  registry.histogram("b.seconds").record(0.5);
  const std::string report = registry.report();
  EXPECT_NE(report.find("a.count"), std::string::npos);
  EXPECT_NE(report.find("b.seconds"), std::string::npos);
}

// --- instrumented runtime ------------------------------------------------

TEST(InstrumentedRuntime, EmitsLayersTimesDevicesSpansAndExactByteCounts) {
  const TransformerModel model = make_model(mini_bert_spec());
  constexpr std::size_t kDevices = 3;
  VoltageRuntime runtime(model, PartitionScheme::even(kDevices));
  obs::Tracer tracer;
  runtime.set_tracer(&tracer);

  const auto tokens = random_tokens(24, model.spec().vocab_size, 11);
  const Tensor logits = runtime.infer(tokens);
  EXPECT_EQ(logits.rows(), 1U);

  const std::vector<obs::TraceEvent> events = tracer.events();
  std::size_t layer_spans = 0;
  std::size_t all_gather_spans = 0;
  std::uint64_t comm_bytes = 0;
  for (const obs::TraceEvent& e : events) {
    const std::string_view name(e.name);
    if (name == "layer") {
      layer_spans += 1;
      // Every layer span is annotated with the Theorem-2 decision.
      EXPECT_FALSE(e.tag.empty());
      EXPECT_GE(e.device, 0);
      EXPECT_GE(e.layer, 0);
    }
    if (name == "all_gather") all_gather_spans += 1;
    if (std::string_view(e.category) == "comm" && e.bytes > 0) {
      comm_bytes += static_cast<std::uint64_t>(e.bytes);
    }
  }
  // Exactly one compute span per (layer, device).
  EXPECT_EQ(layer_spans, model.spec().num_layers * kDevices);
  // One all-gather per non-final layer per device (Algorithm 2).
  EXPECT_EQ(all_gather_spans, (model.spec().num_layers - 1) * kDevices);
  // The spans' byte annotations account for every byte the transport
  // actually put on the wire (broadcast + all-gathers + final sends).
  EXPECT_EQ(comm_bytes, runtime.fabric().total_stats().bytes_sent);
}

TEST(InstrumentedRuntime, DisabledTracerEmitsNothingAndStaysCorrect) {
  const TransformerModel model = make_model(mini_bert_spec());
  VoltageRuntime runtime(model, PartitionScheme::even(2));
  const auto tokens = random_tokens(16, model.spec().vocab_size, 3);
  const Tensor logits = runtime.infer(tokens);  // no tracer attached
  EXPECT_EQ(logits.rows(), 1U);

  obs::Tracer tracer;
  runtime.set_tracer(&tracer);
  runtime.set_tracer(nullptr);  // detach again
  (void)runtime.infer(tokens);
  EXPECT_EQ(tracer.size(), 0U);
}

TEST(InstrumentedRuntime, ExportRoundTripsThroughTheReportPipeline) {
  const TransformerModel model = make_model(mini_bert_spec());
  constexpr std::size_t kDevices = 3;
  VoltageRuntime runtime(model, PartitionScheme::even(kDevices));
  obs::Tracer tracer;
  runtime.set_tracer(&tracer);
  (void)runtime.infer(random_tokens(20, model.spec().vocab_size, 5));

  // Export exactly as examples/traced_inference does, then validate the
  // file structurally and aggregate it as tools/trace_report does.
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const obs::LoadedTrace loaded = obs::load_chrome_trace(out.str());
  EXPECT_EQ(loaded.events.size(), tracer.size());
  // Track labels for every device plus the terminal.
  EXPECT_EQ(loaded.track_names.size(), kDevices + 1);

  const obs::TraceReport report = obs::build_report(loaded);
  // Per-layer rows for every (layer, device) pair.
  EXPECT_EQ(report.layers.size(), model.spec().num_layers * kDevices);
  for (const obs::LayerRow& row : report.layers) {
    EXPECT_FALSE(row.order.empty());
    if (static_cast<std::size_t>(row.layer) + 1 < model.spec().num_layers) {
      EXPECT_GT(row.all_gather_bytes, 0) << "layer " << row.layer;
      // fp32 spans carry no raw_bytes: encoded == fp32-equivalent.
      EXPECT_EQ(row.all_gather_raw_bytes, row.all_gather_bytes)
          << "layer " << row.layer;
    }
  }
  // Devices 0..K-1 plus the terminal appear in the per-device table.
  EXPECT_EQ(report.devices.size(), kDevices + 1);
  const std::string table = obs::format_report(report);
  EXPECT_NE(table.find("all_gather_bytes"), std::string::npos);
  EXPECT_NE(table.find("fp32_equiv_bytes"), std::string::npos);
  EXPECT_NE(table.find("reordered"), std::string::npos);
}

TEST(InstrumentedRuntime, QuantizedTraceReportsEncodedAndRawBytes) {
  // Under Precision::kInt8 the all-gather spans' `bytes` count what crossed
  // the wire (int8 + scales + frame) while `raw_bytes` carries the
  // fp32-equivalent — the report keeps both so a quantized trace shows its
  // own wire reduction.
  const TransformerModel model = make_model(mini_bert_spec());
  VoltageRuntime runtime(model, PartitionScheme::even(3));
  runtime.set_precision(Precision::kInt8);
  obs::Tracer tracer;
  runtime.set_tracer(&tracer);
  (void)runtime.infer(random_tokens(24, model.spec().vocab_size, 6));

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const obs::TraceReport report =
      obs::build_report(obs::load_chrome_trace(out.str()));
  bool saw_gather = false;
  for (const obs::LayerRow& row : report.layers) {
    if (row.all_gather_bytes == 0) continue;
    saw_gather = true;
    EXPECT_GT(row.all_gather_raw_bytes, row.all_gather_bytes)
        << "layer " << row.layer << " device " << row.device;
  }
  EXPECT_TRUE(saw_gather);
}

TEST(TraceReport, GemmCountsOnlyInsideItsLayerSpan) {
  // A prefill "layer" span and a later decode-step GEMM at the same
  // (layer, device): the decode GEMM carries the layer but lies outside
  // every layer span, so it must not inflate that row's gemm_us past its
  // compute_us.
  obs::LoadedTrace trace;
  const auto add = [&](const char* name, const char* category,
                       obs::Micros start, obs::Micros dur) {
    obs::TraceEvent e;
    e.name = name;
    e.category = category;
    e.track = 0;
    e.start_us = start;
    e.duration_us = dur;
    e.device = 0;
    e.layer = 0;
    trace.events.push_back(std::move(e));
  };
  add("gemm", "kernel", 10, 5);    // starts with its layer span
  add("gemm", "kernel", 20, 10);   // nested
  add("layer", "compute", 10, 40);  // prefill layer 0: [10, 50)
  add("gemm", "kernel", 100, 30);  // decode step, same layer and device
  const obs::TraceReport report = obs::build_report(trace);
  ASSERT_EQ(report.layers.size(), 1U);
  EXPECT_EQ(report.layers[0].compute_us, 40);
  EXPECT_EQ(report.layers[0].gemm_us, 15);
}

// --- trace context + flow propagation -----------------------------------

// Sends one traced message over a two-device `kind` transport and checks
// the stamps, the receiver's adopted context and the closed flow arrow.
void expect_stamps_propagate_and_close_the_flow(TransportKind kind) {
  obs::Tracer tracer;
  const auto fabric = make_transport(kind, 2);
  const std::uint64_t request = obs::next_trace_id();
  std::uint64_t adopted = 0;

  std::thread receiver([&] {
    const obs::ThreadTracerScope scope(&tracer);
    const obs::ThreadTrackScope track(1);
    obs::TraceSpan span(&tracer, "consume", "comm", 1);
    const Message m = fabric->recv(1, 0, /*tag=*/7);
    EXPECT_EQ(m.trace_id, request);
    EXPECT_EQ(m.seq, 1U);  // first message this sender put on the wire
    adopted = obs::thread_trace_id();
  });
  {
    const obs::ThreadTracerScope scope(&tracer);
    const obs::ThreadTrackScope track(0);
    const obs::TraceIdScope trace(request);
    obs::TraceSpan span(&tracer, "produce", "comm", 0);
    fabric->send(Message{.source = 0,
                         .destination = 1,
                         .tag = 7,
                         .payload = std::vector<std::byte>(64)});
  }
  receiver.join();

  // The receiving thread adopted the sender's request context.
  EXPECT_EQ(adopted, request);

  // Exactly one flow-start (sender track) and one flow-end (receiver
  // track), same flow id, both carrying the request's trace id, and the
  // arrow's tail never after its head.
  const std::vector<obs::TraceEvent> events = tracer.events();
  const obs::TraceEvent* start = nullptr;
  const obs::TraceEvent* end = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.phase == obs::EventPhase::kFlowStart) start = &e;
    if (e.phase == obs::EventPhase::kFlowEnd) end = &e;
  }
  ASSERT_NE(start, nullptr);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(start->track, 0U);
  EXPECT_EQ(end->track, 1U);
  EXPECT_EQ(start->flow_id, end->flow_id);
  EXPECT_EQ(start->trace, static_cast<std::int64_t>(request));
  EXPECT_EQ(end->trace, static_cast<std::int64_t>(request));
  EXPECT_LE(start->start_us, end->start_us);

  // The full export round-trips with the flow graph closed.
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const obs::LoadedTrace loaded = obs::load_chrome_trace(out.str());
  EXPECT_EQ(loaded.events.size(), tracer.size());
  EXPECT_TRUE(obs::flow_problems(loaded).empty());
}

TEST(TraceContext, FabricStampsPropagatesAndClosesTheFlow) {
  expect_stamps_propagate_and_close_the_flow(TransportKind::kInMemory);
}

TEST(TraceContext, SocketFabricStampsPropagatesAndClosesTheFlow) {
  expect_stamps_propagate_and_close_the_flow(TransportKind::kUnixSocket);
}

TEST(TraceContext, UntracedSendsEmitNoFlowEvents) {
  obs::Tracer tracer;
  Fabric fabric(2);
  std::thread receiver([&] {
    const obs::ThreadTracerScope scope(&tracer);
    (void)fabric.recv(1, 0, /*tag=*/3);
  });
  {
    // No TraceIdScope: the message travels with trace_id 0 and must not
    // open an arrow nobody can close.
    const obs::ThreadTracerScope scope(&tracer);
    fabric.send(Message{.source = 0,
                        .destination = 1,
                        .tag = 3,
                        .payload = std::vector<std::byte>(8)});
  }
  receiver.join();
  for (const obs::TraceEvent& e : tracer.events()) {
    EXPECT_EQ(e.phase, obs::EventPhase::kComplete);
  }
}

TEST(TraceContext, FlowProblemsFlagsDanglingArrows) {
  obs::Tracer tracer;
  obs::record_flow(&tracer, obs::EventPhase::kFlowStart, /*flow_id=*/11,
                   /*track=*/0, /*trace_id=*/1);
  obs::record_flow(&tracer, obs::EventPhase::kFlowEnd, /*flow_id=*/22,
                   /*track=*/1, /*trace_id=*/1);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const obs::LoadedTrace loaded = obs::load_chrome_trace(out.str());
  const std::vector<std::string> problems = obs::flow_problems(loaded);
  // One unconsumed start and one end with no matching start.
  ASSERT_EQ(problems.size(), 2U);
}

TEST(TraceContext, FlowEndInItsStartsMicrosecondStillFollowsIt) {
  // A sub-microsecond hop stamps both ends with one time; the export must
  // still put the start first, whichever was recorded first.
  obs::Tracer tracer;
  for (const obs::EventPhase phase :
       {obs::EventPhase::kFlowEnd, obs::EventPhase::kFlowStart}) {
    obs::TraceEvent event;
    event.name = "msg";
    event.category = "flow";
    event.track = phase == obs::EventPhase::kFlowStart ? 0 : 1;
    event.start_us = 5;
    event.trace = 1;
    event.phase = phase;
    event.flow_id = 33;
    tracer.record(event);
  }
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  EXPECT_TRUE(obs::flow_problems(obs::load_chrome_trace(out.str())).empty());
}

TEST(TraceContext, EnsureTraceIdRespectsAmbientAndMintsOtherwise) {
  const std::uint64_t fresh = obs::ensure_trace_id();
  EXPECT_NE(fresh, 0U);
  EXPECT_NE(obs::ensure_trace_id(), fresh);  // no ambient → always fresh
  {
    const obs::TraceIdScope scope(fresh);
    EXPECT_EQ(obs::ensure_trace_id(), fresh);  // ambient wins
    EXPECT_EQ(obs::thread_trace_id(), fresh);
  }
  EXPECT_EQ(obs::thread_trace_id(), 0U);
}

// --- clock anchor --------------------------------------------------------

TEST(ClockAnchor, AlignsSteadyAndWallTimelines) {
  const obs::ClockAnchor& anchor = obs::clock_anchor();
  EXPECT_EQ(obs::to_wall_unix_us(anchor.steady_us), anchor.wall_unix_us);
  // The mapping is a pure offset: distances are preserved exactly.
  EXPECT_EQ(obs::to_wall_unix_us(anchor.steady_us + 1234) -
                obs::to_wall_unix_us(anchor.steady_us),
            1234);
  // Sanity: the anchor's wall time is an actual recent Unix time (after
  // 2020-01-01, microseconds).
  EXPECT_GT(anchor.wall_unix_us, 1'577'836'800'000'000LL);
}

TEST(ClockAnchor, SurvivesTheChromeTraceRoundTrip) {
  obs::Tracer tracer;
  { obs::TraceSpan span(&tracer, "tick", "compute", 0); }
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const obs::LoadedTrace loaded = obs::load_chrome_trace(out.str());
  ASSERT_TRUE(loaded.has_clock_anchor);
  EXPECT_EQ(loaded.clock_anchor.steady_us, obs::clock_anchor().steady_us);
  EXPECT_EQ(loaded.clock_anchor.wall_unix_us,
            obs::clock_anchor().wall_unix_us);
}

// --- critical path -------------------------------------------------------

// Hand-built trace with known numbers, exercising every bucket:
//
//   window: one "decode.step" [0, 100) on the terminal track.
//   track 0: compute [10, 40), comm [40, 90) whose data only left the
//            sender at t=70 (flow start on track 1, end inside the span)
//            → compute 30, blocked 30, wire 20, idle 20 → wait 50.
//   track 1: compute [5, 75), comm [75, 95) that consumed nothing
//            → compute 70, wire 20, idle 10 → wait 10.
TEST(CriticalPath, SyntheticTraceDecomposesExactly) {
  obs::LoadedTrace trace;
  const auto add = [&](const char* name, const char* category,
                       obs::TrackId track, obs::Micros start, obs::Micros dur,
                       std::int64_t device, std::int64_t layer,
                       obs::EventPhase phase, std::uint64_t flow_id) {
    obs::TraceEvent e;
    e.name = name;
    e.category = category;
    e.track = track;
    e.start_us = start;
    e.duration_us = dur;
    e.device = device;
    e.layer = layer;
    e.trace = 42;
    e.phase = phase;
    e.flow_id = flow_id;
    if (std::string_view(name) == "decode.step") e.request = 5;
    trace.events.push_back(std::move(e));
  };
  constexpr auto kSpan = obs::EventPhase::kComplete;
  add("decode.step", "serve", 9, 0, 100, -1, -1, kSpan, 0);
  add("compute_a", "compute", 0, 10, 30, 0, 0, kSpan, 0);
  add("compute_b", "compute", 1, 5, 70, 1, 0, kSpan, 0);
  add("merge", "comm", 0, 40, 50, 0, 0, kSpan, 0);
  add("msg", "flow", 1, 70, 0, -1, -1, obs::EventPhase::kFlowStart, 900);
  add("merge", "comm", 1, 75, 20, 1, 0, kSpan, 0);
  add("msg", "flow", 0, 80, 0, -1, -1, obs::EventPhase::kFlowEnd, 900);

  const obs::CriticalPathReport report = obs::analyze_critical_path(trace);
  ASSERT_EQ(report.windows.size(), 1U);
  const obs::WindowAttribution& w = report.windows[0];
  EXPECT_EQ(w.label, "step");
  EXPECT_EQ(w.index, 5);
  EXPECT_EQ(w.trace_id, 42);
  EXPECT_EQ(w.wall_us, 100);
  ASSERT_EQ(w.devices.size(), 2U);

  const obs::DeviceSlice& d0 = w.devices[0];
  EXPECT_EQ(d0.track, 0);
  EXPECT_EQ(d0.compute_us, 30);
  EXPECT_EQ(d0.wire_us, 20);
  EXPECT_EQ(d0.wait_us, 50);  // 30 straggler-blocked + 20 idle
  EXPECT_EQ(d0.total_us(), w.wall_us);  // exact by construction

  const obs::DeviceSlice& d1 = w.devices[1];
  EXPECT_EQ(d1.track, 1);
  EXPECT_EQ(d1.compute_us, 70);
  EXPECT_EQ(d1.wire_us, 20);
  EXPECT_EQ(d1.wait_us, 10);  // pure idle
  EXPECT_EQ(d1.total_us(), w.wall_us);

  // Track 0 waited longest; the collective round pins the entry-time
  // straggler (track 1 reached "merge" last, 35us behind).
  EXPECT_EQ(w.straggler_track, 0);
  ASSERT_EQ(report.rounds.size(), 1U);
  EXPECT_EQ(report.rounds[0].name, "merge");
  EXPECT_EQ(report.rounds[0].straggler_track, 1);
  EXPECT_EQ(report.rounds[0].max_spread_us, 35);

  EXPECT_EQ(report.compute_us, 100);
  EXPECT_EQ(report.wire_us, 40);
  EXPECT_EQ(report.wait_us, 60);
  EXPECT_NEAR(report.comm_fraction(), 40.0 / 200.0, 1e-9);

  const std::string table = obs::format_critical_path(report);
  EXPECT_NE(table.find("straggler"), std::string::npos);
  EXPECT_NE(table.find("step"), std::string::npos);
}

// A prefill "layer" span nests its "attention" and "ffn" spans under the
// same layer: the layer row counts the covered time once, like the window.
TEST(CriticalPath, PrefillLayerRowsCountNestedComputeOnce) {
  obs::LoadedTrace trace;
  const auto add = [&](const char* name, obs::Micros start, obs::Micros dur) {
    obs::TraceEvent e;
    e.name = name;
    e.category = "compute";
    e.track = 0;
    e.start_us = start;
    e.duration_us = dur;
    e.device = 0;
    e.layer = 0;
    trace.events.push_back(std::move(e));
  };
  add("layer", 10, 50);
  add("attention", 10, 30);
  add("ffn", 40, 20);

  const obs::CriticalPathReport report = obs::analyze_critical_path(trace);
  ASSERT_EQ(report.windows.size(), 1U);
  EXPECT_EQ(report.windows[0].label, "trace");
  ASSERT_EQ(report.windows[0].devices.size(), 1U);
  EXPECT_EQ(report.windows[0].devices[0].compute_us, 50);
  ASSERT_EQ(report.layers.size(), 1U);
  EXPECT_EQ(report.layers[0].layer, 0);
  EXPECT_EQ(report.layers[0].compute_us, 50);
  EXPECT_EQ(report.layers[0].compute_us,
            report.windows[0].devices[0].compute_us);
}

// Acceptance: on a real K=4 decode trace, every device's compute/wire/wait
// must sum to each step's wall time (the decomposition is exact; 5% is the
// issue's tolerance), and one step's flow arrows must touch every device
// track plus the terminal.
TEST(CriticalPath, DistributedDecoderStepsDecomposeAcrossFourDevices) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  constexpr std::size_t kDevices = 4;
  constexpr std::size_t kSteps = 4;
  obs::Tracer tracer;
  {
    DistributedDecoder decoder(model, PartitionScheme::even(kDevices));
    decoder.set_tracer(&tracer);

    const auto prompt = random_tokens(12, model.spec().vocab_size, 21);
    Tensor logits = decoder.prime(std::span<const TokenId>(prompt));
    for (std::size_t i = 0; i < kSteps; ++i) {
      logits = decoder.step(static_cast<TokenId>(argmax_row(logits, 0)));
    }
  }
  // step() returns on the terminal's critical path; workers off it may
  // still be draining their last merge receives. Destroying the decoder
  // joins them, so only now is the flow graph guaranteed closed.
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const obs::LoadedTrace loaded = obs::load_chrome_trace(out.str());
  EXPECT_TRUE(obs::flow_problems(loaded).empty());

  const obs::CriticalPathReport report = obs::analyze_critical_path(loaded);
  std::size_t steps = 0;
  std::int64_t step_trace = -1;
  for (const obs::WindowAttribution& w : report.windows) {
    if (w.label != "step") continue;
    steps += 1;
    if (step_trace < 0) step_trace = w.trace_id;
    EXPECT_GT(w.trace_id, 0);
    // Every worker contributed a slice, plus the terminal (whose command
    // broadcast is a comm span on its own track).
    ASSERT_EQ(w.devices.size(), kDevices + 1);
    for (const obs::DeviceSlice& d : w.devices) {
      EXPECT_NEAR(static_cast<double>(d.total_us()),
                  static_cast<double>(w.wall_us),
                  0.05 * static_cast<double>(w.wall_us) + 1.0)
          << "track " << d.track << " in step " << w.index;
    }
  }
  EXPECT_EQ(steps, kSteps);

  // The post-merge tail is compute, not wait: each worker runs one
  // "decode_tail" span per layer under every step's trace id, and the
  // terminal's LM head gives its own step slice compute time.
  const std::size_t layers = model.spec().num_layers;
  for (const obs::WindowAttribution& w : report.windows) {
    if (w.label != "step") continue;
    std::vector<std::size_t> tails(kDevices, 0);
    for (const obs::TraceEvent& e : loaded.events) {
      if (e.phase == obs::EventPhase::kComplete &&
          std::string_view(e.name) == "decode_tail" && e.trace == w.trace_id) {
        ASSERT_LT(e.device, static_cast<std::int64_t>(kDevices));
        tails[static_cast<std::size_t>(e.device)] += 1;
      }
    }
    for (std::size_t i = 0; i < kDevices; ++i) {
      EXPECT_EQ(tails[i], layers) << "device " << i << " in step " << w.index;
    }
    const obs::DeviceSlice& terminal = w.devices.back();
    EXPECT_EQ(terminal.track, static_cast<std::int64_t>(kDevices));
    EXPECT_GT(terminal.compute_us, 0) << "step " << w.index;
  }

  // One step's causal id shows up as flow arrows into all K device tracks
  // and the terminal's final-row receive.
  ASSERT_GT(step_trace, 0);
  std::set<obs::TrackId> flow_tracks;
  for (const obs::TraceEvent& e : loaded.events) {
    if (e.phase == obs::EventPhase::kFlowEnd && e.trace == step_trace) {
      flow_tracks.insert(e.track);
    }
  }
  for (std::size_t i = 0; i < kDevices; ++i) {
    EXPECT_TRUE(flow_tracks.count(static_cast<obs::TrackId>(i)))
        << "no flow arrow reached device track " << i;
  }
  EXPECT_TRUE(flow_tracks.count(static_cast<obs::TrackId>(kDevices)))
      << "no flow arrow reached the terminal track";
}

// The byte-exactness invariant (Σ comm-span bytes == transport bytes sent)
// must hold from attach through teardown: every message the decoder puts
// on the wire is emitted as a byte-annotated comm span. The metrics counter
// outlives the decoder, so the comparison includes teardown traffic.
TEST(InstrumentedDecoder, CommSpanBytesStayExactThroughAttachAndShutdown) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  {
    DistributedDecoder decoder(model, PartitionScheme::even(2));
    decoder.set_metrics(&metrics);
    decoder.set_tracer(&tracer);
    const auto prompt = random_tokens(8, model.spec().vocab_size, 3);
    Tensor logits = decoder.prime(std::span<const TokenId>(prompt));
    (void)decoder.step(static_cast<TokenId>(argmax_row(logits, 0)));
  }
  std::uint64_t comm_bytes = 0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (std::string_view(e.category) == "comm" && e.bytes > 0) {
      comm_bytes += static_cast<std::uint64_t>(e.bytes);
    }
  }
  EXPECT_EQ(comm_bytes, metrics.counter("transport.bytes_sent").value());
}

// --- telemetry hub -------------------------------------------------------

TEST(Telemetry, WindowedRatesGaugesAndUtilization) {
  obs::TelemetryHub hub(/*window_seconds=*/10.0);
  std::atomic<std::uint64_t> tokens{0};
  hub.register_rate("tokens",
                    [&] { return static_cast<double>(tokens.load()); });
  hub.register_gauge("queue_depth", [] { return 7.0; });

  // Device series only accumulate rates once they exist, so report busy
  // time before the first sample to open their windows.
  hub.add_device_busy(0, 1);
  hub.add_device_busy(1, 1);
  const obs::TelemetryHub::Snapshot first = hub.sample();
  // First sample: no window yet, rates are zero; gauges read through.
  for (const auto& [name, value] : first.values) {
    if (name == "tokens_per_s") {
      EXPECT_EQ(value, 0.0);
    }
    if (name == "queue_depth") {
      EXPECT_EQ(value, 7.0);
    }
  }

  tokens.store(500);
  hub.add_device_busy(0, 800);
  hub.add_device_busy(1, 200);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const obs::TelemetryHub::Snapshot second = hub.sample();

  bool saw_rate = false;
  bool saw_util0 = false;
  bool saw_util1 = false;
  for (const auto& [name, value] : second.values) {
    if (name == "tokens_per_s") {
      saw_rate = true;
      EXPECT_GT(value, 0.0);  // 500 tokens over a ~20ms window
    }
    if (name == "device0_utilization") {
      saw_util0 = true;
      EXPECT_GT(value, 0.0);
      EXPECT_LE(value, 1.0);
    }
    if (name == "device1_utilization") saw_util1 = true;
  }
  EXPECT_TRUE(saw_rate);
  EXPECT_TRUE(saw_util0);
  EXPECT_TRUE(saw_util1);
}

TEST(Telemetry, UnregisterRemovesRatesAndGauges) {
  obs::TelemetryHub hub;
  hub.register_rate("tokens", [] { return 1.0; });
  hub.register_gauge("tokens", [] { return 2.0; });
  hub.register_gauge("depth", [] { return 3.0; });
  hub.unregister("tokens");
  const obs::TelemetryHub::Snapshot snapshot = hub.sample();
  ASSERT_EQ(snapshot.values.size(), 1U);
  EXPECT_EQ(snapshot.values[0].first, "depth");
}

TEST(Telemetry, SerializesJsonlAndPrometheus) {
  obs::TelemetryHub::Snapshot snapshot;
  snapshot.steady_us = 1000;
  snapshot.wall_unix_us = 1'700'000'000'000'000LL;
  snapshot.values.emplace_back("tokens_per_s", 12.5);
  snapshot.values.emplace_back("bad metric",
                               std::numeric_limits<double>::quiet_NaN());

  std::ostringstream jsonl;
  obs::TelemetryHub::write_jsonl(snapshot, jsonl);
  const obs::json::Value parsed = obs::json::parse(
      jsonl.str().substr(0, jsonl.str().find('\n')));
  EXPECT_DOUBLE_EQ(parsed.find("tokens_per_s")->as_number(), 12.5);
  // NaN must not leak into the JSON.
  EXPECT_DOUBLE_EQ(parsed.find("bad metric")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(parsed.find("steady_us")->as_number(), 1000.0);

  std::ostringstream prom;
  obs::TelemetryHub::write_prometheus(snapshot, prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("# TYPE voltage_tokens_per_s gauge"),
            std::string::npos);
  EXPECT_NE(text.find("voltage_tokens_per_s 12.5"), std::string::npos);
  // Prometheus names are sanitized: the space becomes an underscore.
  EXPECT_NE(text.find("voltage_bad_metric 0"), std::string::npos);
}

// --- flight recorder -----------------------------------------------------

TEST(FlightRecorder, RingKeepsTheLastNOldestFirst) {
  obs::FlightRecorder recorder(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    recorder.note_send(/*source=*/i, /*destination=*/9, /*tag=*/i,
                       /*trace_id=*/0, /*bytes=*/i);
  }
  const auto entries = recorder.entries();
  ASSERT_EQ(entries.size(), 4U);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].source, i + 2) << i;  // 2,3,4,5 survived
    EXPECT_EQ(entries[i].kind, obs::FlightRecorder::Kind::kSend);
  }
  recorder.clear();
  EXPECT_TRUE(recorder.entries().empty());
}

// Poisons a two-device `kind` transport, which names itself `name` in its
// errors, after one round trip and checks the ring it dumps.
void expect_poisoning_auto_dumps_the_ring(TransportKind kind,
                                          const std::string& name) {
  std::ostringstream dump;
  obs::FlightRecorder recorder(/*capacity=*/8, &dump);
  const auto fabric = make_transport(kind, 2);
  fabric->set_flight_recorder(&recorder);
  fabric->send(Message{.source = 0,
                       .destination = 1,
                       .tag = 5,
                       .payload = std::vector<std::byte>(32)});
  (void)fabric->recv(1, 0, 5);
  fabric->close("device 0 fell off the mesh");

  const std::string text = dump.str();
  EXPECT_NE(text.find(name + " closed: device 0 fell off the mesh"),
            std::string::npos);
  EXPECT_NE(text.find("send 0->1"), std::string::npos);
  EXPECT_NE(text.find("recv 0->1"), std::string::npos);
  // Recorder entries charge payload + wire frame, like the stats.
  EXPECT_NE(text.find("bytes=" + std::to_string(32 + kWireFrameBytes)),
            std::string::npos);
}

TEST(FlightRecorder, FabricPoisoningAutoDumpsTheRing) {
  expect_poisoning_auto_dumps_the_ring(TransportKind::kInMemory, "Fabric");
}

TEST(FlightRecorder, SocketFabricPoisoningAutoDumpsTheRing) {
  expect_poisoning_auto_dumps_the_ring(TransportKind::kUnixSocket,
                                       "SocketFabric");
}

// --- concurrency (run under TSan in CI) ----------------------------------

TEST(ObsConcurrency, TracerMetricsTelemetryAndRecorderUnderFabricTraffic) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::TelemetryHub hub(1.0);
  obs::FlightRecorder recorder(64);
  Fabric fabric(4);
  fabric.set_metrics(&metrics);
  fabric.set_flight_recorder(&recorder);
  hub.register_rate("wire_bytes", [&] {
    return static_cast<double>(
        metrics.counter("transport.bytes_sent").value());
  });

  constexpr std::size_t kMessages = 400;
  std::vector<std::thread> threads;
  // Two sender/receiver pairs hammer the fabric with traced messages while
  // a fifth thread concurrently snapshots every observability surface.
  for (std::size_t pair = 0; pair < 2; ++pair) {
    const DeviceId src = pair * 2;
    const DeviceId dst = src + 1;
    threads.emplace_back([&, src, dst] {
      const obs::ThreadTracerScope scope(&tracer);
      const obs::ThreadTrackScope track(static_cast<obs::TrackId>(src));
      for (std::size_t i = 0; i < kMessages; ++i) {
        const obs::TraceIdScope trace(obs::next_trace_id());
        obs::TraceSpan span(&tracer, "produce", "comm",
                            static_cast<obs::TrackId>(src));
        fabric.send(Message{.source = src,
                            .destination = dst,
                            .tag = 1,
                            .payload = std::vector<std::byte>(16)});
      }
    });
    threads.emplace_back([&, src, dst] {
      const obs::ThreadTracerScope scope(&tracer);
      const obs::ThreadTrackScope track(static_cast<obs::TrackId>(dst));
      for (std::size_t i = 0; i < kMessages; ++i) {
        obs::TraceSpan span(&tracer, "consume", "comm",
                            static_cast<obs::TrackId>(dst));
        (void)fabric.recv(dst, src, 1);
        hub.add_device_busy(dst, 1);
      }
    });
  }
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < 50; ++i) {
      (void)tracer.size();
      (void)tracer.events();
      (void)metrics.report();
      (void)recorder.entries();
      (void)hub.sample();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto& t : threads) t.join();

  // 2 pairs × kMessages, each with a span on both ends plus a flow pair.
  EXPECT_EQ(tracer.size(), 2 * kMessages * 4);
  EXPECT_EQ(metrics.counter("transport.messages_sent").value(),
            2 * kMessages);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  EXPECT_TRUE(obs::flow_problems(obs::load_chrome_trace(out.str())).empty());
}

// One inference over `transport` with metrics attached: the transport.*
// counters must equal the transport's own traffic statistics.
void expect_transport_metrics_match_traffic_stats(TransportKind transport) {
  const TransformerModel model = make_model(mini_bert_spec());
  VoltageRuntime runtime(model, PartitionScheme::even(2),
                         OrderPolicy::kAdaptive, transport);
  obs::MetricsRegistry metrics;
  runtime.set_metrics(&metrics);
  (void)runtime.infer(random_tokens(12, model.spec().vocab_size, 9));

  const TrafficStats stats = runtime.fabric().total_stats();
  EXPECT_EQ(metrics.counter("transport.messages_sent").value(),
            stats.messages_sent);
  EXPECT_EQ(metrics.counter("transport.bytes_sent").value(),
            stats.bytes_sent);
  EXPECT_EQ(metrics.counter("transport.messages_received").value(),
            stats.messages_received);
  EXPECT_EQ(metrics.counter("transport.bytes_received").value(),
            stats.bytes_received);
}

TEST(InstrumentedRuntime, TransportMetricsMatchTrafficStats) {
  expect_transport_metrics_match_traffic_stats(TransportKind::kInMemory);
}

TEST(InstrumentedRuntime, SocketTransportMetricsMatchTrafficStats) {
  expect_transport_metrics_match_traffic_stats(TransportKind::kUnixSocket);
}

// --- spin outcomes: transport.recv_spin_hits / transport.recv_parks -------

// `trips` ping-pongs between devices 0 and 1 of `fabric`, replies at once.
void ping_pong(Fabric& fabric, std::size_t trips) {
  std::thread ponger([&] {
    for (std::size_t i = 0; i < trips; ++i) {
      (void)fabric.recv(1, 0, 1);
      fabric.send(Message{.source = 1, .destination = 0, .tag = 2,
                          .payload = {}});
    }
  });
  for (std::size_t i = 0; i < trips; ++i) {
    fabric.send(Message{.source = 0, .destination = 1, .tag = 1,
                        .payload = {}});
    (void)fabric.recv(0, 1, 2);
  }
  ponger.join();
}

TEST(SpinOutcomes, ImmediateRepliesCountSpinHits) {
  if (!may_spin(2)) GTEST_SKIP() << "this host does not spin";
  obs::MetricsRegistry metrics;
  Fabric fabric(2);
  fabric.set_metrics(&metrics);
  ping_pong(fabric, 100);
  EXPECT_GT(metrics.counter("transport.recv_spin_hits").value(), 0U);
}

TEST(SpinOutcomes, LateMessageCountsOnePark) {
  obs::MetricsRegistry metrics;
  Fabric fabric(2);
  fabric.set_metrics(&metrics);
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fabric.send(Message{.source = 0, .destination = 1, .tag = 1,
                        .payload = {}});
  });
  (void)fabric.recv(1, 0, 1);
  late.join();
  EXPECT_EQ(metrics.counter("transport.recv_parks").value(), 1U);
  EXPECT_EQ(metrics.counter("transport.recv_spin_hits").value(), 0U);
}

TEST(SpinOutcomes, FabricWithMoreEndpointsThanCpusNeverSpins) {
  obs::MetricsRegistry metrics;
  Fabric fabric(usable_cpus() + 1);
  fabric.set_metrics(&metrics);
  ping_pong(fabric, 100);
  EXPECT_EQ(metrics.counter("transport.recv_spin_hits").value(), 0U);
}

}  // namespace
}  // namespace voltage
