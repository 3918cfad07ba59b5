// Tests of the InferenceServer: correctness of served results, concurrency
// from multiple submitters, statistics, lifecycle handling, and failure
// containment (a poisoned runtime must fail one future, not the server).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/chaos.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "transformer/decoder.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

InferenceServer::Options options(std::size_t k) {
  return InferenceServer::Options{.scheme = PartitionScheme::even(k),
                                  .policy = OrderPolicy::kAdaptive,
                                  .transport = TransportKind::kInMemory};
}

TEST(InferenceServer, ServesCorrectResults) {
  const TransformerModel model = make_model(mini_bert_spec());
  InferenceServer server(model, options(3));
  const auto tokens = random_tokens(20, model.spec().vocab_size, 81);
  auto future = server.submit(tokens);
  EXPECT_TRUE(allclose(future.get(), model.infer(tokens), 2e-3F));
  EXPECT_EQ(server.stats().completed, 1U);
}

TEST(InferenceServer, HandlesBurstsInFifoOrder) {
  const TransformerModel model = make_model(mini_bert_spec());
  InferenceServer server(model, options(2));
  std::vector<std::vector<TokenId>> inputs;
  std::vector<std::future<Tensor>> futures;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    inputs.push_back(random_tokens(10 + seed, model.spec().vocab_size, seed));
    futures.push_back(server.submit(inputs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(allclose(futures[i].get(), model.infer(inputs[i]), 2e-3F))
        << "request " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 8U);
  EXPECT_GT(stats.mean, 0.0);
  EXPECT_GE(stats.max, stats.p95);
  EXPECT_GE(stats.p95, stats.p50);
  // The sojourn decomposes into queue wait + service; with 8 requests
  // arriving at once behind a single dispatcher, later requests must have
  // waited, and every request was actually serviced.
  EXPECT_GT(stats.service.mean, 0.0);
  EXPECT_GT(stats.queue_wait.max, 0.0);
  EXPECT_GE(stats.queue_wait.max, stats.queue_wait.p95);
  EXPECT_GE(stats.queue_wait.p95, stats.queue_wait.p50);
  EXPECT_GE(stats.service.max, stats.service.p95);
  EXPECT_GE(stats.service.p95, stats.service.p50);
  // Mean sojourn is the mean of (wait + service); allow scheduling jitter.
  EXPECT_NEAR(stats.mean, stats.queue_wait.mean + stats.service.mean,
              0.25 * stats.mean);
  EXPECT_LE(stats.queue_wait.max, stats.max);
  EXPECT_LE(stats.service.max, stats.max);
}

TEST(InferenceServer, ConcurrentSubmitters) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  InferenceServer server(model, options(2));
  constexpr int kThreads = 4;
  std::vector<std::thread> submitters;
  // One byte per submitter: vector<bool> packs them into one shared word.
  std::vector<char> ok(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      const auto tokens =
          random_tokens(8 + t, model.spec().vocab_size, 100 + t);
      auto future = server.submit(tokens);
      ok[t] = allclose(future.get(), model.infer(tokens), 2e-3F);
    });
  }
  for (auto& t : submitters) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[t]) << t;
}

TEST(InferenceServer, MixedModalities) {
  const TransformerModel model = make_model(mini_vit_spec());
  InferenceServer server(model, options(2));
  const Image image = random_image(32, 3, 9);
  auto future = server.submit(image);
  EXPECT_TRUE(allclose(future.get(), model.infer(image), 2e-3F));
}

TEST(InferenceServer, ShutdownRejectsNewButDrainsQueued) {
  const TransformerModel model = make_model(mini_bert_spec());
  InferenceServer server(model, options(2));
  const auto tokens = random_tokens(15, model.spec().vocab_size, 7);
  auto pending = server.submit(tokens);
  server.shutdown();
  EXPECT_THROW((void)server.submit(tokens), std::runtime_error);
  // The already-queued request still completes.
  EXPECT_TRUE(allclose(pending.get(), model.infer(tokens), 2e-3F));
}

TEST(InferenceServer, PropagatesInferenceErrors) {
  const TransformerModel model = make_model(mini_bert_spec());
  InferenceServer server(model, options(2));
  // A token beyond the vocabulary makes preprocessing throw; the future
  // must carry that exception instead of hanging.
  auto future = server.submit(std::vector<TokenId>{
      static_cast<TokenId>(model.spec().vocab_size + 5)});
  EXPECT_THROW((void)future.get(), std::out_of_range);
  // The server remains usable afterwards.
  const auto good = random_tokens(10, model.spec().vocab_size, 3);
  EXPECT_TRUE(allclose(server.submit(good).get(), model.infer(good), 2e-3F));
}

TEST(InferenceServer, PoisonedRuntimeFailsOneFutureThenRecovers) {
  // A device going dark mid-inference poisons the runtime's transport. The
  // dispatcher must reject exactly that request's future, rebuild the
  // runtime on a fresh transport, and keep serving later requests
  // correctly.
  const TransformerModel model = make_model(mini_bert_spec());
  auto opts = options(2);
  auto builds = std::make_shared<std::atomic<int>>(0);
  opts.transport_factory = [builds](std::size_t devices) {
    std::unique_ptr<Transport> fabric =
        make_transport(TransportKind::kInMemory, devices);
    if (builds->fetch_add(1) > 0) return fabric;
    return std::unique_ptr<Transport>(new ChaosTransport(
        std::move(fabric),
        ChaosOptions{
            .max_delay_seconds = 1e-4,
            .seed = 43,
            .crash = ChaosOptions::Crash{.device = 0, .after_sends = 2}}));
  };
  InferenceServer server(model, opts);
  const auto tokens = random_tokens(12, model.spec().vocab_size, 21);
  auto doomed = server.submit(tokens);
  // Later requests run on the rebuilt runtime. Collecting one first also
  // means the dispatcher is done with the doomed request, so this thread
  // holds the last reference to its error (ThreadSanitizer cannot see the
  // uninstrumented exception refcount across threads).
  EXPECT_TRUE(
      allclose(server.submit(tokens).get(), model.infer(tokens), 2e-3F));
  try {
    (void)doomed.get();
    FAIL() << "the poisoned request's future must carry the fault";
  } catch (const std::runtime_error& e) {
    const std::string_view what(e.what());
    EXPECT_NE(what.find("crashed"), std::string_view::npos) << what;
    EXPECT_NE(what.find("seed=43"), std::string_view::npos) << what;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1U);
  EXPECT_EQ(stats.runtime_rebuilds, 1U);
  EXPECT_EQ(stats.completed, 1U);
  EXPECT_EQ(builds->load(), 2);
}

TEST(InferenceServer, RequestDeadlineUnhitLeavesResultsIntact) {
  // Plumbing check: a generous per-request deadline changes nothing on the
  // healthy path (the deadline only matters when a device wedges).
  const TransformerModel model = make_model(mini_bert_spec());
  auto opts = options(2);
  opts.request_deadline = 300.0;
  InferenceServer server(model, opts);
  EXPECT_EQ(server.runtime().recv_timeout(), 300.0);
  const auto tokens = random_tokens(10, model.spec().vocab_size, 33);
  EXPECT_TRUE(
      allclose(server.submit(tokens).get(), model.infer(tokens), 2e-3F));
}

TEST(InferenceServer, WorksOverRealSockets) {
  const TransformerModel model = make_model(mini_bert_spec());
  InferenceServer server(model,
                         {.scheme = PartitionScheme::even(2),
                          .policy = OrderPolicy::kAdaptive,
                          .transport = TransportKind::kUnixSocket});
  const auto tokens = random_tokens(14, model.spec().vocab_size, 91);
  EXPECT_TRUE(
      allclose(server.submit(tokens).get(), model.infer(tokens), 2e-3F));
}

TEST(InferenceServer, GenerateMatchesSingleDeviceGreedyDecode) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  InferenceServer server(model, options(2));
  const auto prompt = random_tokens(12, model.spec().vocab_size, 17);
  constexpr std::size_t kNewTokens = 6;
  auto future = server.submit_generate(prompt, kNewTokens);

  // Reference: the same greedy decode on a single-device KV cache.
  IncrementalDecoder reference(model);
  std::vector<TokenId> expected;
  Tensor logits = reference.prime(prompt);
  for (std::size_t i = 0; i < kNewTokens; ++i) {
    const auto next = static_cast<TokenId>(argmax_row(logits, 0));
    expected.push_back(next);
    if (i + 1 < kNewTokens) logits = reference.step(next);
  }
  EXPECT_EQ(future.get(), expected);
  EXPECT_EQ(server.stats().completed, 1U);

  // The decoder persists across requests: a second generation still works
  // (each request re-primes, so results are independent of history).
  EXPECT_EQ(server.submit_generate(prompt, kNewTokens).get(), expected);
}

TEST(InferenceServer, ServesOnQuantizedPlane) {
  // Options.precision = kInt8 threads through to both engines: logits
  // requests run the int8 runtime, generation requests the int8 decoder.
  // Served predictions match the fp32 reference model's argmax, and the
  // served generation matches fp32 greedy decode token for token.
  const TransformerModel model = make_model(mini_gpt2_spec());
  InferenceServer::Options opts = options(3);
  opts.precision = Precision::kInt8;
  InferenceServer server(model, opts);
  EXPECT_EQ(server.runtime().precision(), Precision::kInt8);

  const auto tokens = random_tokens(14, model.spec().vocab_size, 19);
  const Tensor served = server.submit(tokens).get();
  const Tensor exact = model.infer(tokens);
  ASSERT_TRUE(served.same_shape(exact));
  EXPECT_EQ(argmax_row(served, 0), argmax_row(exact, 0));

  constexpr std::size_t kNewTokens = 5;
  IncrementalDecoder reference(model);
  std::vector<TokenId> expected;
  Tensor logits = reference.prime(tokens);
  for (std::size_t i = 0; i < kNewTokens; ++i) {
    const auto next = static_cast<TokenId>(argmax_row(logits, 0));
    expected.push_back(next);
    if (i + 1 < kNewTokens) logits = reference.step(next);
  }
  EXPECT_EQ(server.submit_generate(tokens, kNewTokens).get(), expected);
  EXPECT_EQ(server.stats().completed, 2U);
  EXPECT_EQ(server.stats().failed, 0U);
}

TEST(InferenceServer, GenerateAndLogitsRequestsInterleave) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  InferenceServer server(model, options(2));
  const auto prompt = random_tokens(9, model.spec().vocab_size, 23);
  auto generated = server.submit_generate(prompt, 3);
  auto logits = server.submit(prompt);
  EXPECT_EQ(generated.get().size(), 3U);
  EXPECT_TRUE(allclose(logits.get(), model.infer(prompt), 2e-3F));
  EXPECT_EQ(server.stats().completed, 2U);
}

TEST(InferenceServer, GenerateRejectsNonCausalModels) {
  const TransformerModel model = make_model(mini_bert_spec());
  InferenceServer server(model, options(2));
  EXPECT_THROW((void)server.submit_generate(
                   random_tokens(8, model.spec().vocab_size, 2), 4),
               std::invalid_argument);
}

TEST(InferenceServer, GenerateFailureFailsOneFutureAndRebuildsDecoder) {
  // A bad prompt token makes the generation fail inside the dispatcher; the
  // future carries the error, the decoder is dropped, and the next
  // generation request succeeds on a fresh one.
  const TransformerModel model = make_model(mini_gpt2_spec());
  InferenceServer server(model, options(2));
  auto doomed = server.submit_generate(
      {static_cast<TokenId>(model.spec().vocab_size + 3)}, 2);
  EXPECT_THROW((void)doomed.get(), std::out_of_range);
  const auto good = random_tokens(10, model.spec().vocab_size, 29);
  EXPECT_EQ(server.submit_generate(good, 4).get().size(), 4U);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1U);
  EXPECT_EQ(stats.completed, 1U);
}

TEST(InferenceServer, EmptyStats) {
  const TransformerModel model = make_model(mini_bert_spec());
  InferenceServer server(model, options(1));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 0U);
  EXPECT_EQ(stats.mean, 0.0);
  EXPECT_EQ(stats.queue_wait.mean, 0.0);
  EXPECT_EQ(stats.service.mean, 0.0);
  EXPECT_EQ(server.queue_depth(), 0U);
}

TEST(InferenceServer, TracesQueueWaitAndServicePerRequest) {
  const TransformerModel model = make_model(mini_bert_spec());
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  auto opts = options(2);
  opts.tracer = &tracer;
  opts.metrics = &metrics;
  InferenceServer server(model, opts);
  constexpr std::size_t kRequests = 3;
  std::vector<std::future<Tensor>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(
        server.submit(random_tokens(10 + i, model.spec().vocab_size, i + 1)));
  }
  for (auto& f : futures) (void)f.get();

  // One queue_wait and one service span per request, on the serving track,
  // each carrying the request id.
  std::size_t waits = 0;
  std::size_t services = 0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (std::string_view(e.category) != "serve") continue;
    EXPECT_EQ(e.track, obs::kServeTrack);
    EXPECT_GE(e.request, 0);
    EXPECT_LT(e.request, static_cast<std::int64_t>(kRequests));
    const std::string_view name(e.name);
    if (name == "queue_wait") waits += 1;
    if (name == "service") services += 1;
  }
  EXPECT_EQ(waits, kRequests);
  EXPECT_EQ(services, kRequests);
  EXPECT_EQ(metrics.counter("server.requests_completed").value(), kRequests);
  EXPECT_EQ(metrics.histogram("server.service_seconds").snapshot().count,
            kRequests);
}

// --- One mesh per server ----------------------------------------------------

std::vector<TokenId> greedy_reference(const TransformerModel& model,
                                      const std::vector<TokenId>& prompt,
                                      std::size_t new_tokens) {
  IncrementalDecoder reference(model);
  Tensor logits = reference.prime(prompt);
  std::vector<TokenId> out;
  while (out.size() < new_tokens) {
    out.push_back(static_cast<TokenId>(argmax_row(logits, 0)));
    if (out.size() < new_tokens) logits = reference.step(out.back());
  }
  return out;
}

// Counts the transports the server builds; every one is a ChaosTransport
// whose device 1 goes dark after `crash_after` sends (0 = never).
InferenceServer::Options counted_options(
    std::shared_ptr<std::atomic<int>> builds, std::uint64_t crash_after) {
  auto opts = options(2);
  opts.transport_factory = [builds, crash_after](std::size_t devices) {
    builds->fetch_add(1);
    ChaosOptions chaos{.max_delay_seconds = 1e-4, .seed = 61, .crash = {}};
    if (crash_after > 0) {
      chaos.crash =
          ChaosOptions::Crash{.device = 1, .after_sends = crash_after};
    }
    return std::unique_ptr<Transport>(new ChaosTransport(
        make_transport(TransportKind::kInMemory, devices), chaos));
  };
  return opts;
}

TEST(InferenceServer, LogitsAndGenerationsShareOneMesh) {
  // The runtime and the decoder run on one mesh: one transport for both
  // kinds of request.
  const TransformerModel model = make_model(mini_gpt2_spec());
  auto builds = std::make_shared<std::atomic<int>>(0);
  InferenceServer server(model, counted_options(builds, 0));
  const auto prompt = random_tokens(9, model.spec().vocab_size, 41);
  EXPECT_TRUE(
      allclose(server.submit(prompt).get(), model.infer(prompt), 2e-3F));
  EXPECT_EQ(server.submit_generate(prompt, 4).get(),
            greedy_reference(model, prompt, 4));
  EXPECT_EQ(builds->load(), 1);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 2U);
  EXPECT_EQ(stats.runtime_rebuilds, 0U);
}

TEST(InferenceServer, GenerationCrashRebuildsTheOneMeshForEveryRequestKind) {
  // Device 1 goes dark mid-generation. The generation fails with the chaos
  // root cause, the dispatcher rebuilds the one mesh (with the runtime and
  // the decoder on it) once, and both kinds of request then succeed on the
  // new mesh, whose crash budget they fit under.
  const TransformerModel model = make_model(mini_gpt2_spec());
  auto builds = std::make_shared<std::atomic<int>>(0);
  InferenceServer server(model, counted_options(builds, 40));
  const auto prompt = random_tokens(8, model.spec().vocab_size, 43);
  auto doomed = server.submit_generate(prompt, 30);
  doomed.wait();  // nothing else is queued until it has failed
  EXPECT_TRUE(
      allclose(server.submit(prompt).get(), model.infer(prompt), 2e-3F));
  EXPECT_EQ(server.submit_generate(prompt, 4).get(),
            greedy_reference(model, prompt, 4));
  // Collecting the later requests first means the dispatcher is done with
  // the doomed request, so this thread holds the last reference to its
  // error (ThreadSanitizer cannot see the uninstrumented exception
  // refcount across threads).
  try {
    (void)doomed.get();
    FAIL() << "30 tokens cannot fit under the 40-send crash budget";
  } catch (const std::runtime_error& e) {
    const std::string_view what(e.what());
    EXPECT_NE(what.find("seed=61"), std::string_view::npos) << what;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1U);
  EXPECT_EQ(stats.completed, 2U);
  EXPECT_EQ(stats.runtime_rebuilds, 1U);
  EXPECT_EQ(builds->load(), 2);
}

TEST(InferenceServer, LogitsRequestThatPoisonsTheMeshFailsInFlightGenerations) {
  // A logits request's receives time out mid-prefill and poison the one
  // mesh: the generation decoding on it fails with the same root cause,
  // and queued requests run on the rebuilt mesh.
  ModelSpec spec = mini_gpt2_spec();
  spec.max_positions = 8192;  // room for a generation that outlives it
  const TransformerModel model(spec, 1);
  auto builds = std::make_shared<std::atomic<int>>(0);
  InferenceServer server(model, counted_options(builds, 0));
  // A deadline no prefill can meet; the rebuilt runtime gets the options'
  // (none) back.
  server.runtime().set_recv_timeout(1e-9);
  const auto prompt = random_tokens(8, spec.vocab_size, 71);
  auto generation = server.submit_generate(prompt, 4000);
  while (server.batch_occupancy() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto doomed = server.submit(prompt);
  EXPECT_TRUE(
      allclose(server.submit(prompt).get(), model.infer(prompt), 2e-3F));
  EXPECT_EQ(server.submit_generate(prompt, 4).get(),
            greedy_reference(model, prompt, 4));
  // The later requests were collected first, so this thread holds the last
  // references to the shared error (see above).
  EXPECT_THROW((void)doomed.get(), RecvTimeoutError);
  EXPECT_THROW((void)generation.get(), RecvTimeoutError);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 2U);
  EXPECT_EQ(stats.completed, 2U);
  EXPECT_EQ(stats.runtime_rebuilds, 1U);
  EXPECT_EQ(builds->load(), 2);
}

}  // namespace
}  // namespace voltage
