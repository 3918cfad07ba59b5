// Continuous-batching tests: a batched decode step must be bitwise
// identical to stepping each sequence alone (fp32 and int8, every
// transport), slots must join and leave mid-batch with ids recycled, the
// per-step wire cost must stay one broadcast + one merge round regardless
// of the batch size, and a device crash mid-batch must fail every in-flight
// sequence with the root cause while the server recovers on a fresh
// decoder.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/chaos.h"
#include "net/transport.h"
#include "partition/decode_attention.h"
#include "partition/scheme.h"
#include "runtime/distributed_decoder.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "transformer/decoder.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

::testing::AssertionResult row_bitwise_equal(const Tensor& batched,
                                             std::size_t r,
                                             const Tensor& alone) {
  if (batched.cols() != alone.cols() || alone.rows() != 1) {
    return ::testing::AssertionFailure()
           << "shape mismatch: [" << batched.rows() << "x" << batched.cols()
           << "] row " << r << " vs [" << alone.rows() << "x" << alone.cols()
           << "]";
  }
  if (std::memcmp(batched.row(r).data(), alone.row(0).data(),
                  alone.cols() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure()
           << "row " << r << " differs bitwise from the sequential logits";
  }
  return ::testing::AssertionSuccess();
}

// --- KvBlockPool -----------------------------------------------------------

TEST(KvBlockPool, RecyclesReleasedBlocks) {
  KvBlockPool pool(/*block_floats=*/8);
  const std::size_t a = pool.allocate();
  const std::size_t b = pool.allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.blocks_in_use(), 2U);
  EXPECT_EQ(pool.blocks_allocated(), 2U);
  float* const storage = pool.data(a);
  pool.release(a);
  EXPECT_EQ(pool.blocks_in_use(), 1U);
  // Freed ids are reused before the arena grows, and the storage is stable.
  const std::size_t c = pool.allocate();
  EXPECT_EQ(c, a);
  EXPECT_EQ(pool.data(c), storage);
  EXPECT_EQ(pool.blocks_allocated(), 2U);
  EXPECT_EQ(pool.memory_bytes(), 2U * 8U * sizeof(float));
}

TEST(KvBlockPool, CapExhaustionThrows) {
  KvBlockPool pool(/*block_floats=*/4, /*max_blocks=*/2);
  const std::size_t a = pool.allocate();
  (void)pool.allocate();
  EXPECT_THROW((void)pool.allocate(), std::length_error);
  // Releasing makes room again: the cap bounds concurrent use, not total
  // allocations over the pool's lifetime.
  pool.release(a);
  EXPECT_NO_THROW((void)pool.allocate());
}

// --- Bitwise equivalence: batched vs sequential ----------------------------

class BatchedEquivalence
    : public ::testing::TestWithParam<std::tuple<TransportKind, Precision>> {};

TEST_P(BatchedEquivalence, BatchedStepsMatchSequentialBitwiseAcrossK) {
  const auto [transport, precision] = GetParam();
  const TransformerModel model = make_model(mini_gpt2_spec());
  constexpr std::size_t kSequences = 3;
  constexpr int kSteps = 6;
  // Ragged prompt lengths so slot round-robin phases differ per sequence.
  std::vector<std::vector<TokenId>> prompts;
  for (std::size_t s = 0; s < kSequences; ++s) {
    prompts.push_back(
        random_tokens(7 + 3 * s, model.spec().vocab_size, 100 + s));
  }
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    // Sequential reference: each sequence served alone on its own decoder.
    std::vector<std::vector<Tensor>> alone;  // [sequence][step 0 = prime]
    for (std::size_t s = 0; s < kSequences; ++s) {
      DistributedDecoder solo(model, PartitionScheme::even(k),
                              OrderPolicy::kAdaptive, transport);
      solo.set_precision(precision);
      std::vector<Tensor> history;
      history.push_back(solo.prime(prompts[s]));
      for (int step = 0; step < kSteps; ++step) {
        const auto next =
            static_cast<TokenId>(argmax_row(history.back(), 0));
        history.push_back(solo.step(next));
      }
      alone.push_back(std::move(history));
    }

    DistributedDecoder batched(model, PartitionScheme::even(k),
                               OrderPolicy::kAdaptive, transport);
    batched.set_precision(precision);
    std::vector<SlotToken> lanes;
    for (std::size_t s = 0; s < kSequences; ++s) {
      const auto primed = batched.prime_slot(prompts[s]);
      EXPECT_EQ(primed.slot, s);
      EXPECT_TRUE(row_bitwise_equal(primed.logits, 0, alone[s][0]))
          << "K=" << k << " prime of sequence " << s;
      lanes.push_back(SlotToken{
          .slot = primed.slot,
          .token = static_cast<TokenId>(argmax_row(primed.logits, 0))});
    }
    EXPECT_EQ(batched.active_slots(), kSequences);
    for (int step = 0; step < kSteps; ++step) {
      const Tensor logits = batched.step_batch(lanes);
      ASSERT_EQ(logits.rows(), kSequences);
      for (std::size_t s = 0; s < kSequences; ++s) {
        ASSERT_TRUE(row_bitwise_equal(logits, s, alone[s][step + 1]))
            << "K=" << k << " sequence " << s << " step " << step;
        lanes[s].token = static_cast<TokenId>(argmax_row(logits, s));
      }
    }
    for (std::size_t s = 0; s < kSequences; ++s) {
      EXPECT_EQ(batched.slot_position(s),
                prompts[s].size() + static_cast<std::size_t>(kSteps));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TransportsAndPrecisions, BatchedEquivalence,
    ::testing::Combine(::testing::Values(TransportKind::kInMemory,
                                         TransportKind::kUnixSocket),
                       ::testing::Values(Precision::kFp32, Precision::kInt8)),
    [](const auto& info) {
      const std::string t = std::get<0>(info.param) == TransportKind::kInMemory
                                ? "InMemory"
                                : "UnixSocket";
      const std::string p =
          std::get<1>(info.param) == Precision::kFp32 ? "Fp32" : "Int8";
      return t + p;
    });

// --- Join/leave at token granularity ---------------------------------------

TEST(ContinuousBatching, SequencesJoinAndLeaveMidBatchWithSlotReuse) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  const PartitionScheme scheme = PartitionScheme::parse("0.5,0.3,0.2");
  const auto prompt_a = random_tokens(9, model.spec().vocab_size, 1);
  const auto prompt_b = random_tokens(12, model.spec().vocab_size, 2);
  const auto prompt_c = random_tokens(5, model.spec().vocab_size, 3);

  DistributedDecoder batched(model, scheme);
  DistributedDecoder solo_b(model, scheme);

  const auto a = batched.prime_slot(prompt_a);
  const auto b = batched.prime_slot(prompt_b);
  EXPECT_EQ(a.slot, 0U);
  EXPECT_EQ(b.slot, 1U);
  Tensor b_ref = solo_b.prime(prompt_b);
  ASSERT_TRUE(row_bitwise_equal(b.logits, 0, b_ref));

  // Phase 1: A and B decode together.
  SlotToken lane_a{.slot = a.slot,
                   .token = static_cast<TokenId>(argmax_row(a.logits, 0))};
  SlotToken lane_b{.slot = b.slot,
                   .token = static_cast<TokenId>(argmax_row(b.logits, 0))};
  for (int step = 0; step < 3; ++step) {
    const std::vector<SlotToken> lanes{lane_a, lane_b};
    const Tensor logits = batched.step_batch(lanes);
    b_ref = solo_b.step(lane_b.token);
    ASSERT_TRUE(row_bitwise_equal(logits, 1, b_ref)) << "step " << step;
    lane_a.token = static_cast<TokenId>(argmax_row(logits, 0));
    lane_b.token = static_cast<TokenId>(argmax_row(logits, 1));
  }

  // A completes: its blocks free, B decodes on untouched state.
  batched.release_slot(a.slot);
  EXPECT_FALSE(batched.slot_active(a.slot));
  EXPECT_EQ(batched.active_slots(), 1U);
  for (int step = 0; step < 2; ++step) {
    const std::vector<SlotToken> lanes{lane_b};
    const Tensor logits = batched.step_batch(lanes);
    b_ref = solo_b.step(lane_b.token);
    ASSERT_TRUE(row_bitwise_equal(logits, 0, b_ref)) << "solo step " << step;
    lane_b.token = static_cast<TokenId>(argmax_row(logits, 0));
  }

  // C joins mid-flight and recycles A's slot id.
  DistributedDecoder solo_c(model, scheme);
  const auto c = batched.prime_slot(prompt_c);
  EXPECT_EQ(c.slot, a.slot);
  Tensor c_ref = solo_c.prime(prompt_c);
  ASSERT_TRUE(row_bitwise_equal(c.logits, 0, c_ref));
  SlotToken lane_c{.slot = c.slot,
                   .token = static_cast<TokenId>(argmax_row(c.logits, 0))};
  for (int step = 0; step < 3; ++step) {
    const std::vector<SlotToken> lanes{lane_b, lane_c};
    const Tensor logits = batched.step_batch(lanes);
    b_ref = solo_b.step(lane_b.token);
    c_ref = solo_c.step(lane_c.token);
    ASSERT_TRUE(row_bitwise_equal(logits, 0, b_ref)) << "joined step " << step;
    ASSERT_TRUE(row_bitwise_equal(logits, 1, c_ref)) << "joined step " << step;
    lane_b.token = static_cast<TokenId>(argmax_row(logits, 0));
    lane_c.token = static_cast<TokenId>(argmax_row(logits, 1));
  }
  EXPECT_EQ(batched.slot_position(b.slot), prompt_b.size() + 8U);
  EXPECT_EQ(batched.slot_position(c.slot), prompt_c.size() + 3U);
}

TEST(ContinuousBatching, StepBatchValidatesLanesWithoutPoisoningTheMesh) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  DistributedDecoder decoder(model, PartitionScheme::even(2));
  const auto primed =
      decoder.prime_slot(random_tokens(6, model.spec().vocab_size, 4));
  const std::vector<SlotToken> dup{{primed.slot, 1}, {primed.slot, 2}};
  EXPECT_THROW((void)decoder.step_batch(dup), std::invalid_argument);
  const std::vector<SlotToken> unprimed{{primed.slot + 1, 1}};
  EXPECT_THROW((void)decoder.step_batch(unprimed), std::logic_error);
  EXPECT_THROW((void)decoder.step_batch({}), std::invalid_argument);
  EXPECT_THROW(decoder.release_slot(primed.slot + 1), std::out_of_range);
  // Validation never touched the mesh: the primed slot still decodes.
  EXPECT_FALSE(decoder.fabric().closed());
  const std::vector<SlotToken> good{{primed.slot, 1}};
  EXPECT_EQ(decoder.step_batch(good).rows(), 1U);
}

// --- Wire accounting: one broadcast + one merge round per batch step -------

TEST(ContinuousBatching, StepMessagesConstantAndBytesSublinearInBatch) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    DistributedDecoder decoder(model, PartitionScheme::even(4));
    decoder.set_precision(precision);
    std::vector<SlotToken> lanes;
    for (std::size_t s = 0; s < 4; ++s) {
      const auto primed = decoder.prime_slot(
          random_tokens(8 + s, model.spec().vocab_size, 50 + s));
      lanes.push_back(SlotToken{.slot = primed.slot, .token = 1});
    }
    const auto step_cost = [&](std::span<const SlotToken> batch) {
      const TrafficStats before = decoder.fabric().total_stats();
      (void)decoder.step_batch(batch);
      const TrafficStats after = decoder.fabric().total_stats();
      return std::pair<std::uint64_t, std::uint64_t>(
          after.messages_sent - before.messages_sent,
          after.bytes_sent - before.bytes_sent);
    };
    const auto [m1, bytes1] =
        step_cost(std::span<const SlotToken>(lanes.data(), 1));
    const auto [m4, bytes4] =
        step_cost(std::span<const SlotToken>(lanes.data(), 4));
    // The scheduling win: a batched step is ONE command broadcast and ONE
    // softmax-merge round per layer no matter how many lanes ride it, so
    // the message count (the latency-bound term on a real mesh) does not
    // grow with B at all — only payload bytes do, and those sublinearly
    // (the per-step fixed cost is amortized over 4 lanes).
    EXPECT_EQ(m4, m1) << "precision "
                      << (precision == Precision::kInt8 ? "int8" : "fp32");
    EXPECT_GT(bytes4, bytes1);
    EXPECT_LT(bytes4, 4 * bytes1);
  }
}

// --- Failure containment ---------------------------------------------------

TEST(ContinuousBatching, MidBatchCrashFailsEverySlotWithRootCause) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  auto chaos = std::make_unique<ChaosTransport>(
      make_transport(TransportKind::kInMemory, 4),
      ChaosOptions{.max_delay_seconds = 1e-4,
                   .seed = 23,
                   .crash = ChaosOptions::Crash{.device = 1,
                                                .after_sends = 60}});
  DistributedDecoder decoder(model, PartitionScheme::even(3),
                             OrderPolicy::kAdaptive, std::move(chaos));
  const auto a =
      decoder.prime_slot(random_tokens(8, model.spec().vocab_size, 5));
  const auto b =
      decoder.prime_slot(random_tokens(6, model.spec().vocab_size, 6));
  std::vector<SlotToken> lanes{{a.slot, 1}, {b.slot, 2}};
  bool crashed = false;
  for (int step = 0; step < 64 && !crashed; ++step) {
    try {
      const Tensor logits = decoder.step_batch(lanes);
      lanes[0].token = static_cast<TokenId>(argmax_row(logits, 0));
      lanes[1].token = static_cast<TokenId>(argmax_row(logits, 1));
    } catch (const TransportClosedError& e) {
      crashed = true;
      EXPECT_NE(std::string(e.what()).find("crashed"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(crashed) << "crash fault never surfaced";
  // The whole decoder is dead — every slot, not just the one mid-step.
  EXPECT_THROW((void)decoder.step_batch(lanes), std::logic_error);
  EXPECT_THROW((void)decoder.prime_slot(random_tokens(4, 8, 1)),
               std::logic_error);
  EXPECT_THROW(decoder.release_slot(a.slot), std::logic_error);
}

TEST(ContinuousBatching, KvBlockLimitSurfacesAsDeviceFailure) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  DistributedDecoder decoder(model, PartitionScheme::even(1));
  // mini-gpt2 has 4 layers; one block per (layer, slot) is the minimum for
  // any prompt, so a 2-block cap cannot even hold one sequence.
  decoder.set_kv_block_limit(2);
  try {
    (void)decoder.prime_slot(random_tokens(10, model.spec().vocab_size, 7));
    FAIL() << "prefill succeeded past the block cap";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("out of blocks"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)decoder.prime_slot(random_tokens(4, 8, 1)),
               std::logic_error);
}

// --- Server-level continuous batching --------------------------------------

std::vector<TokenId> greedy_reference(const TransformerModel& model,
                                      const std::vector<TokenId>& prompt,
                                      std::size_t new_tokens) {
  IncrementalDecoder reference(model);
  Tensor logits = reference.prime(prompt);
  std::vector<TokenId> out;
  while (out.size() < new_tokens) {
    const auto next = static_cast<TokenId>(argmax_row(logits, 0));
    out.push_back(next);
    if (out.size() < new_tokens) logits = reference.step(next);
  }
  return out;
}

TEST(ServerBatching, ConcurrentGenerationsBatchAndMatchGreedyReference) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  obs::MetricsRegistry metrics;
  InferenceServer::Options opts{.scheme = PartitionScheme::even(2),
                                .policy = OrderPolicy::kAdaptive,
                                .transport = TransportKind::kInMemory,
                                .max_batch = 4,
                                .metrics = &metrics};
  InferenceServer server(model, opts);
  constexpr std::size_t kRequests = 6;
  constexpr std::size_t kNewTokens = 10;
  std::vector<std::vector<TokenId>> prompts;
  std::vector<std::future<std::vector<TokenId>>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    prompts.push_back(
        random_tokens(6 + i, model.spec().vocab_size, 200 + i));
    futures.push_back(server.submit_generate(prompts.back(), kNewTokens));
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(futures[i].get(),
              greedy_reference(model, prompts[i], kNewTokens))
        << "request " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.failed, 0U);
  // Six requests burst at a dispatcher with max_batch 4: some iteration
  // must have decoded several lanes at once, and never more than the cap.
  EXPECT_GE(stats.batch_peak, 2U);
  EXPECT_LE(stats.batch_peak, 4U);
  EXPECT_GT(stats.ttft.mean, 0.0);
  EXPECT_GT(stats.per_token.mean, 0.0);
  EXPECT_LE(stats.ttft.p50, stats.ttft.max);
  const obs::HistogramSnapshot occupancy =
      metrics.histogram("server.batch_occupancy").snapshot();
  EXPECT_GT(occupancy.count, 0U);
  EXPECT_GE(occupancy.max, 2.0);
}

TEST(ServerBatching, MeshCrashFailsInFlightBatchAndRecovers) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  InferenceServer::Options opts{.scheme = PartitionScheme::even(2),
                                .policy = OrderPolicy::kAdaptive,
                                .transport = TransportKind::kInMemory,
                                .max_batch = 4};
  opts.transport_factory = [](std::size_t devices) {
    return std::unique_ptr<Transport>(new ChaosTransport(
        make_transport(TransportKind::kInMemory, devices),
        ChaosOptions{
            .max_delay_seconds = 1e-4,
            .seed = 29,
            .crash = ChaosOptions::Crash{.device = 1, .after_sends = 120}}));
  };
  InferenceServer server(model, opts);
  constexpr std::size_t kRequests = 4;
  std::vector<std::future<std::vector<TokenId>>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(server.submit_generate(
        random_tokens(8, model.spec().vocab_size, 300 + i), 30));
  }
  std::size_t failed = 0;
  for (auto& future : futures) {
    try {
      EXPECT_EQ(future.get().size(), 30U);
    } catch (const std::exception&) {
      failed += 1;
    }
  }
  // 4 requests x 30 tokens cannot fit under the 120-send crash budget, so
  // at least one in-flight generation died with the mesh.
  EXPECT_GE(failed, 1U);
  // Queued/later requests are served by a fresh decoder (the factory runs
  // again); a short generation fits well under the new crash budget.
  const auto prompt = random_tokens(7, model.spec().vocab_size, 310);
  EXPECT_EQ(server.submit_generate(prompt, 4).get(),
            greedy_reference(model, prompt, 4));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, failed);
  EXPECT_EQ(stats.completed + stats.failed, kRequests + 1);
}

TEST(ServerBatching, DeadlinePreemptsLongGenerationMidBatch) {
  ModelSpec spec = mini_gpt2_spec();
  spec.max_positions = 8192;  // room for a generation that cannot finish
  const TransformerModel model(spec, 1);
  InferenceServer::Options opts{.scheme = PartitionScheme::even(2),
                                .policy = OrderPolicy::kAdaptive,
                                .transport = TransportKind::kInMemory,
                                .max_batch = 2,
                                .request_deadline = 0.1};
  InferenceServer server(model, opts);
  auto doomed = server.submit_generate(
      random_tokens(8, model.spec().vocab_size, 9), 8000);
  EXPECT_THROW((void)doomed.get(), RecvTimeoutError);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.preempted, 1U);
  EXPECT_EQ(stats.failed, 1U);
  // Preemption released the slot without killing the mesh: the next
  // (feasible) request decodes on the same decoder.
  const auto prompt = random_tokens(6, model.spec().vocab_size, 10);
  EXPECT_EQ(server.submit_generate(prompt, 3).get(),
            greedy_reference(model, prompt, 3));
}

}  // namespace
}  // namespace voltage
