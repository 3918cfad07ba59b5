// Distributed KV-cache decoding tests: the online-softmax merge must be
// mathematically exact (monolithic softmax over the union of position sets),
// and DistributedDecoder must decode the very same tokens as the
// single-device IncrementalDecoder and full-recompute VoltageRuntime on
// every transport, with per-step wire bytes independent of the context
// length. Failure containment follows the runtimes: a device crashing
// mid-decode surfaces its root cause in bounded time and leaves the decoder
// dead, not wedged.
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/chaos.h"
#include "net/transport.h"
#include "partition/decode_attention.h"
#include "partition/scheme.h"
#include "runtime/distributed_decoder.h"
#include "runtime/mesh.h"
#include "runtime/voltage_runtime.h"
#include "tensor/flops.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "transformer/decoder.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Online-softmax merge: exactness against a monolithic softmax ---------

// Packs the online-softmax partial for scores[first..last) of each head:
// [max, denom, sum_j e^{s_j - max} v_j].
Tensor pack_partial(const std::vector<std::vector<float>>& scores,
                    const std::vector<std::vector<std::vector<float>>>& values,
                    std::size_t first, std::size_t last, std::size_t heads,
                    std::size_t head_dim) {
  Tensor packed = softmax_partial_identity(1, heads, head_dim);
  for (std::size_t h = 0; h < heads; ++h) {
    float* out = packed.row(0).data() + h * (head_dim + 2);
    float m = -std::numeric_limits<float>::infinity();
    for (std::size_t j = first; j < last; ++j) m = std::max(m, scores[h][j]);
    float denom = 0.0F;
    for (std::size_t j = first; j < last; ++j) {
      const float e = std::exp(scores[h][j] - m);
      denom += e;
      for (std::size_t c = 0; c < head_dim; ++c) {
        out[2 + c] += e * values[h][j][c];
      }
    }
    if (last > first) {
      out[0] = m;
      out[1] = denom;
    }
  }
  return packed;
}

TEST(SoftmaxMerge, ExactAgainstMonolithicSoftmax) {
  constexpr std::size_t kHeads = 2;
  constexpr std::size_t kDim = 3;
  constexpr std::size_t kPositions = 7;
  Rng rng(17);
  std::vector<std::vector<float>> scores(kHeads,
                                         std::vector<float>(kPositions));
  std::vector<std::vector<std::vector<float>>> values(
      kHeads, std::vector<std::vector<float>>(kPositions,
                                              std::vector<float>(kDim)));
  for (std::size_t h = 0; h < kHeads; ++h) {
    for (std::size_t j = 0; j < kPositions; ++j) {
      scores[h][j] = 8.0F * rng.next_uniform() - 4.0F;
      for (std::size_t c = 0; c < kDim; ++c) {
        values[h][j][c] = 2.0F * rng.next_uniform() - 1.0F;
      }
    }
  }

  // Three uneven "devices": positions [0,4), [4,5), [5,7), merged pairwise.
  Tensor merged = pack_partial(scores, values, 0, 4, kHeads, kDim);
  const Tensor b = pack_partial(scores, values, 4, 5, kHeads, kDim);
  const Tensor c = pack_partial(scores, values, 5, 7, kHeads, kDim);
  softmax_merge_inplace(merged, b, kHeads, kDim);
  softmax_merge_inplace(merged, c, kHeads, kDim);

  for (std::size_t h = 0; h < kHeads; ++h) {
    const float* triple = merged.row(0).data() + h * (kDim + 2);
    // Monolithic reference: softmax over all positions at once (double
    // accumulation so the reference is strictly more precise).
    double denom = 0.0;
    double expected[kDim] = {0.0, 0.0, 0.0};
    float m = -std::numeric_limits<float>::infinity();
    for (std::size_t j = 0; j < kPositions; ++j) m = std::max(m, scores[h][j]);
    for (std::size_t j = 0; j < kPositions; ++j) {
      const double e = std::exp(static_cast<double>(scores[h][j] - m));
      denom += e;
      for (std::size_t cc = 0; cc < kDim; ++cc) {
        expected[cc] += e * static_cast<double>(values[h][j][cc]);
      }
    }
    for (std::size_t cc = 0; cc < kDim; ++cc) {
      const double got =
          static_cast<double>(triple[2 + cc]) / static_cast<double>(triple[1]);
      EXPECT_NEAR(got, expected[cc] / denom, 1e-5) << "head " << h;
    }
  }
}

TEST(SoftmaxMerge, EmptyPartialIsIdentity) {
  constexpr std::size_t kHeads = 3;
  constexpr std::size_t kDim = 4;
  Rng rng(5);
  Tensor partial = softmax_partial_identity(1, kHeads, kDim);
  for (std::size_t h = 0; h < kHeads; ++h) {
    float* out = partial.row(0).data() + h * (kDim + 2);
    out[0] = rng.next_uniform();
    out[1] = 0.5F + rng.next_uniform();
    for (std::size_t c = 0; c < kDim; ++c) out[2 + c] = rng.next_uniform();
  }
  const Tensor identity = softmax_partial_identity(1, kHeads, kDim);

  // identity into partial: untouched, bitwise.
  Tensor acc = partial;
  softmax_merge_inplace(acc, identity, kHeads, kDim);
  EXPECT_EQ(acc, partial);

  // partial into identity: adopts the partial, bitwise.
  Tensor empty = identity;
  softmax_merge_inplace(empty, partial, kHeads, kDim);
  EXPECT_EQ(empty, partial);

  // identity into identity: still the identity, no NaNs from exp(-inf).
  Tensor both = identity;
  softmax_merge_inplace(both, identity, kHeads, kDim);
  EXPECT_EQ(both, identity);
}

TEST(SoftmaxMerge, FinalizeRejectsAllEmptyMerge) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  const LayerConfig& cfg = model.layers()[0].config();
  const Tensor identity =
      softmax_partial_identity(1, cfg.heads, cfg.head_dim);
  EXPECT_THROW(
      (void)softmax_merge_finalize(identity, model.layers()[0].weights().attention,
                                   cfg),
      std::invalid_argument);
}

TEST(DecodeAttention, SplitCachesMergeToWholeCacheResult) {
  // Partial attention over a split cache, merged, must match the partial
  // over the whole cache.
  const TransformerModel model = make_model(mini_gpt2_spec());
  const LayerConfig& cfg = model.layers()[0].config();
  const AttentionWeights& w = model.layers()[0].weights().attention;
  Rng rng(23);
  const Tensor rows = rng.uniform_tensor(6, cfg.hidden, -1.0F, 1.0F);
  const Tensor query = rng.uniform_tensor(1, cfg.hidden, -1.0F, 1.0F);

  KvBlockPool pool(kv_block_floats(cfg));
  DecodeLayerCache whole;
  DecodeLayerCache left;
  DecodeLayerCache right;
  whole.init(cfg, pool);
  left.init(cfg, pool);
  right.init(cfg, pool);
  whole.append(rows, w);
  left.append(rows.slice_rows(0, 4), w);
  right.append(rows.slice_rows(4, 6), w);
  EXPECT_EQ(whole.rows(), 6U);
  // Each position caches its per-head K and V: 2 H F_H floats.
  EXPECT_EQ(whole.stride(), 2 * cfg.heads * cfg.head_dim);
  EXPECT_EQ(whole.memory_bytes(),
            6 * 2 * cfg.heads * cfg.head_dim * sizeof(float));

  Tensor merged = decode_partial_attention(query, left, w, cfg);
  softmax_merge_inplace(merged, decode_partial_attention(query, right, w, cfg),
                        cfg.heads, cfg.head_dim);
  const Tensor reference = decode_partial_attention(query, whole, w, cfg);
  EXPECT_TRUE(allclose(softmax_merge_finalize(merged, w, cfg),
                       softmax_merge_finalize(reference, w, cfg), 1e-4F));
}

TEST(DecodeAttention, PartialsAreBitwiseInvariantToThePageSize) {
  // The kernel reads the cache one pool block (page) at a time. The same 37
  // rows cached through pools of 1, 16 and >= 37 positions per block — so
  // the rows cross 36, 2 and no block boundaries — must give
  // bitwise-identical partials.
  const TransformerModel model = make_model(mini_gpt2_spec());
  const LayerConfig& cfg = model.layers()[0].config();
  const AttentionWeights& w = model.layers()[0].weights().attention;
  constexpr std::size_t kRows = 37;
  Rng rng(41);
  const Tensor rows = rng.uniform_tensor(kRows, cfg.hidden, -1.0F, 1.0F);
  const Tensor query = rng.uniform_tensor(1, cfg.hidden, -1.0F, 1.0F);

  const std::size_t stride = 2 * cfg.heads * cfg.head_dim;
  std::vector<Tensor> partials;
  for (const std::size_t per_block :
       {std::size_t{1}, std::size_t{16}, std::size_t{64}}) {
    KvBlockPool pool(per_block * stride);
    DecodeLayerCache cache;
    cache.init(cfg, pool);
    // Uneven appends, so pages also fill across append calls.
    cache.append(rows.slice_rows(0, 5), w);
    cache.append(rows.slice_rows(5, 21), w);
    cache.append(rows.slice_rows(21, kRows), w);
    ASSERT_EQ(cache.rows(), kRows);
    EXPECT_EQ(cache.blocks(), (kRows + per_block - 1) / per_block);
    partials.push_back(decode_partial_attention(query, cache, w, cfg));
  }
  for (const Tensor& partial : partials) {
    ASSERT_EQ(partial.cols(), partials[0].cols());
    EXPECT_EQ(std::memcmp(partial.data(), partials[0].data(),
                          partial.byte_size()),
              0);
  }
}

TEST(DecodeAttention, TruncateReturnsEmptiedPagesAndKeepsSurvivors) {
  // The speculative rollback: 37 rows in 16-position pages, minus 6, leaves
  // 31 rows in 2 pages; the third page goes back to the pool, and the
  // survivors attend exactly as if the dropped rows had never been cached.
  const TransformerModel model = make_model(mini_gpt2_spec());
  const LayerConfig& cfg = model.layers()[0].config();
  const AttentionWeights& w = model.layers()[0].weights().attention;
  constexpr std::size_t kRows = 37;
  constexpr std::size_t kKept = 31;
  Rng rng(43);
  const Tensor rows = rng.uniform_tensor(kRows, cfg.hidden, -1.0F, 1.0F);
  const Tensor query = rng.uniform_tensor(1, cfg.hidden, -1.0F, 1.0F);
  // True when `cache` attends bitwise as `expected`.
  const auto attends_as = [&](const DecodeLayerCache& cache,
                              const Tensor& expected) {
    const Tensor partial = decode_partial_attention(query, cache, w, cfg);
    return partial.same_shape(expected) &&
           std::memcmp(partial.data(), expected.data(),
                       partial.byte_size()) == 0;
  };

  // One block holds kKvBlockPositions K/V positions.
  ASSERT_EQ(kv_block_floats(cfg),
            kKvBlockPositions * 2 * cfg.heads * cfg.head_dim);
  ASSERT_EQ(kKvBlockPositions, 16U);
  KvBlockPool pool(kv_block_floats(cfg));
  DecodeLayerCache cache;
  cache.init(cfg, pool);
  cache.append(rows, w);
  EXPECT_EQ(cache.blocks(), 3U);
  const Tensor untruncated = decode_partial_attention(query, cache, w, cfg);

  cache.truncate(kRows - kKept);
  EXPECT_EQ(cache.rows(), kKept);
  EXPECT_EQ(cache.blocks(), 2U);
  EXPECT_EQ(pool.blocks_in_use(), 2U);

  KvBlockPool reference_pool(kv_block_floats(cfg));
  DecodeLayerCache reference;
  reference.init(cfg, reference_pool);
  reference.append(rows.slice_rows(0, kKept), w);
  EXPECT_TRUE(
      attends_as(cache, decode_partial_attention(query, reference, w, cfg)));

  // Re-appending the dropped rows restores the untruncated partials.
  cache.append(rows.slice_rows(kKept, kRows), w);
  EXPECT_EQ(cache.rows(), kRows);
  EXPECT_EQ(pool.blocks_in_use(), 3U);
  EXPECT_TRUE(attends_as(cache, untruncated));

  // Rolling back past the first row throws and leaves every row in place.
  EXPECT_THROW(cache.truncate(cache.rows() + 1), std::out_of_range);
  EXPECT_EQ(cache.rows(), kRows);
  EXPECT_EQ(cache.blocks(), 3U);
  EXPECT_TRUE(attends_as(cache, untruncated));
}

// --- End-to-end decoding equivalence --------------------------------------

class DecodeTransportParam : public ::testing::TestWithParam<TransportKind> {};

TEST_P(DecodeTransportParam, TokensMatchIncrementalDecoderAcrossK) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  // 13 prompt tokens: not divisible by 2 or 4, so partitions are ragged.
  const auto prompt = random_tokens(13, model.spec().vocab_size, 21);
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    DistributedDecoder decoder(model, PartitionScheme::even(k),
                               OrderPolicy::kAdaptive, GetParam());
    IncrementalDecoder reference(model);
    Tensor logits = decoder.prime(prompt);
    Tensor ref_logits = reference.prime(prompt);
    EXPECT_TRUE(allclose(logits, ref_logits, 5e-3F)) << "K=" << k;
    for (int step = 0; step < 8; ++step) {
      const auto next = static_cast<TokenId>(argmax_row(logits, 0));
      const auto ref_next = static_cast<TokenId>(argmax_row(ref_logits, 0));
      ASSERT_EQ(next, ref_next) << "K=" << k << " diverged at step " << step;
      logits = decoder.step(next);
      ref_logits = reference.step(next);
      EXPECT_TRUE(allclose(logits, ref_logits, 5e-3F))
          << "K=" << k << " step " << step;
    }
    EXPECT_EQ(decoder.position(), reference.position());
  }
}

TEST_P(DecodeTransportParam, StepWireBytesIndependentOfContextLength) {
  // The tentpole's O(1)-wire claim, asserted from fabric counters: every
  // decode step moves exactly the same number of bytes, no matter how long
  // the context has grown.
  const TransformerModel model = make_model(mini_gpt2_spec());
  DistributedDecoder decoder(model, PartitionScheme::even(3),
                             OrderPolicy::kAdaptive, GetParam());
  Tensor logits = decoder.prime(random_tokens(16, model.spec().vocab_size, 9));
  std::uint64_t first_step_bytes = 0;
  for (int step = 0; step < 24; ++step) {
    const auto next = static_cast<TokenId>(argmax_row(logits, 0));
    const std::uint64_t before = decoder.fabric().total_stats().bytes_sent;
    logits = decoder.step(next);
    const std::uint64_t bytes =
        decoder.fabric().total_stats().bytes_sent - before;
    if (step == 0) {
      first_step_bytes = bytes;
      EXPECT_GT(bytes, 0U);
    } else {
      EXPECT_EQ(bytes, first_step_bytes) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransports, DecodeTransportParam,
                         ::testing::Values(TransportKind::kInMemory,
                                           TransportKind::kUnixSocket),
                         [](const auto& info) {
                           return info.param == TransportKind::kInMemory
                                      ? "InMemory"
                                      : "UnixSocket";
                         });

TEST(DistributedDecoder, TokensMatchFullRecomputeRuntime) {
  // The expensive invariant, on an uneven partition: cached distributed
  // steps pick the exact tokens a full distributed recompute picks.
  const TransformerModel model = make_model(mini_gpt2_spec());
  const PartitionScheme scheme = PartitionScheme::parse("0.5,0.3,0.2");
  VoltageRuntime recompute(model, scheme);
  DistributedDecoder decoder(model, scheme);
  std::vector<TokenId> context = random_tokens(11, model.spec().vocab_size, 33);
  Tensor logits = decoder.prime(context);
  for (int step = 0; step < 6; ++step) {
    const Tensor reference = recompute.infer(context);
    EXPECT_TRUE(allclose(logits, reference, 5e-3F)) << "step " << step;
    const auto next = static_cast<TokenId>(argmax_row(logits, 0));
    ASSERT_EQ(next, static_cast<TokenId>(argmax_row(reference, 0)))
        << "diverged at step " << step;
    context.push_back(next);
    logits = decoder.step(next);
  }
  // One more recompute so the last step's logits are checked too.
  EXPECT_TRUE(allclose(logits, recompute.infer(context), 5e-3F));
}

TEST(DistributedDecoder, BitwiseIdenticalAcrossTransports) {
  // Same FP operation chain on in-memory mailboxes and kernel sockets: the
  // logits must match bitwise at every step, not just to a tolerance.
  const TransformerModel model = make_model(mini_gpt2_spec());
  DistributedDecoder memory(model, PartitionScheme::even(2),
                            OrderPolicy::kAdaptive, TransportKind::kInMemory);
  DistributedDecoder socket(model, PartitionScheme::even(2),
                            OrderPolicy::kAdaptive, TransportKind::kUnixSocket);
  const auto prompt = random_tokens(10, model.spec().vocab_size, 41);
  Tensor a = memory.prime(prompt);
  Tensor b = socket.prime(prompt);
  EXPECT_EQ(a, b);
  for (int step = 0; step < 6; ++step) {
    const auto next = static_cast<TokenId>(argmax_row(a, 0));
    a = memory.step(next);
    b = socket.step(next);
    EXPECT_EQ(a, b) << "step " << step;
  }
}

TEST(DistributedDecoder, ExtendMatchesStepByStepAndReference) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto prompt = random_tokens(9, model.spec().vocab_size, 55);
  const auto extension = random_tokens(5, model.spec().vocab_size, 56);

  DistributedDecoder extended(model, PartitionScheme::even(2));
  DistributedDecoder stepped(model, PartitionScheme::even(2));
  IncrementalDecoder reference(model);

  (void)extended.prime(prompt);
  Tensor by_steps = stepped.prime(prompt);
  (void)reference.prime(prompt);

  const Tensor by_extend = extended.extend(extension);
  for (const TokenId t : extension) by_steps = stepped.step(t);
  const Tensor ref = reference.extend(extension);

  EXPECT_EQ(by_extend, by_steps);  // extend is literally a loop of steps
  EXPECT_TRUE(allclose(by_extend, ref, 5e-3F));
  EXPECT_EQ(argmax_row(by_extend, 0), argmax_row(ref, 0));
  EXPECT_EQ(extended.position(), prompt.size() + extension.size());
}

TEST(DistributedDecoder, StepMacsMatchClosedFormGammaStep) {
  // Γ_step, exactly, as integers. Every device runs W_Q, W_O and the FFN on
  // the new row: K·L·(2F² + 2F·F_ffn). The row's owner projects its K/V:
  // 2L·F². The devices together attend each of the c positions cached
  // after the append once: 2L·F·c. The terminal's LM head: F·V. No term
  // depends on the order Theorem 2 picked for the prefill.
  const TransformerModel model = make_model(mini_gpt2_spec());
  const ModelSpec& spec = model.spec();
  const std::uint64_t l = spec.num_layers;
  const std::uint64_t f = spec.layer.hidden;
  const std::uint64_t f_ffn = spec.layer.ffn_dim;
  const std::uint64_t vocab = spec.vocab_size;
  const auto gamma_step = [&](std::uint64_t k, std::uint64_t c) {
    return k * l * (2 * f * f + 2 * f * f_ffn) + 2 * l * f * f +
           2 * l * f * c + f * vocab;
  };
  const auto prompt = random_tokens(20, spec.vocab_size, 61);
  constexpr int kSteps = 10;
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    for (const OrderPolicy policy :
         {OrderPolicy::kAdaptive, OrderPolicy::kAlwaysNaive,
          OrderPolicy::kAlwaysReordered}) {
      // Workers may still run the last layer's tail after step() returns,
      // so the counter is read only once the mesh has drained.
      const auto mesh = std::make_shared<DeviceMesh>(
          make_transport(TransportKind::kInMemory, k + 1), k);
      DistributedDecoder decoder(model, PartitionScheme::even(k), policy,
                                 mesh);
      Tensor logits = decoder.prime(prompt);
      for (int step = 0; step < kSteps; ++step) {
        const auto next = static_cast<TokenId>(argmax_row(logits, 0));
        mesh->drain();
        const std::uint64_t before = flops::matmul_macs();
        logits = decoder.step(next);
        mesh->drain();
        EXPECT_EQ(flops::matmul_macs() - before,
                  gamma_step(k, decoder.position()))
            << "K=" << k << " policy " << static_cast<int>(policy)
            << " step " << step;
      }
    }
  }
  // At K=1 the distributed step costs what the single-device step costs.
  IncrementalDecoder reference(model);
  Tensor logits = reference.prime(prompt);
  const std::uint64_t before = flops::matmul_macs();
  (void)reference.step(static_cast<TokenId>(argmax_row(logits, 0)));
  EXPECT_EQ(flops::matmul_macs() - before, gamma_step(1, reference.position()));
}

TEST(DistributedDecoder, MisuseThrowsWithoutPoisoningTheMesh) {
  const TransformerModel bert = make_model(mini_bert_spec());
  EXPECT_THROW(DistributedDecoder(bert, PartitionScheme::even(2)),
               std::invalid_argument);

  const TransformerModel model = make_model(mini_gpt2_spec());
  DistributedDecoder decoder(model, PartitionScheme::even(2));
  EXPECT_THROW((void)decoder.step(0), std::logic_error);
  EXPECT_THROW((void)decoder.extend(random_tokens(2, 8, 1)), std::logic_error);
  EXPECT_THROW((void)decoder.prime({}), std::invalid_argument);
  // Input validation must not kill the workers: a real prime still works.
  const auto prompt = random_tokens(6, model.spec().vocab_size, 61);
  IncrementalDecoder reference(model);
  EXPECT_TRUE(
      allclose(decoder.prime(prompt), reference.prime(prompt), 5e-3F));
  EXPECT_FALSE(decoder.fabric().closed());

  // Bring-your-own transport must cover the workers plus the terminal.
  EXPECT_THROW(DistributedDecoder(model, PartitionScheme::even(2),
                                  OrderPolicy::kAdaptive,
                                  make_transport(TransportKind::kInMemory, 2)),
               std::invalid_argument);
}

TEST(DistributedDecoder, ContextWindowBound) {
  ModelSpec tiny = mini_gpt2_spec();
  tiny.max_positions = 8;
  const TransformerModel model(tiny, 1);
  DistributedDecoder decoder(model, PartitionScheme::even(2));
  (void)decoder.prime(random_tokens(7, tiny.vocab_size, 3));
  (void)decoder.step(1);  // position 8 == limit
  EXPECT_THROW((void)decoder.step(2), std::length_error);
  EXPECT_THROW((void)decoder.prime(random_tokens(9, tiny.vocab_size, 4)),
               std::length_error);
}

// --- Failure containment ---------------------------------------------------

TEST(DistributedDecoder, MidDecodeCrashIsContainedWithRootCause) {
  // Device 1 goes dark partway through decoding: the crash must surface on
  // the terminal as the chaos crash (not a generic secondary close), in
  // bounded time, and leave the decoder dead for later calls.
  const TransformerModel model = make_model(mini_gpt2_spec());
  auto chaos = std::make_unique<ChaosTransport>(
      make_transport(TransportKind::kInMemory, 4),
      ChaosOptions{.max_delay_seconds = 1e-4,
                   .seed = 13,
                   .crash = ChaosOptions::Crash{.device = 1,
                                                .after_sends = 40}});
  ChaosTransport* probe = chaos.get();
  DistributedDecoder decoder(model, PartitionScheme::even(3),
                             OrderPolicy::kAdaptive, std::move(chaos));
  const auto start = Clock::now();
  Tensor logits = decoder.prime(random_tokens(12, model.spec().vocab_size, 71));
  bool crashed = false;
  for (int step = 0; step < 64 && !crashed; ++step) {
    try {
      logits = decoder.step(static_cast<TokenId>(argmax_row(logits, 0)));
    } catch (const TransportClosedError& e) {
      crashed = true;
      EXPECT_NE(std::string(e.what()).find("crashed"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(crashed) << "crash fault never surfaced";
  EXPECT_LT(seconds_since(start), 60.0);
  EXPECT_GE(probe->chaos_stats().crashed_sends, 1U);
  // The decoder is dead: every later call fails fast instead of hanging.
  EXPECT_THROW((void)decoder.step(0), std::logic_error);
  EXPECT_THROW((void)decoder.prime(random_tokens(4, 8, 1)), std::logic_error);
}

TEST(DistributedDecoder, DropWithDeadlineTimesOutInsteadOfHanging) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  auto chaos = std::make_unique<ChaosTransport>(
      make_transport(TransportKind::kInMemory, 3),
      ChaosOptions{.max_delay_seconds = 0.0, .seed = 7,
                   .drop_probability = 1.0, .crash = {}});
  DistributedDecoder decoder(model, PartitionScheme::even(2),
                             OrderPolicy::kAdaptive, std::move(chaos));
  decoder.set_recv_timeout(0.5);
  const auto start = Clock::now();
  EXPECT_THROW((void)decoder.prime(random_tokens(8, model.spec().vocab_size, 2)),
               RecvTimeoutError);
  EXPECT_LT(seconds_since(start), 60.0);
}

// --- IncrementalDecoder::extend --------------------------------------------

TEST(IncrementalDecoderExtend, MatchesRePrimeBitwise) {
  // extend() is the prime() code path continued mid-sequence: the same FP
  // operations run in the same order, so the logits match a from-scratch
  // prime over the concatenated context bitwise.
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto a = random_tokens(8, model.spec().vocab_size, 81);
  const auto b = random_tokens(5, model.spec().vocab_size, 82);
  std::vector<TokenId> both(a.begin(), a.end());
  both.insert(both.end(), b.begin(), b.end());

  IncrementalDecoder grown(model);
  (void)grown.prime(a);
  const Tensor extended = grown.extend(b);

  IncrementalDecoder fresh(model);
  EXPECT_EQ(extended, fresh.prime(both));
  EXPECT_EQ(grown.position(), both.size());

  // And stepping after the extension continues the same sequence.
  const auto next = static_cast<TokenId>(argmax_row(extended, 0));
  EXPECT_EQ(grown.step(next), fresh.step(next));
}

TEST(IncrementalDecoderExtend, MisuseThrows) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  IncrementalDecoder decoder(model);
  EXPECT_THROW((void)decoder.extend(random_tokens(3, 8, 1)), std::logic_error);
  (void)decoder.prime(random_tokens(4, model.spec().vocab_size, 5));
  EXPECT_THROW((void)decoder.extend({}), std::invalid_argument);

  ModelSpec tiny = mini_gpt2_spec();
  tiny.max_positions = 8;
  const TransformerModel small(tiny, 1);
  IncrementalDecoder bounded(small);
  (void)bounded.prime(random_tokens(6, tiny.vocab_size, 6));
  EXPECT_THROW((void)bounded.extend(random_tokens(3, tiny.vocab_size, 7)),
               std::length_error);
}

}  // namespace
}  // namespace voltage
