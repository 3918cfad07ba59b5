// Integration tests: the threaded Voltage runtime (Algorithm 2) and the
// tensor-parallel runtime must reproduce single-device inference exactly
// (up to float reassociation), with wire traffic matching §V-C.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collective/cost.h"
#include "core/spin_wait.h"
#include "partition/partitioned_layer.h"
#include "runtime/distributed_decoder.h"
#include "runtime/tensor_parallel_runtime.h"
#include "runtime/voltage_runtime.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "transformer/decoder.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

class VoltageRuntimeK : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VoltageRuntimeK, BertMatchesSingleDevice) {
  const std::size_t k = GetParam();
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(30, model.spec().vocab_size, 11);
  const Tensor expected = model.infer(tokens);

  VoltageRuntime runtime(model, PartitionScheme::even(k));
  const Tensor logits = runtime.infer(tokens);
  EXPECT_TRUE(allclose(logits, expected, 2e-3F)) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, VoltageRuntimeK,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 6));

TEST(VoltageRuntime, VitMatchesSingleDevice) {
  const TransformerModel model = make_model(mini_vit_spec());
  const Image image = random_image(32, 3, 7);
  const Tensor expected = model.infer(image);
  VoltageRuntime runtime(model, PartitionScheme::even(3));
  EXPECT_TRUE(allclose(runtime.infer(image), expected, 2e-3F));
}

TEST(VoltageRuntime, CausalGpt2MatchesSingleDevice) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto tokens = random_tokens(24, model.spec().vocab_size, 13);
  const Tensor expected = model.infer(tokens);
  VoltageRuntime runtime(model, PartitionScheme::even(4));
  EXPECT_TRUE(allclose(runtime.infer(tokens), expected, 2e-3F));
}

TEST(VoltageRuntime, FixedOrderPoliciesAgree) {
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(21, model.spec().vocab_size, 17);
  const Tensor expected = model.infer(tokens);
  for (const auto policy :
       {OrderPolicy::kAlwaysNaive, OrderPolicy::kAlwaysReordered}) {
    VoltageRuntime runtime(model, PartitionScheme::even(3), policy);
    EXPECT_TRUE(allclose(runtime.infer(tokens), expected, 2e-3F));
  }
}

TEST(VoltageRuntime, OverlapIsBitwiseInvariant) {
  // The runtime overlaps each layer's all-gather with the next layer's
  // attention prologue. Resuming a partition from that prologue reorders
  // scheduling only, never FP summation: for every partition at any K and
  // under both fixed order policies, the layer output is bit-for-bit the
  // same as computing it without one.
  const TransformerModel model = make_model(mini_bert_spec());
  const Tensor x =
      model.preprocess(random_tokens(27, model.spec().vocab_size, 31));
  const TransformerLayer& layer = model.layers()[1];
  for (const auto policy :
       {OrderPolicy::kAlwaysNaive, OrderPolicy::kAlwaysReordered}) {
    for (const std::size_t k : {2U, 3U}) {
      for (const Range p : PartitionScheme::even(k).ranges(x.rows())) {
        const AttentionPrologue prologue =
            attention_prologue(x.slice_rows(p.begin, p.end), x.rows(), p,
                               layer.weights().attention, layer.config(),
                               policy);
        const Tensor a =
            partitioned_layer_forward(layer, x, p, policy, &prologue);
        const Tensor b = partitioned_layer_forward(layer, x, p, policy);
        ASSERT_EQ(a.rows(), b.rows());
        ASSERT_EQ(a.cols(), b.cols());
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a.flat()[i], b.flat()[i])
              << "k=" << k << " rows " << p.begin << " element " << i;
        }
      }
    }
  }
}

TEST(VoltageRuntime, OverlapFallsBackOnShiftingSchedules) {
  // When consecutive layers assign a device rows it does not currently own,
  // the prologue overlap must silently fall back to the plain path — the
  // zero-copy gather still runs — and results stay correct.
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(22, model.spec().vocab_size, 37);
  const Tensor expected = model.infer(tokens);
  std::vector<PartitionScheme> schemes;
  for (std::size_t l = 0; l < model.spec().num_layers; ++l) {
    // Alternate who owns the big slice so layer l+1's range is usually not
    // inside layer l's.
    schemes.push_back(l % 2 == 0 ? PartitionScheme({0.6, 0.2, 0.2})
                                 : PartitionScheme({0.2, 0.2, 0.6}));
  }
  VoltageRuntime runtime(model, LayerSchedule(std::move(schemes)));
  EXPECT_TRUE(allclose(runtime.infer(tokens), expected, 2e-3F));
}

TEST(VoltageRuntime, HeterogeneousSchemeWithIdleDevice) {
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(20, model.spec().vocab_size, 19);
  const Tensor expected = model.infer(tokens);
  VoltageRuntime runtime(model, PartitionScheme({0.5, 0.0, 0.2, 0.3}));
  EXPECT_TRUE(allclose(runtime.infer(tokens), expected, 2e-3F));
}

TEST(VoltageRuntime, RepeatedInference) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  VoltageRuntime runtime(model, PartitionScheme::even(2));
  const auto a = random_tokens(10, model.spec().vocab_size, 1);
  const auto b = random_tokens(14, model.spec().vocab_size, 2);
  EXPECT_TRUE(allclose(runtime.infer(a), model.infer(a), 2e-3F));
  EXPECT_TRUE(allclose(runtime.infer(b), model.infer(b), 2e-3F));
  EXPECT_TRUE(allclose(runtime.infer(a), model.infer(a), 2e-3F));
}

TEST(VoltageRuntime, WireTrafficMatchesPaperFormula) {
  // Worker wire volume per non-final layer: (K-1) * P * F floats.
  const TransformerModel model = make_model(mini_bert_spec());
  constexpr std::size_t kDevices = 4;
  constexpr std::size_t kSeq = 32;  // divisible by K: exact formula applies
  const auto tokens = random_tokens(kSeq, model.spec().vocab_size, 23);
  VoltageRuntime runtime(model, PartitionScheme::even(kDevices));
  (void)runtime.infer(tokens);

  const std::size_t f = model.spec().layer.hidden;
  const std::size_t layers = model.spec().num_layers;
  const std::uint64_t gather_elems =
      voltage_elements_per_device_layer(kSeq, f, kDevices);
  // L-1 all-gathers plus the final partition to the terminal; every
  // message carries the per-message wire frame (net/message.h) on top of
  // its serialized tensor.
  const std::uint64_t expected_bytes =
      (layers - 1) *
          (gather_elems * sizeof(float) +
           (kDevices - 1) * (kTensorWireHeaderBytes + kWireFrameBytes)) +
      tensor_wire_bytes(kSeq / kDevices * f) + kWireFrameBytes;
  for (DeviceId d = 0; d < kDevices; ++d) {
    EXPECT_EQ(runtime.fabric().stats(d).bytes_sent, expected_bytes)
        << "device " << d;
  }
  // Terminal broadcast: K framed copies of the N x F features.
  EXPECT_EQ(runtime.fabric().stats(runtime.terminal_id()).bytes_sent,
            kDevices * (tensor_wire_bytes(kSeq * f) + kWireFrameBytes));
}

// --- tensor-parallel runtime ---------------------------------------------------

class TpRuntimeK : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TpRuntimeK, MatchesSingleDevice) {
  const std::size_t k = GetParam();
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(26, model.spec().vocab_size, 29);
  const Tensor expected = model.infer(tokens);
  TensorParallelRuntime runtime(model, k);
  EXPECT_TRUE(allclose(runtime.infer(tokens), expected, 2e-3F)) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, TpRuntimeK,
                         ::testing::Values<std::size_t>(1, 2, 3, 4));

TEST(TpRuntime, CausalModelMatches) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto tokens = random_tokens(18, model.spec().vocab_size, 31);
  TensorParallelRuntime runtime(model, 2);
  EXPECT_TRUE(allclose(runtime.infer(tokens), model.infer(tokens), 2e-3F));
}

TEST(TpRuntime, ShardsCoverHeadsAndFfn) {
  const TransformerModel model = make_model(mini_bert_spec());
  TensorParallelRuntime runtime(model, 3);
  std::size_t heads = 0;
  std::size_t cols = 0;
  for (std::size_t d = 0; d < 3; ++d) {
    heads += runtime.head_shard(d).size();
    cols += runtime.ffn_shard(d).size();
  }
  EXPECT_EQ(heads, model.spec().layer.heads);
  EXPECT_EQ(cols, model.spec().layer.ffn_dim);
}

TEST(TpRuntime, StarAllReduceMatchesRing) {
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(22, model.spec().vocab_size, 43);
  TensorParallelRuntime star(model, 3, TransportKind::kInMemory,
                             /*star_allreduce=*/true);
  EXPECT_TRUE(allclose(star.infer(tokens), model.infer(tokens), 2e-3F));
}

TEST(TpRuntime, RejectsMoreDevicesThanHeads) {
  const TransformerModel model = make_model(mini_bert_spec());
  EXPECT_THROW(TensorParallelRuntime(model, 5), std::invalid_argument);
  EXPECT_THROW(TensorParallelRuntime(model, 0), std::invalid_argument);
}

TEST(TrafficComparison, VoltageMovesRoughlyFourTimesLessThanTp) {
  // The §V-C headline measured on real wire traffic, end to end.
  const TransformerModel model = make_model(mini_bert_spec());
  constexpr std::size_t kDevices = 4;
  const auto tokens = random_tokens(32, model.spec().vocab_size, 37);

  VoltageRuntime voltage(model, PartitionScheme::even(kDevices));
  (void)voltage.infer(tokens);
  TensorParallelRuntime tp(model, kDevices);
  (void)tp.infer(tokens);

  const auto vbytes = voltage.fabric().stats(0).bytes_sent;
  const auto tbytes = tp.fabric().stats(0).bytes_sent;
  // Steady-state the ratio is 4x; with only 4 layers Voltage additionally
  // saves its final all-gather, which pushes the end-to-end ratio above 4.
  const double ratio =
      static_cast<double>(tbytes) / static_cast<double>(vbytes);
  EXPECT_GT(ratio, 3.5);
  EXPECT_LT(ratio, 5.5);
}

// --- device-thread handoff: spin-then-park (core/spin_wait.h) ----------------

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Greedy decode of `steps` tokens after `prompt`, waiting `gaps[i % n]`
// before step i; returns the logits of the prime and of every step.
std::vector<Tensor> greedy_logits(DistributedDecoder& decoder,
                                  std::span<const TokenId> prompt,
                                  std::size_t steps,
                                  const std::vector<std::chrono::microseconds>&
                                      gaps) {
  std::vector<Tensor> out{decoder.prime(prompt)};
  for (std::size_t i = 0; i < steps; ++i) {
    std::this_thread::sleep_for(gaps[i % gaps.size()]);
    out.push_back(
        decoder.step(static_cast<TokenId>(argmax_row(out.back(), 0))));
  }
  return out;
}

TEST(MeshHandoff, StepsSpacedAcrossTheSpinBudgetMatchBackToBack) {
  // Steps 0, about the budget, and twice the budget apart find the device
  // threads spinning, at the edge, or parked; the output must not care.
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto prompt = random_tokens(13, model.spec().vocab_size, 5);
  constexpr std::size_t kSteps = 12;
  DistributedDecoder back_to_back(model, PartitionScheme::even(3));
  const std::vector<Tensor> expected = greedy_logits(
      back_to_back, prompt, kSteps, {std::chrono::microseconds(0)});
  DistributedDecoder spaced(model, PartitionScheme::even(3));
  const std::vector<Tensor> got =
      greedy_logits(spaced, prompt, kSteps,
                    {std::chrono::microseconds(0), kSpinBudget,
                     2 * kSpinBudget});
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(argmax_row(got[i], 0), argmax_row(expected[i], 0)) << i;
    EXPECT_TRUE(bitwise_equal(got[i], expected[i])) << "step " << i;
  }
}

TEST(MeshHandoff, DecoderAndMeshDieWhileDeviceThreadsSpin) {
  // Each decoder (and its private mesh) is destroyed right after a round,
  // while the device threads that ran it still spin for a next job: they
  // must touch nothing of the dead mesh (ASan), and the next mesh reuses
  // them.
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto prompt = random_tokens(9, model.spec().vocab_size, 6);
  Tensor first;
  for (int round = 0; round < 20; ++round) {
    DistributedDecoder decoder(model, PartitionScheme::even(3));
    const Tensor logits = decoder.step(
        static_cast<TokenId>(argmax_row(decoder.prime(prompt), 0)));
    if (round == 0) first = logits;
    EXPECT_TRUE(bitwise_equal(logits, first)) << "round " << round;
  }
}

TEST(MeshHandoff, OversubscribedMeshGivesTheSameOutputs) {
  // More devices plus the terminal than CPUs: nothing spins.
  const std::size_t k = std::max<std::size_t>(8, usable_cpus());
  ASSERT_FALSE(may_spin(k + 1));
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto prompt = random_tokens(k + 5, model.spec().vocab_size, 7);
  VoltageRuntime runtime(model, PartitionScheme::even(k));
  EXPECT_TRUE(allclose(runtime.infer(prompt), model.infer(prompt), 2e-3F));

  DistributedDecoder decoder(model, PartitionScheme::even(k));
  IncrementalDecoder reference(model);
  Tensor logits = decoder.prime(prompt);
  Tensor ref_logits = reference.prime(prompt);
  for (int step = 0; step < 6; ++step) {
    const auto next = static_cast<TokenId>(argmax_row(logits, 0));
    ASSERT_EQ(next, static_cast<TokenId>(argmax_row(ref_logits, 0)))
        << "diverged at step " << step;
    logits = decoder.step(next);
    ref_logits = reference.step(next);
    EXPECT_TRUE(allclose(logits, ref_logits, 5e-3F)) << "step " << step;
  }
}

}  // namespace
}  // namespace voltage
