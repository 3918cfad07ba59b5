// Tests of the INT8 quantization extension (§VII-A): quantization error
// bounds, the int8 GEMM kernels and their bitwise cross-ISA contract, the
// quantized wire codec, quantized Algorithm 1, the composition with
// position-wise partitioning, and the end-to-end int8 runtime/decoder
// planes.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <numeric>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "collective/collectives.h"
#include "core/thread_pool.h"
#include "net/fabric.h"
#include "net/quant_codec.h"
#include "partition/decode_attention.h"
#include "quant/quantized_layer.h"
#include "quant/quantized_stack.h"
#include "quant/quantized_tensor.h"
#include "runtime/distributed_decoder.h"
#include "runtime/voltage_runtime.h"
#include "tensor/gemm_s8.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"
#include "transformer/layer.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace voltage {

// Every compiled int8 kernel TU, addressed directly so the test can compare
// all runnable variants on one machine instead of only the dispatched one.
namespace detail::base {
void gemm_s8_blocked(const std::int8_t* a, const std::int8_t* b,
                     std::int32_t* c, std::size_t m, std::size_t i0,
                     std::size_t i1, std::size_t k, std::size_t n);
}
#if defined(__x86_64__) || defined(_M_X64)
namespace detail::avx2 {
void gemm_s8_blocked(const std::int8_t* a, const std::int8_t* b,
                     std::int32_t* c, std::size_t m, std::size_t i0,
                     std::size_t i1, std::size_t k, std::size_t n);
}
namespace detail::avx512 {
void gemm_s8_blocked(const std::int8_t* a, const std::int8_t* b,
                     std::int32_t* c, std::size_t m, std::size_t i0,
                     std::size_t i1, std::size_t k, std::size_t n);
}
#endif

namespace {

LayerConfig test_config(bool causal = false) {
  return LayerConfig{.hidden = 32,
                     .heads = 4,
                     .head_dim = 8,
                     .ffn_dim = 64,
                     .activation = Activation::kGelu,
                     .causal = causal};
}

float relative_error(const Tensor& approx, const Tensor& exact) {
  double num = 0.0;
  double den = 0.0;
  const auto fa = approx.flat();
  const auto fe = exact.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    num += static_cast<double>(fa[i] - fe[i]) * (fa[i] - fe[i]);
    den += static_cast<double>(fe[i]) * fe[i];
  }
  return den == 0.0 ? 0.0F : static_cast<float>(std::sqrt(num / den));
}

TEST(Quantize, ActivationRoundTripWithinOneStep) {
  Rng rng(1);
  const Tensor x = rng.normal_tensor(10, 20, 2.0F);
  const QuantizedActivations q = quantize_activations(x);
  const Tensor back = dequantize(q);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    // Error bounded by half a quantization step per element.
    float absmax = 0.0F;
    for (const float v : x.row(r)) absmax = std::max(absmax, std::fabs(v));
    const float step = absmax / 127.0F;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      EXPECT_LE(std::fabs(back(r, c) - x(r, c)), 0.5F * step + 1e-7F);
    }
  }
}

TEST(Quantize, WeightRoundTripPerColumn) {
  Rng rng(2);
  Tensor w = rng.normal_tensor(16, 8, 0.3F);
  // Give one column a much larger range: per-column scales must absorb it.
  for (std::size_t r = 0; r < w.rows(); ++r) w(r, 3) *= 50.0F;
  const Tensor back = dequantize(quantize_weights(w));
  EXPECT_LT(relative_error(back, w), 0.01F);
}

TEST(Quantize, ZeroTensorIsExact) {
  const Tensor zero(4, 4);
  EXPECT_EQ(dequantize(quantize_activations(zero)), zero);
  EXPECT_EQ(dequantize(quantize_weights(zero)), zero);
}

TEST(QuantizedMatmul, CloseToFloatGemm) {
  Rng rng(3);
  const Tensor x = rng.normal_tensor(12, 32, 1.0F);
  const Tensor w = rng.normal_tensor(32, 16, 0.2F);
  const Tensor exact = matmul(x, w);
  const Tensor approx = quantized_matmul(x, quantize_weights(w));
  EXPECT_LT(relative_error(approx, exact), 0.02F);
}

TEST(QuantizedMatmul, ShapeMismatchThrows) {
  const Tensor x(2, 3);
  EXPECT_THROW((void)quantized_matmul(x, quantize_weights(Tensor(4, 2))),
               std::invalid_argument);
}

TEST(QuantizedLayer, MemoryIsRoughlyQuarter) {
  Rng rng(4);
  const LayerConfig cfg = test_config();
  const LayerWeights w = init_layer_weights(cfg, rng);
  const QuantizedLayerWeights q = quantize_layer(w);
  const double ratio = static_cast<double>(float_layer_byte_size(w)) /
                       static_cast<double>(q.byte_size());
  // The duplicated W_K^T copy and the scales eat into the ideal 4x.
  EXPECT_GT(ratio, 2.8);
  EXPECT_LT(ratio, 4.0);
}

TEST(QuantizedLayer, FullForwardTracksFloatLayer) {
  Rng rng(5);
  const LayerConfig cfg = test_config();
  const LayerWeights w = init_layer_weights(cfg, rng);
  const TransformerLayer layer(cfg, w);
  const QuantizedLayerWeights q = quantize_layer(w);
  const Tensor x = rng.normal_tensor(14, cfg.hidden, 1.0F);
  const Tensor exact = layer.forward(x);
  const Tensor approx = quantized_layer_forward(cfg, q, x);
  // LayerNorm keeps activations O(1); int8 noise stays small end to end.
  EXPECT_LT(relative_error(approx, exact), 0.15F);
}

class QuantizedPartition : public ::testing::TestWithParam<OrderPolicy> {};

TEST_P(QuantizedPartition, PartitionsAssembleToQuantizedFull) {
  // The distribution invariant must hold *within* the quantized model:
  // partition outputs equal the quantized full forward's rows, both orders.
  Rng rng(6);
  const LayerConfig cfg = test_config();
  const QuantizedLayerWeights q =
      quantize_layer(init_layer_weights(cfg, rng));
  const std::size_t n = 18;
  const Tensor x = rng.normal_tensor(n, cfg.hidden, 1.0F);
  const Tensor full =
      quantized_partitioned_layer_forward(cfg, q, x, Range{0, n}, GetParam());
  Tensor assembled(n, cfg.hidden);
  for (const Range p : {Range{0, 6}, Range{6, 13}, Range{13, 18}}) {
    assembled.set_rows(p.begin, quantized_partitioned_layer_forward(
                                    cfg, q, x, p, GetParam()));
  }
  // Same policy and same P would pick the same kernels; across partition
  // sizes the order may flip (adaptive), so allow small numeric drift.
  EXPECT_LT(relative_error(assembled, full), 0.12F);
}

INSTANTIATE_TEST_SUITE_P(Policies, QuantizedPartition,
                         ::testing::Values(OrderPolicy::kAlwaysNaive,
                                           OrderPolicy::kAlwaysReordered,
                                           OrderPolicy::kAdaptive));

TEST(QuantizedPartition, FixedOrderPartitionIsExactlyConsistent) {
  // With a FIXED order the per-position computation is identical whether
  // computed in one block or per partition (same kernels, same operands),
  // so rows must match to float tolerance, not just statistically.
  Rng rng(7);
  const LayerConfig cfg = test_config();
  const QuantizedLayerWeights q =
      quantize_layer(init_layer_weights(cfg, rng));
  const std::size_t n = 12;
  const Tensor x = rng.normal_tensor(n, cfg.hidden, 1.0F);
  const Tensor full = quantized_partitioned_layer_forward(
      cfg, q, x, Range{0, n}, OrderPolicy::kAlwaysNaive);
  const Tensor part = quantized_partitioned_layer_forward(
      cfg, q, x, Range{4, 9}, OrderPolicy::kAlwaysNaive);
  EXPECT_TRUE(allclose(part, full.slice_rows(4, 9), 2e-3F));
}

TEST(QuantizedPartition, CausalSupported) {
  Rng rng(8);
  const LayerConfig cfg = test_config(/*causal=*/true);
  const QuantizedLayerWeights q =
      quantize_layer(init_layer_weights(cfg, rng));
  const std::size_t n = 10;
  const Tensor x = rng.normal_tensor(n, cfg.hidden, 1.0F);
  const Tensor full = quantized_layer_forward(cfg, q, x);
  const Tensor part = quantized_partitioned_layer_forward(
      cfg, q, x, Range{5, 10}, OrderPolicy::kAlwaysNaive);
  EXPECT_TRUE(allclose(part, full.slice_rows(5, 10), 2e-3F));
}

TEST(QuantizedPartition, Validation) {
  Rng rng(9);
  const LayerConfig cfg = test_config();
  const QuantizedLayerWeights q =
      quantize_layer(init_layer_weights(cfg, rng));
  const Tensor x = rng.normal_tensor(8, cfg.hidden, 1.0F);
  EXPECT_THROW((void)quantized_partitioned_layer_forward(cfg, q, x,
                                                         Range{6, 10}),
               std::out_of_range);
  EXPECT_EQ(
      quantized_partitioned_layer_forward(cfg, q, x, Range{3, 3}).rows(),
      0U);
}

// --- whole-model stack + distributed execution --------------------------------

TEST(QuantizedStack, TracksFloatModel) {
  const TransformerModel model = make_model(mini_bert_spec());
  const QuantizedStack stack(model);
  EXPECT_EQ(stack.num_layers(), model.spec().num_layers);
  EXPECT_GT(static_cast<double>(stack.float_byte_size()) /
                static_cast<double>(stack.byte_size()),
            2.8);
  const auto tokens = random_tokens(20, model.spec().vocab_size, 50);
  const Tensor x = model.preprocess(tokens);
  const Tensor q = model.postprocess(stack.forward_layers(x));
  const Tensor f = model.postprocess(model.forward_layers(x));
  // Same prediction, bounded logit drift.
  EXPECT_EQ(argmax_row(q, 0), argmax_row(f, 0));
  EXPECT_LT(max_abs_diff(q, f), 0.25F);
}

TEST(QuantizedStack, DistributedExecutorMatchesQuantizedSingleDevice) {
  // Fixed order makes distributed int8 and single-device int8 follow the
  // exact same kernel path per position: rows must agree tightly.
  const TransformerModel model = make_model(mini_bert_spec());
  const QuantizedStack stack(model);
  const auto tokens = random_tokens(24, model.spec().vocab_size, 51);

  VoltageRuntime runtime(model, PartitionScheme::even(4),
                         OrderPolicy::kAlwaysNaive);
  runtime.set_precision(Precision::kInt8);
  const Tensor distributed = runtime.infer(tokens);

  Tensor x = model.preprocess(tokens);
  for (std::size_t l = 0; l < stack.num_layers(); ++l) {
    x = stack.partition_forward(l, x, Range{0, x.rows()},
                                OrderPolicy::kAlwaysNaive);
  }
  const Tensor single = model.postprocess(x);
  EXPECT_TRUE(allclose(distributed, single, 2e-3F));
}

TEST(QuantizedStack, LayerIndexValidated) {
  const TransformerModel model = make_model(mini_bert_spec());
  const QuantizedStack stack(model);
  EXPECT_THROW(
      (void)stack.partition_forward(99, Tensor(4, 128), Range{0, 2}),
      std::out_of_range);
  EXPECT_THROW((void)stack.decode_step_tail(99, Tensor(1, 1), Tensor(1, 1)),
               std::out_of_range);
}

// --- int8 GEMM kernels (tensor/gemm_s8.h) ---------------------------------

using GemmS8Fn = void (*)(const std::int8_t*, const std::int8_t*,
                          std::int32_t*, std::size_t, std::size_t,
                          std::size_t, std::size_t, std::size_t);

// Every int8 variant this machine can execute; "base" always runs.
std::vector<std::pair<const char*, GemmS8Fn>> runnable_s8_variants() {
  std::vector<std::pair<const char*, GemmS8Fn>> variants{
      {"base", &detail::base::gemm_s8_blocked}};
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) {
    variants.emplace_back("avx2", &detail::avx2::gemm_s8_blocked);
  }
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw")) {
    variants.emplace_back("avx512", &detail::avx512::gemm_s8_blocked);
  }
#endif
  return variants;
}

std::vector<std::int8_t> random_s8(Rng& rng, std::size_t count) {
  std::vector<std::int8_t> v(count);
  for (auto& x : v) {
    // Full admissible range [-127, 127] — the kernels' no-saturation proof
    // assumes -128 never occurs (quantize_value clamps to -127).
    x = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
  }
  return v;
}

TEST(GemmS8, AllRunnableVariantsMatchReferenceBitwise) {
  // The exactness contract: int32 accumulation is associative, so every ISA
  // variant must equal the naive reference exactly — including odd k (the
  // int16 k-pair packing pads the trailing element) and shapes off every
  // tile boundary.
  Rng rng(91);
  const struct {
    std::size_t m, k, n;
  } shapes[] = {{1, 1, 1},   {2, 3, 4},    {7, 9, 5},      {8, 8, 32},
                {6, 16, 16}, {13, 17, 31}, {33, 257, 29},  {64, 64, 64},
                {65, 301, 33}, {100, 48, 129}, {17, 512, 40}};
  for (const auto& s : shapes) {
    const auto a = random_s8(rng, s.m * s.k);
    const auto b = random_s8(rng, s.k * s.n);
    // Nonzero seed: the kernels accumulate (C += A·B).
    std::vector<std::int32_t> expected(s.m * s.n, 3);
    detail::gemm_s8_reference(a.data(), b.data(), expected.data(), s.m, s.k,
                              s.n);
    for (const auto& [arch, fn] : runnable_s8_variants()) {
      std::vector<std::int32_t> c(s.m * s.n, 3);
      fn(a.data(), b.data(), c.data(), s.m, 0, s.m, s.k, s.n);
      EXPECT_EQ(c, expected) << arch << " m=" << s.m << " k=" << s.k
                             << " n=" << s.n;
    }
  }
}

TEST(GemmS8, RowRangeSplitsReproduceTheFullResult) {
  Rng rng(92);
  const std::size_t m = 67, k = 41, n = 52;
  const auto a = random_s8(rng, m * k);
  const auto b = random_s8(rng, k * n);
  std::vector<std::int32_t> full(m * n, 0);
  detail::gemm_s8(a.data(), b.data(), full.data(), m, k, n);

  // Uneven split points, including a single-row chunk, on every variant.
  for (const auto& [arch, fn] : runnable_s8_variants()) {
    std::vector<std::int32_t> split(m * n, 0);
    const std::size_t cuts[] = {0, 5, 6, 40, m};
    for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
      fn(a.data(), b.data(), split.data(), m, cuts[c], cuts[c + 1], k, n);
    }
    EXPECT_EQ(split, full) << arch;
  }
}

TEST(GemmS8, DispatchReportsAKnownArch) {
  const std::string_view arch = detail::gemm_s8_kernel_arch();
  EXPECT_TRUE(arch == "avx512" || arch == "avx2" || arch == "base") << arch;
}

TEST(GemmS8, QuantizedMatmulBitwiseIdenticalAcrossIntraOpBudgets) {
  Rng rng(93);
  const Tensor x = rng.normal_tensor(130, 64, 1.0F);
  const QuantizedWeights w = quantize_weights(rng.normal_tensor(64, 50, 0.2F));
  std::vector<Tensor> results;
  for (const std::size_t threads : {1U, 2U, 4U}) {
    const IntraOpScope scope(threads);
    results.push_back(quantized_matmul(x, w));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_TRUE(results[0].same_shape(results[i]));
    EXPECT_EQ(std::memcmp(results[0].data(), results[i].data(),
                          results[0].size() * sizeof(float)),
              0)
        << "threads variant " << i;
  }
}

// --- int8 edge cases -------------------------------------------------------

TEST(Quantize, SaturationMapsAbsmaxToExactly127) {
  Tensor x(1, 4);
  x(0, 0) = 10.0F;
  x(0, 1) = -10.0F;  // absmax: must land on -127, never -128
  x(0, 2) = 9.999F;
  x(0, 3) = 0.0F;
  const QuantizedActivations q = quantize_activations(x);
  EXPECT_EQ(q.data[0], 127);
  EXPECT_EQ(q.data[1], -127);
  EXPECT_LE(std::abs(static_cast<int>(q.data[2])), 127);
  EXPECT_EQ(q.data[3], 0);
}

TEST(Quantize, ZeroRowUsesUnitScaleAndRoundTripsExactly) {
  Tensor x(3, 5);
  x(0, 1) = 2.5F;  // rows 1 and 2 stay all-zero
  const QuantizedActivations q = quantize_activations(x);
  EXPECT_EQ(q.row_scales[1], 1.0F);
  EXPECT_EQ(q.row_scales[2], 1.0F);
  const Tensor back = dequantize(q);
  for (std::size_t c = 0; c < 5; ++c) {
    EXPECT_EQ(back(1, c), 0.0F);
    EXPECT_EQ(back(2, c), 0.0F);
  }
}

// --- quantized wire codec (net/quant_codec.h) ------------------------------

TEST(QuantWire, PayloadSizeMatchesFormulaAndDecodesWithinHalfStep) {
  Rng rng(94);
  const Tensor t = rng.normal_tensor(9, 33, 2.0F);
  const Payload payload = quantized_payload(t);
  EXPECT_EQ(payload.size(), quant_wire_bytes(9, 33));
  EXPECT_LT(payload.size(), tensor_wire_bytes(t.size()) / 3);

  const Tensor back = tensor_from_payload(payload);
  ASSERT_TRUE(back.same_shape(t));
  for (std::size_t r = 0; r < t.rows(); ++r) {
    float absmax = 0.0F;
    for (const float v : t.row(r)) absmax = std::max(absmax, std::fabs(v));
    const float step = absmax / 127.0F;
    for (std::size_t c = 0; c < t.cols(); ++c) {
      EXPECT_LE(std::fabs(back(r, c) - t(r, c)), 0.5F * step + 1e-7F)
          << r << "," << c;
    }
  }
}

TEST(QuantWire, ZeroRowsAndSaturatedRowsSurviveTheWire) {
  Tensor t(3, 4);
  // Row 0 all zero (scale 1 — exact), row 1 hits both rails, row 2 tiny.
  t(1, 0) = 5.0F;
  t(1, 1) = -5.0F;
  t(2, 3) = 1e-30F;
  const Tensor back = tensor_from_payload(quantized_payload(t));
  for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(back(0, c), 0.0F);
  EXPECT_FLOAT_EQ(back(1, 0), 5.0F);   // ±absmax is exactly representable
  EXPECT_FLOAT_EQ(back(1, 1), -5.0F);
  EXPECT_FLOAT_EQ(back(2, 3), 1e-30F); // row absmax itself, also exact
}

TEST(QuantWire, EmptyTensorEncodes) {
  const Tensor empty(0, 7);
  const Payload payload = quantized_payload(empty);
  EXPECT_EQ(payload.size(), quant_wire_bytes(0, 7));
  const Tensor back = tensor_from_payload(payload);
  EXPECT_EQ(back.rows(), 0U);
  EXPECT_EQ(back.cols(), 7U);
}

std::vector<DeviceId> group_of(std::size_t k) {
  std::vector<DeviceId> g(k);
  std::iota(g.begin(), g.end(), DeviceId{0});
  return g;
}

TEST(QuantWire, AllGatherBytesReducedAtLeast3_5x) {
  // The headline wire claim, measured from fabric counters: the same
  // per-layer all-gather moves >= 3.5x fewer bytes under Precision::kInt8
  // (4x on the elements, eaten into by the scale sidecar and the fixed
  // per-message header + frame).
  constexpr std::size_t kRanks = 4;
  constexpr std::size_t kN = 32;
  constexpr std::size_t kF = 128;
  const auto group = group_of(kRanks);
  std::vector<Range> ranges(kRanks);
  for (std::size_t i = 0; i < kRanks; ++i) {
    ranges[i] = Range{kN * i / kRanks, kN * (i + 1) / kRanks};
  }
  Rng rng(95);
  const Tensor full = rng.normal_tensor(kN, kF, 1.0F);

  std::uint64_t bytes[2] = {0, 0};
  std::vector<Tensor> gathered(kRanks, Tensor(0, 0));
  for (const Precision wire : {Precision::kFp32, Precision::kInt8}) {
    Fabric fabric(kRanks);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kRanks; ++i) {
      threads.emplace_back([&, i] {
        const auto local = std::make_shared<const Tensor>(
            full.slice_rows(ranges[i].begin, ranges[i].end));
        Tensor dst(kN, kF);
        all_gather_into(fabric, group, i, local, ranges, dst, 1, {}, wire);
        if (wire == Precision::kInt8) gathered[i] = std::move(dst);
      });
    }
    for (auto& t : threads) t.join();
    bytes[wire == Precision::kInt8 ? 1 : 0] =
        fabric.total_stats().bytes_sent;
  }
  ASSERT_GT(bytes[1], 0U);
  EXPECT_GE(static_cast<double>(bytes[0]) / static_cast<double>(bytes[1]),
            3.5);
  // And the quantized gather still delivers the sequence within the
  // per-row half-step bound (own rows exact, peer rows dequantized).
  for (std::size_t i = 0; i < kRanks; ++i) {
    EXPECT_LT(relative_error(gathered[i], full), 0.02F) << "rank " << i;
  }
}

TEST(QuantWire, BroadcastQuantizedDeliversWithinBound) {
  constexpr std::size_t kRanks = 3;
  Fabric fabric(kRanks);
  const auto group = group_of(kRanks);
  Rng rng(96);
  const Tensor payload = rng.normal_tensor(4, 64, 1.0F);
  std::vector<Tensor> received(kRanks);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kRanks; ++i) {
    threads.emplace_back([&, i] {
      Tensor data = i == 0 ? payload : Tensor();
      broadcast(fabric, group, i, 0, data, 20, {}, Precision::kInt8);
      received[i] = std::move(data);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(received[0], payload);  // root copy untouched
  for (std::size_t i = 1; i < kRanks; ++i) {
    EXPECT_LT(relative_error(received[i], payload), 0.02F) << "rank " << i;
    EXPECT_EQ(received[1], received[i]);  // same payload, same dequantize
  }
}

// --- int8 decode-step tail -------------------------------------------------

TEST(QuantizedStack, DecodeStepTailTracksFloatTailAndIsDeterministic) {
  const TransformerModel model = make_model(mini_gpt2_spec());
  const QuantizedStack stack(model);
  const LayerConfig& cfg = model.layers()[0].config();
  const AttentionWeights& w = model.layers()[0].weights().attention;
  Rng rng(97);
  const Tensor rows = rng.uniform_tensor(6, cfg.hidden, -1.0F, 1.0F);
  const Tensor x = rng.uniform_tensor(1, cfg.hidden, -1.0F, 1.0F);
  KvBlockPool pool(kv_block_floats(cfg));
  DecodeLayerCache cache;
  cache.init(cfg, pool);
  cache.append(rows, w);
  const Tensor merged = decode_partial_attention(x, cache, w, cfg);

  // Float reference: finalize + residual + LN + FFN + residual + LN.
  const LayerWeights& lw = model.layers()[0].weights();
  Tensor attn = softmax_merge_finalize(merged, w, cfg);
  add_inplace(attn, x);
  const Tensor y = layernorm_rows(attn, lw.ln_attention.gamma,
                                  lw.ln_attention.beta);
  Tensor hidden = matmul(y, lw.ffn.w1);
  add_bias_inplace(hidden, lw.ffn.b1);
  hidden = cfg.activation == Activation::kGelu ? gelu(hidden) : relu(hidden);
  Tensor ff = matmul(hidden, lw.ffn.w2);
  add_bias_inplace(ff, lw.ffn.b2);
  add_inplace(ff, y);
  const Tensor expected = layernorm_rows(ff, lw.ln_ffn.gamma, lw.ln_ffn.beta);

  const Tensor tail = stack.decode_step_tail(0, merged, x);
  EXPECT_LT(relative_error(tail, expected), 0.15F);
  // Determinism backs the decoder's redundant-tail invariant: every device
  // running the same tail must produce bitwise-identical rows.
  const Tensor again = stack.decode_step_tail(0, merged, x);
  ASSERT_TRUE(tail.same_shape(again));
  EXPECT_EQ(std::memcmp(tail.data(), again.data(),
                        tail.size() * sizeof(float)),
            0);
}

// --- end-to-end int8 planes ------------------------------------------------

TEST(QuantizedRuntime, Int8PrecisionTracksFp32AndCutsGatherBytes) {
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(24, model.spec().vocab_size, 61);
  const Tensor expected = model.infer(tokens);

  VoltageRuntime fp32(model, PartitionScheme::even(4));
  (void)fp32.infer(tokens);
  const std::uint64_t fp32_bytes = fp32.fabric().total_stats().bytes_sent;

  VoltageRuntime int8(model, PartitionScheme::even(4));
  int8.set_precision(Precision::kInt8);
  EXPECT_EQ(int8.precision(), Precision::kInt8);
  const Tensor logits = int8.infer(tokens);
  const std::uint64_t int8_bytes = int8.fabric().total_stats().bytes_sent;

  // Same prediction, bounded drift — and the run moved far fewer bytes
  // (gathers shrink ~4x; the fp32 feature broadcast and final sends dilute
  // the total ratio below the pure-gather 3.5x).
  EXPECT_EQ(argmax_row(logits, 0), argmax_row(expected, 0));
  EXPECT_LT(relative_error(logits, expected), 0.2F);
  EXPECT_LT(int8_bytes, fp32_bytes);

  // Restoring fp32 restores the exact float path.
  int8.set_precision(Precision::kFp32);
  EXPECT_TRUE(allclose(int8.infer(tokens), fp32.infer(tokens), 1e-6F));
}

TEST(QuantizedDecoder, TopOneTokensMatchFp32DecodeAndPrefillBytesShrink) {
  // Acceptance: the int8 decode plane picks the same greedy tokens as the
  // fp32 decoder, and its prefill gathers move fewer bytes.
  const TransformerModel model = make_model(mini_gpt2_spec());
  const auto prompt = random_tokens(13, model.spec().vocab_size, 63);

  DistributedDecoder fp32(model, PartitionScheme::even(3));
  DistributedDecoder int8(model, PartitionScheme::even(3));
  int8.set_precision(Precision::kInt8);
  EXPECT_EQ(int8.precision(), Precision::kInt8);

  Tensor ref_logits = fp32.prime(prompt);
  const std::uint64_t fp32_prime_bytes =
      fp32.fabric().total_stats().bytes_sent;
  Tensor logits = int8.prime(prompt);
  const std::uint64_t int8_prime_bytes =
      int8.fabric().total_stats().bytes_sent;
  EXPECT_LT(int8_prime_bytes, fp32_prime_bytes);
  EXPECT_LT(relative_error(logits, ref_logits), 0.25F);

  for (int step = 0; step < 8; ++step) {
    const auto ref_next = static_cast<TokenId>(argmax_row(ref_logits, 0));
    const auto next = static_cast<TokenId>(argmax_row(logits, 0));
    ASSERT_EQ(next, ref_next) << "int8 decode diverged at step " << step;
    // Feed the agreed token to both so the contexts stay aligned.
    ref_logits = fp32.step(ref_next);
    logits = int8.step(ref_next);
    EXPECT_LT(relative_error(logits, ref_logits), 0.25F) << "step " << step;
  }
  EXPECT_EQ(int8.position(), fp32.position());
}

TEST(QuantizedDecoder, Int8StepWireBytesStayContextIndependent) {
  // The O(1)-per-step wire contract must survive the quantized plane: the
  // int8 step broadcast is one quantized row regardless of context length.
  const TransformerModel model = make_model(mini_gpt2_spec());
  DistributedDecoder decoder(model, PartitionScheme::even(3));
  decoder.set_precision(Precision::kInt8);
  Tensor logits =
      decoder.prime(random_tokens(16, model.spec().vocab_size, 64));
  std::uint64_t first_step_bytes = 0;
  for (int step = 0; step < 12; ++step) {
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

TEST(QuantizedDecoder, MixedPrecisionAcrossRequestsIsSafe) {
  // Each command carries its own precision flag; the caches stay fp32 under
  // both planes, so prime-fp32 / step-int8 (and back) must work.
  const TransformerModel model = make_model(mini_gpt2_spec());
  DistributedDecoder decoder(model, PartitionScheme::even(2));
  Tensor logits = decoder.prime(random_tokens(9, model.spec().vocab_size, 65));
  decoder.set_precision(Precision::kInt8);
  logits = decoder.step(static_cast<TokenId>(argmax_row(logits, 0)));
  decoder.set_precision(Precision::kFp32);
  logits = decoder.step(static_cast<TokenId>(argmax_row(logits, 0)));
  EXPECT_EQ(decoder.position(), 11U);
  EXPECT_EQ(logits.cols(), model.spec().vocab_size);
}

}  // namespace
}  // namespace voltage
