// google-benchmark microbenchmarks of the tensor substrate and the two
// attention evaluation paths — the kernels whose cost the Γ model predicts.
#include <benchmark/benchmark.h>

#include "core/thread_pool.h"
#include "net/socket_fabric.h"
#include "partition/decode_attention.h"
#include "partition/partitioned_attention.h"
#include "quant/quantized_tensor.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"
#include "transformer/weights.h"
#include "transformer/zoo.h"

namespace {

using namespace voltage;

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = rng.normal_tensor(n, n, 1.0F);
  const Tensor b = rng.normal_tensor(n, n, 1.0F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

// The pre-rewrite gemm_nn (row-blocked i-k-j, no packing, no register tile),
// kept verbatim as the perf-trajectory baseline: BENCH_kernels.json records
// BM_Matmul/256 vs BM_MatmulSeedKernel/256 on the same machine.
void seed_gemm_nn(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) {
  constexpr std::size_t kRowBlock = 4;
  std::size_t i = 0;
  for (; i + kRowBlock <= m; i += kRowBlock) {
    float* c0 = c + (i + 0) * n;
    float* c1 = c + (i + 1) * n;
    float* c2 = c + (i + 2) * n;
    float* c3 = c + (i + 3) * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float a0 = a[(i + 0) * k + p];
      const float a1 = a[(i + 1) * k + p];
      const float a2 = a[(i + 2) * k + p];
      const float a3 = a[(i + 3) * k + p];
      const float* bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float bv = bp[j];
        c0[j] += a0 * bv;
        c1[j] += a1 * bv;
        c2[j] += a2 * bv;
        c3[j] += a3 * bv;
      }
    }
  }
  for (; i < m; ++i) {
    float* ci = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = a[i * k + p];
      const float* bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        ci[j] += aip * bp[j];
      }
    }
  }
}

void BM_MatmulSeedKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = rng.normal_tensor(n, n, 1.0F);
  const Tensor b = rng.normal_tensor(n, n, 1.0F);
  for (auto _ : state) {
    Tensor c(n, n);
    seed_gemm_nn(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_MatmulSeedKernel)->Arg(256);

void BM_MatmulTransposed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Tensor a = rng.normal_tensor(n, n, 1.0F);
  const Tensor b = rng.normal_tensor(n, n, 1.0F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b, Trans::kNo, Trans::kYes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_MatmulTransposed)->Arg(128);

// Dedicated NT / TN kernels (attention's scores and reordered paths) at the
// BERT-Large score shape: no transposed copy is ever materialized.
void BM_MatmulNT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  const Tensor a = rng.normal_tensor(n, n, 1.0F);
  const Tensor b = rng.normal_tensor(n, n, 1.0F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b, Trans::kNo, Trans::kYes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_MatmulNT)->Arg(256);

void BM_MatmulTN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(22);
  const Tensor a = rng.normal_tensor(n, n, 1.0F);
  const Tensor b = rng.normal_tensor(n, n, 1.0F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b, Trans::kYes, Trans::kNo));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_MatmulTN)->Arg(256);

// Intra-op scaling of one GEMM across thread budgets (results are bitwise
// identical at every budget; see tests/gemm_test.cpp).
void BM_MatmulThreaded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  Rng rng(23);
  const Tensor a = rng.normal_tensor(n, n, 1.0F);
  const Tensor b = rng.normal_tensor(n, n, 1.0F);
  const IntraOpScope scope(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_MatmulThreaded)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->ArgNames({"n", "threads"});

// Items are elements (softmax_rows makes one exp per element).
void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(3);
  const Tensor x = rng.normal_tensor(200, 200, 1.0F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(softmax_rows(x, 0.125F));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_SoftmaxRows);

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(4);
  const Tensor x = rng.normal_tensor(200, 1024, 1.0F);
  const Tensor gamma = Tensor::filled(1, 1024, 1.0F);
  const Tensor beta(1, 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layernorm_rows(x, gamma, beta));
  }
}
BENCHMARK(BM_LayerNorm);

// Items are elements. Shapes: a distilbert FFN hidden at an edge
// partition of P=54 rows, and a three-row mini-gpt2 serving step.
void BM_Gelu(benchmark::State& state) {
  Rng rng(5);
  const Tensor x = rng.normal_tensor(static_cast<std::size_t>(state.range(0)),
                                     static_cast<std::size_t>(state.range(1)),
                                     1.0F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gelu(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_Gelu)->Args({54, 3072})->Args({3, 512})->ArgNames({"rows", "cols"});

void BM_TensorSerialize(benchmark::State& state) {
  Rng rng(6);
  const Tensor x = rng.normal_tensor(200, 1024, 1.0F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(to_bytes(x));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.byte_size()));
}
BENCHMARK(BM_TensorSerialize);

// The two self-attention evaluation paths around a typical edge partition
// (N=200, P=25 -> reordered should win for BERT-like settings).
void BM_AttentionHead(benchmark::State& state) {
  const bool reordered = state.range(0) != 0;
  const LayerConfig cfg{.hidden = 1024,
                        .heads = 16,
                        .head_dim = 64,
                        .ffn_dim = 4096,
                        .activation = Activation::kGelu};
  Rng rng(7);
  const LayerWeights w = init_layer_weights(cfg, rng);
  const Tensor x = rng.normal_tensor(200, cfg.hidden, 1.0F);
  const Range p{0, 25};
  for (auto _ : state) {
    benchmark::DoNotOptimize(attention_head_partition(
        x, p, w.attention.heads[0], cfg.head_dim, false,
        reordered ? AttentionOrder::kReordered : AttentionOrder::kNaive));
  }
}
BENCHMARK(BM_AttentionHead)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"reordered"});

// The decode kernel: one query row against P resident K/V positions of a
// mini-gpt2 layer (F=128, H=4, F_H=32). Items are the call's MACs, the
// query projection included: H·(F·F_H + 2·P·F_H).
void BM_DecodeAttention(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const LayerConfig cfg = mini_gpt2_spec().layer;
  Rng rng(10);
  const LayerWeights w = init_layer_weights(cfg, rng);
  KvBlockPool pool(kv_block_floats(cfg));
  DecodeLayerCache cache;
  cache.init(cfg, pool);
  cache.append(rng.normal_tensor(p, cfg.hidden, 1.0F), w.attention);
  const Tensor x = rng.normal_tensor(1, cfg.hidden, 1.0F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        decode_partial_attention(x, cache, w.attention, cfg));
  }
  const std::size_t fh = cfg.head_dim;
  const std::size_t macs = cfg.heads * (cfg.hidden * fh + 2 * p * fh);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(macs));
}
BENCHMARK(BM_DecodeAttention)->Arg(64)->Arg(256)->Arg(1024)->ArgNames({"P"});

// INT8 GEMM vs the float path (same shape as BM_Matmul/256).
void BM_QuantizedMatmul(benchmark::State& state) {
  Rng rng(8);
  const Tensor x = rng.normal_tensor(256, 256, 1.0F);
  const QuantizedWeights w = quantize_weights(rng.normal_tensor(256, 256, 0.2F));
  for (auto _ : state) {
    benchmark::DoNotOptimize(quantized_matmul(x, w));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          256 * 256 * 256);
}
BENCHMARK(BM_QuantizedMatmul);

// Round trip through a real kernel socket (message cost of the mesh).
void BM_SocketRoundTrip(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  SocketFabric fabric(2);
  const std::vector<std::byte> payload(bytes);
  for (auto _ : state) {
    fabric.send(Message{.source = 0, .destination = 1, .tag = 1,
                        .payload = payload});
    benchmark::DoNotOptimize(fabric.recv(1, 0, 1));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SocketRoundTrip)->Arg(1024)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
