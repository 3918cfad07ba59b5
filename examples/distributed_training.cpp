// Replicated-weights data-parallel training at the edge — the §V-C story
// executed for real: every device holds a full copy of a transformer layer
// (plus a linear head), computes gradients on its OWN samples, and one
// ring all-reduce of the flattened gradients per step reconciles the
// replicas. Per-step communication is the model size — independent of the
// batch — versus tensor parallelism's per-sample activation syncs.
//
// Task: classify synthetic sequences by which half of the feature space
// carries the signal. Loss must fall and replicas must stay bit-identical:
// the run exits 1 otherwise.
//
//   ./build/examples/distributed_training
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "collective/collectives.h"
#include "net/fabric.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "train/layer_backward.h"
#include "train/loss.h"
#include "train/sgd.h"
#include "transformer/layer.h"

namespace {

using namespace voltage;

constexpr std::size_t kDevices = 3;
constexpr std::size_t kSeq = 8;
constexpr std::size_t kClasses = 2;
constexpr int kSteps = 25;
constexpr float kLr = 0.15F;

LayerConfig config() {
  return LayerConfig{.hidden = 16,
                     .heads = 2,
                     .head_dim = 8,
                     .ffn_dim = 32,
                     .activation = Activation::kGelu};
}

// A sample: class 0 puts energy in the first half of the features, class 1
// in the second half.
struct Sample {
  Tensor x;
  std::size_t label;
};

Sample make_sample(Rng& rng) {
  Sample s;
  s.label = rng.next_below(kClasses);
  s.x = rng.normal_tensor(kSeq, config().hidden, 0.3F);
  const std::size_t begin = s.label == 0 ? 0 : config().hidden / 2;
  for (std::size_t r = 0; r < kSeq; ++r) {
    for (std::size_t c = begin; c < begin + config().hidden / 2; ++c) {
      s.x(r, c) += 1.0F;
    }
  }
  return s;
}

// Forward + backward through layer -> mean pool -> linear head.
struct StepResult {
  float loss;
  LayerGrads layer_grads;
  Tensor dhead_w;
  Tensor dhead_b;
};

StepResult grads_for_sample(const TransformerLayer& layer,
                            const Tensor& head_w, const Tensor& head_b,
                            const Sample& sample) {
  LayerCache cache;
  const Tensor hidden = layer_forward_cached(layer, sample.x, cache);
  const Tensor pooled = mean_rows(hidden);
  Tensor logits = matmul(pooled, head_w);
  add_bias_inplace(logits, head_b);

  const std::size_t labels[] = {sample.label};
  const LossResult loss =
      softmax_cross_entropy(logits, std::span<const std::size_t>(labels));

  // Head backward.
  const MatmulGrads head = matmul_grad(pooled, head_w, loss.dlogits);
  // Mean pooling backward: every row receives dPooled / kSeq.
  Tensor dhidden(kSeq, hidden.cols());
  for (std::size_t r = 0; r < kSeq; ++r) {
    for (std::size_t c = 0; c < hidden.cols(); ++c) {
      dhidden(r, c) = head.da(0, c) / static_cast<float>(kSeq);
    }
  }
  LayerBackwardResult back = layer_backward(layer, cache, dhidden);
  return StepResult{.loss = loss.loss,
                    .layer_grads = std::move(back.grads),
                    .dhead_w = head.db,
                    .dhead_b = bias_grad(loss.dlogits)};
}

// Every parameter tensor one replica holds: its layer's weights, then its
// head.
std::vector<const Tensor*> parameters(const TransformerLayer& layer,
                                      const Tensor& head_w,
                                      const Tensor& head_b) {
  const LayerWeights& w = layer.weights();
  std::vector<const Tensor*> all;
  for (const HeadWeights& head : w.attention.heads) {
    all.insert(all.end(), {&head.wq, &head.wk, &head.wv});
  }
  all.insert(all.end(),
             {&w.attention.wo, &w.attention.bo, &w.ln_attention.gamma,
              &w.ln_attention.beta, &w.ffn.w1, &w.ffn.b1, &w.ffn.w2,
              &w.ffn.b2, &w.ln_ffn.gamma, &w.ln_ffn.beta, &head_w, &head_b});
  return all;
}

}  // namespace

int main() {
  Rng init(1);
  // Every device starts from the same replica.
  const LayerWeights w0 = init_layer_weights(config(), init);
  const Tensor head_w0 = init.normal_tensor(config().hidden, kClasses, 0.2F);
  const Tensor head_b0 = Tensor(1, kClasses);

  std::vector<TransformerLayer> layers;
  std::vector<Tensor> head_w(kDevices, head_w0);
  std::vector<Tensor> head_b(kDevices, head_b0);
  for (std::size_t d = 0; d < kDevices; ++d) layers.emplace_back(config(), w0);

  Fabric fabric(kDevices);
  std::vector<DeviceId> group(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) group[d] = d;

  std::printf("data-parallel training: %zu devices, 1 sample each per "
              "step, gradient ring all-reduce per step\n\n",
              kDevices);
  float first_loss = 0.0F;
  float last_loss = 0.0F;
  for (int step = 0; step < kSteps; ++step) {
    std::vector<float> losses(kDevices);
    std::vector<std::thread> threads;
    for (std::size_t d = 0; d < kDevices; ++d) {
      threads.emplace_back([&, d] {
        Rng data_rng(1000 + static_cast<std::uint64_t>(step) * kDevices + d);
        const Sample sample = make_sample(data_rng);
        StepResult r = grads_for_sample(layers[d], head_w[d], head_b[d],
                                        sample);
        losses[d] = r.loss;

        // Ring all-reduce of all gradients (layer flattened + head).
        Tensor flat = flatten_grads(r.layer_grads);
        flat = ring_all_reduce_sum(fabric, group, d, std::move(flat),
                                   10 + static_cast<MessageTag>(step) * 64);
        unflatten_grads(flat, r.layer_grads);
        Tensor hw = ring_all_reduce_sum(
            fabric, group, d, r.dhead_w,
            40 + static_cast<MessageTag>(step) * 64);
        Tensor hb = ring_all_reduce_sum(
            fabric, group, d, r.dhead_b,
            52 + static_cast<MessageTag>(step) * 64);

        // Average and apply identically on every replica.
        scale_grads(r.layer_grads, 1.0F / static_cast<float>(kDevices));
        scale_inplace(hw, 1.0F / static_cast<float>(kDevices));
        scale_inplace(hb, 1.0F / static_cast<float>(kDevices));
        apply_sgd(layers[d].mutable_weights(), r.layer_grads, kLr);
        auto& wref = head_w[d];
        const auto fg = hw.flat();
        auto fw = wref.flat();
        for (std::size_t i = 0; i < fw.size(); ++i) fw[i] -= kLr * fg[i];
        const auto fgb = hb.flat();
        auto fb = head_b[d].flat();
        for (std::size_t i = 0; i < fb.size(); ++i) fb[i] -= kLr * fgb[i];
      });
    }
    for (auto& t : threads) t.join();
    float mean_loss = 0.0F;
    for (const float l : losses) mean_loss += l;
    mean_loss /= static_cast<float>(kDevices);
    if (step == 0) first_loss = mean_loss;
    last_loss = mean_loss;
    if (step % 4 == 0 || step + 1 == kSteps) {
      std::printf("  step %2d: mean loss %.4f\n", step, mean_loss);
    }
  }

  // Replicas must have stayed in lockstep (identical updates everywhere):
  // every parameter of every replica bit-identical to replica 0's.
  const auto reference = parameters(layers[0], head_w[0], head_b[0]);
  float drift = 0.0F;
  bool lockstep = true;
  for (std::size_t d = 1; d < kDevices; ++d) {
    const auto replica = parameters(layers[d], head_w[d], head_b[d]);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      drift = std::max(drift, max_abs_diff(*reference[i], *replica[i]));
      lockstep = lockstep && std::memcmp(reference[i]->data(),
                                         replica[i]->data(),
                                         reference[i]->byte_size()) == 0;
    }
  }
  std::printf("\nreplica weight drift after %d steps: %g over %zu tensors "
              "per replica (ring all-reduce keeps every device's sum "
              "bit-identical)\n",
              kSteps, drift, reference.size());
  const auto traffic = fabric.total_stats();
  std::printf("gradient sync traffic: %.1f KiB over %llu messages "
              "(independent of batch size)\n",
              static_cast<double>(traffic.bytes_sent) / 1024.0,
              static_cast<unsigned long long>(traffic.messages_sent));
  if (!lockstep) {
    std::fprintf(stderr, "replicas diverged\n");
    return 1;
  }
  if (!(last_loss < first_loss)) {
    std::fprintf(stderr, "mean loss did not fall: %.4f -> %.4f\n",
                 first_loss, last_loss);
    return 1;
  }
  return 0;
}
