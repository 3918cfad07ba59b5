#include "transformer/weights.h"

#include <cmath>

#include "tensor/rng.h"

namespace voltage {

std::size_t LayerWeights::parameter_count() const {
  std::size_t n = 0;
  for (const HeadWeights& h : attention.heads) {
    n += h.wq.size() + h.wk.size() + h.wv.size();
  }
  n += attention.wo.size() + attention.bo.size();
  n += ln_attention.gamma.size() + ln_attention.beta.size();
  n += ffn.w1.size() + ffn.b1.size() + ffn.w2.size() + ffn.b2.size();
  n += ln_ffn.gamma.size() + ln_ffn.beta.size();
  return n;
}

LayerWeights init_layer_weights(const LayerConfig& config, Rng& rng) {
  config.validate();
  const std::size_t f = config.hidden;
  const std::size_t fh = config.head_dim;
  // Scaled init keeps activations O(1) through deep stacks so latency
  // benchmarks never hit denormals and tests compare sane magnitudes.
  const float attn_std = 1.0F / std::sqrt(static_cast<float>(f));
  const float ffn_std = 1.0F / std::sqrt(static_cast<float>(config.ffn_dim));

  LayerWeights w;
  w.attention.heads.reserve(config.heads);
  for (std::size_t h = 0; h < config.heads; ++h) {
    w.attention.heads.push_back(HeadWeights{
        .wq = rng.normal_tensor(f, fh, attn_std),
        .wk = rng.normal_tensor(f, fh, attn_std),
        .wv = rng.normal_tensor(f, fh, attn_std),
    });
  }
  w.attention.wo = rng.normal_packed(config.heads * fh, f, attn_std);
  w.attention.bo = Tensor(1, f);
  w.ln_attention = {.gamma = Tensor::filled(1, f, 1.0F), .beta = Tensor(1, f)};
  w.ffn = {
      .w1 = rng.normal_packed(f, config.ffn_dim, attn_std),
      .b1 = Tensor(1, config.ffn_dim),
      .w2 = rng.normal_packed(config.ffn_dim, f, ffn_std),
      .b2 = Tensor(1, f),
  };
  w.ln_ffn = {.gamma = Tensor::filled(1, f, 1.0F), .beta = Tensor(1, f)};
  return w;
}

}  // namespace voltage
