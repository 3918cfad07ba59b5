// Weight containers for a transformer layer.
//
// Attention projections are stored per head (W_Q^i, W_K^i, W_V^i in F x F_H)
// because Voltage's adaptive order selection (Theorem 2) operates per head.
// Following the paper's Eq. (1), the Q/K/V projections carry no bias; the
// output projection W_O and the FFN keep theirs.
#pragma once

#include <vector>

#include "tensor/tensor.h"
#include "transformer/config.h"

namespace voltage {

struct HeadWeights {
  Tensor wq;  // F x F_H
  Tensor wk;  // F x F_H
  Tensor wv;  // F x F_H
};

struct AttentionWeights {
  std::vector<HeadWeights> heads;
  Tensor wo;  // (H * F_H) x F
  Tensor bo;  // 1 x F
};

struct FfnWeights {
  Tensor w1;  // F x ffn_dim
  Tensor b1;  // 1 x ffn_dim
  Tensor w2;  // ffn_dim x F
  Tensor b2;  // 1 x F
};

struct LayerNormWeights {
  Tensor gamma;  // 1 x F
  Tensor beta;   // 1 x F
};

struct LayerWeights {
  AttentionWeights attention;
  LayerNormWeights ln_attention;  // post-attention LayerNorm (paper Fig. 1)
  FfnWeights ffn;
  LayerNormWeights ln_ffn;  // post-FFN LayerNorm

  // Total parameter count (used for memory reporting).
  [[nodiscard]] std::size_t parameter_count() const;
};

class Rng;

// Deterministic random initialization matching the shapes of `config`.
[[nodiscard]] LayerWeights init_layer_weights(const LayerConfig& config,
                                              Rng& rng);

}  // namespace voltage
