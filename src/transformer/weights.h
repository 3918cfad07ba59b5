// Weight containers for a transformer layer.
//
// Attention projections are stored per head (W_Q^i, W_K^i, W_V^i in F x F_H)
// because Voltage's adaptive order selection (Theorem 2) operates per head.
// Following the paper's Eq. (1), the Q/K/V projections carry no bias; the
// output projection W_O and the FFN keep theirs.
//
// W_O, W1 and W2 — 9F^2 of a layer's 12F^2 weight MACs per position, under
// either Theorem-2 order — are stored only as pre-packed GEMM panels
// (PackedMatrix). The per-head projections stay row-major Tensors: Eq. (8)
// reads W_K transposed, and the F_H-wide head GEMMs gain little from
// pre-packing.
#pragma once

#include <vector>

#include "tensor/packed_matrix.h"
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
  PackedMatrix wo;  // (H * F_H) x F
  Tensor bo;  // 1 x F
};

struct FfnWeights {
  PackedMatrix w1;  // F x ffn_dim
  Tensor b1;        // 1 x ffn_dim
  PackedMatrix w2;  // ffn_dim x F
  Tensor b2;        // 1 x F
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
