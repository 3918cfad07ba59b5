// A full transformer layer (encoder/decoder block, paper Fig. 1):
//   Y = LayerNorm(MultiHead(x) + x)
//   T(x) = LayerNorm(FFN(Y) + Y)
#pragma once

#include "tensor/tensor.h"
#include "transformer/config.h"
#include "transformer/weights.h"

namespace voltage {

class TransformerLayer {
 public:
  TransformerLayer(LayerConfig config, LayerWeights weights)
      : config_(config), weights_(std::move(weights)) {
    config_.validate();
  }

  // Full-sequence forward — the single-device reference path.
  [[nodiscard]] Tensor forward(const Tensor& x) const;

  [[nodiscard]] const LayerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const LayerWeights& weights() const noexcept {
    return weights_;
  }

 private:
  LayerConfig config_;
  LayerWeights weights_;
};

}  // namespace voltage
