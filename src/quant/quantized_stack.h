// Whole-model INT8 quantization: every transformer layer of a float model
// quantized once, plus the forward paths needed to deploy it — full
// single-device and position-partitioned (for Voltage distribution via
// VoltageRuntime::set_precision(Precision::kInt8)).
#pragma once

#include <vector>

#include "quant/quantized_layer.h"
#include "transformer/model.h"

namespace voltage {

class QuantizedStack {
 public:
  // Quantizes all layers of `model` (weights copied; `model` unchanged).
  explicit QuantizedStack(const TransformerModel& model);

  [[nodiscard]] std::size_t num_layers() const noexcept {
    return layers_.size();
  }

  // T_p(x) of one layer under int8 weights (thread-safe, read-only).
  [[nodiscard]] Tensor partition_forward(
      std::size_t layer, const Tensor& x, Range p,
      OrderPolicy policy = OrderPolicy::kAdaptive) const;

  // Full single-device forward through all quantized layers.
  [[nodiscard]] Tensor forward_layers(Tensor x) const;

  // The quantized post-attention tail of one decode step (see
  // DistributedDecoder::worker_step): merged softmax partials -> int8 W_O
  // projection + b_O, residual with the layer input rows `x`, LayerNorm,
  // int8 FFN, residual, LayerNorm. Deterministic, so every device running
  // it redundantly leaves the layer with identical rows.
  [[nodiscard]] Tensor decode_step_tail(std::size_t layer,
                                        const Tensor& merged,
                                        const Tensor& x) const;

  [[nodiscard]] const QuantizedLayerWeights& layer(std::size_t i) const {
    return layers_.at(i);
  }
  [[nodiscard]] const LayerConfig& config() const noexcept { return config_; }

  // Weight memory of the int8 stack vs the float original.
  [[nodiscard]] std::size_t byte_size() const;
  [[nodiscard]] std::size_t float_byte_size() const noexcept {
    return float_bytes_;
  }

 private:
  LayerConfig config_;
  std::vector<QuantizedLayerWeights> layers_;
  std::size_t float_bytes_ = 0;
};

}  // namespace voltage
