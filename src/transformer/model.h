// End-to-end transformer model: pre-processing embedding, a stack of
// transformer layers, and a task head. The three stages are exposed
// separately because Voltage (Algorithm 2) runs pre/post-processing on the
// terminal device and distributes only the layer stack.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "tensor/tensor.h"
#include "transformer/config.h"
#include "transformer/embedding.h"
#include "transformer/heads.h"
#include "transformer/layer.h"

namespace voltage {

class TransformerModel {
 public:
  // Builds the model with deterministic random weights derived from `seed`.
  TransformerModel(ModelSpec spec, std::uint64_t seed);

  [[nodiscard]] const ModelSpec& spec() const noexcept { return spec_; }

  // --- terminal-device pre-processing -----------------------------------
  [[nodiscard]] Tensor preprocess(std::span<const TokenId> tokens) const;
  [[nodiscard]] Tensor preprocess(const Image& image) const;
  // Text models only: embed tokens whose first element sits at global
  // position `start` (incremental decoding).
  [[nodiscard]] Tensor preprocess_at(std::span<const TokenId> tokens,
                                     std::size_t start) const;

  // --- distributed portion ----------------------------------------------
  [[nodiscard]] std::span<const TransformerLayer> layers() const noexcept {
    return layers_;
  }
  [[nodiscard]] Tensor forward_layers(Tensor x) const;

  // --- terminal-device post-processing -----------------------------------
  [[nodiscard]] Tensor postprocess(const Tensor& hidden_states) const;

  // Causal LMs only: next-token logits for *every* input row ([R x vocab]),
  // where each row is the final hidden state of an independent sequence —
  // the batched-decode head. Row r is bitwise equal to postprocess on that
  // row alone.
  [[nodiscard]] Tensor postprocess_rows(const Tensor& hidden_states) const;

  // Single-device end-to-end inference (the paper's baseline deployment).
  [[nodiscard]] Tensor infer(std::span<const TokenId> tokens) const;
  [[nodiscard]] Tensor infer(const Image& image) const;

  [[nodiscard]] std::size_t parameter_count() const;

 private:
  ModelSpec spec_;
  std::optional<TokenEmbedding> token_embedding_;
  std::optional<PatchEmbedding> patch_embedding_;
  std::vector<TransformerLayer> layers_;
  std::optional<ClassifierHead> classifier_;
  std::optional<LmHead> lm_head_;
};

}  // namespace voltage
