// Pre-processing layers that map raw inputs (token ids, images) to the
// [N x F] feature sequences consumed by the transformer stack. In Voltage
// these run on the terminal device before the input is broadcast (paper
// Fig. 3 / Algorithm 2 step 2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"
#include "transformer/image.h"

namespace voltage {

using TokenId = std::int32_t;

class Rng;

// Learned token + learned absolute position embeddings (BERT/GPT-2 style).
class TokenEmbedding {
 public:
  TokenEmbedding(std::size_t vocab_size, std::size_t max_positions,
                 std::size_t hidden, Rng& rng);

  // [N x F] embedded sequence; throws if a token id is out of range or the
  // sequence exceeds max_positions.
  [[nodiscard]] Tensor embed(std::span<const TokenId> tokens) const {
    return embed_at(tokens, 0);
  }

  // Embeds a sequence whose first token sits at global position `start` —
  // the incremental-decoding entry point.
  [[nodiscard]] Tensor embed_at(std::span<const TokenId> tokens,
                                std::size_t start) const;

  [[nodiscard]] std::size_t vocab_size() const noexcept {
    return table_.rows();
  }
  [[nodiscard]] std::size_t max_positions() const noexcept {
    return positions_.rows();
  }
  [[nodiscard]] std::size_t parameter_count() const noexcept {
    return table_.size() + positions_.size();
  }

 private:
  Tensor table_;      // vocab x F
  Tensor positions_;  // max_positions x F
};

// ViT-style patch embedding: non-overlapping P x P patches, linear
// projection, prepended [CLS] token, learned position embeddings.
class PatchEmbedding {
 public:
  PatchEmbedding(std::size_t image_size, std::size_t patch_size,
                 std::size_t channels, std::size_t hidden, Rng& rng);

  // [(num_patches + 1) x F] sequence; throws on geometry mismatch.
  [[nodiscard]] Tensor embed(const Image& image) const;

  [[nodiscard]] std::size_t sequence_length() const noexcept;
  [[nodiscard]] std::size_t parameter_count() const noexcept {
    return projection_.size() + cls_token_.size() + positions_.size();
  }

 private:
  std::size_t image_size_;
  std::size_t patch_size_;
  std::size_t channels_;
  Tensor projection_;  // (patch^2 * C) x F
  Tensor cls_token_;   // 1 x F
  Tensor positions_;   // (num_patches + 1) x F
};

}  // namespace voltage
