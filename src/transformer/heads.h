// Post-processing heads that turn the final hidden sequence into task
// outputs. In Voltage these run on the terminal device after it collects
// the last layer's partitions (paper Algorithm 2, steps 16-17).
#pragma once

#include "tensor/tensor.h"

namespace voltage {

class Rng;

enum class Pooling : std::uint8_t {
  kClsToken,  // use position 0 ([CLS]) — BERT/ViT
  kMeanPool,  // average all positions
  kLastToken  // use the final position — GPT-style classification
};

// Linear classifier over a pooled sequence representation.
class ClassifierHead {
 public:
  ClassifierHead(std::size_t hidden, std::size_t num_classes, Pooling pooling,
                 Rng& rng);

  // [1 x num_classes] logits.
  [[nodiscard]] Tensor forward(const Tensor& hidden_states) const;

  [[nodiscard]] std::size_t num_classes() const noexcept { return w_.cols(); }
  [[nodiscard]] std::size_t parameter_count() const noexcept {
    return w_.size() + b_.size();
  }

 private:
  Pooling pooling_;
  Tensor w_;  // F x num_classes
  Tensor b_;  // 1 x num_classes
};

// Language-model head: next-token logits from the last position.
class LmHead {
 public:
  LmHead(std::size_t hidden, std::size_t vocab_size, Rng& rng);

  // [1 x vocab] logits for the token following the sequence.
  [[nodiscard]] Tensor forward_last(const Tensor& hidden_states) const;

  // [R x vocab] logits, one row per input row. For batched decoding, where
  // every row is the final hidden state of a different sequence: the GEMM is
  // bitwise row-independent, so row r equals forward_last on that row alone.
  [[nodiscard]] Tensor forward_rows(const Tensor& hidden_states) const;

  [[nodiscard]] std::size_t vocab_size() const noexcept { return w_.cols(); }
  [[nodiscard]] std::size_t parameter_count() const noexcept {
    return w_.size();
  }

 private:
  Tensor w_;  // F x vocab
};

}  // namespace voltage
