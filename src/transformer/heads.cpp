#include "transformer/heads.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"
#include "tensor/rng.h"

namespace voltage {

ClassifierHead::ClassifierHead(std::size_t hidden, std::size_t num_classes,
                               Pooling pooling, Rng& rng)
    : pooling_(pooling),
      w_(rng.normal_packed(hidden, num_classes,
                           1.0F / std::sqrt(static_cast<float>(hidden)))),
      b_(Tensor(1, num_classes)) {}

Tensor ClassifierHead::forward(const Tensor& hidden_states) const {
  if (hidden_states.rows() == 0) {
    throw std::invalid_argument("ClassifierHead: empty sequence");
  }
  Tensor pooled;
  switch (pooling_) {
    case Pooling::kClsToken:
      pooled = hidden_states.slice_rows(0, 1);
      break;
    case Pooling::kMeanPool:
      pooled = mean_rows(hidden_states);
      break;
    case Pooling::kLastToken:
      pooled =
          hidden_states.slice_rows(hidden_states.rows() - 1,
                                   hidden_states.rows());
      break;
  }
  Tensor logits = matmul(pooled, w_);
  add_bias_inplace(logits, b_);
  return logits;
}

LmHead::LmHead(std::size_t hidden, std::size_t vocab_size, Rng& rng)
    : w_(rng.normal_packed(hidden, vocab_size,
                           1.0F / std::sqrt(static_cast<float>(hidden)))) {}

Tensor LmHead::forward_last(const Tensor& hidden_states) const {
  if (hidden_states.rows() == 0) {
    throw std::invalid_argument("LmHead: empty sequence");
  }
  const Tensor last = hidden_states.slice_rows(hidden_states.rows() - 1,
                                               hidden_states.rows());
  return matmul(last, w_);
}

Tensor LmHead::forward_rows(const Tensor& hidden_states) const {
  if (hidden_states.rows() == 0) {
    throw std::invalid_argument("LmHead: empty batch");
  }
  return matmul(hidden_states, w_);
}

}  // namespace voltage
