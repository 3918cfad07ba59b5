#include "transformer/model.h"

#include <stdexcept>

#include "tensor/rng.h"
#include "transformer/weights.h"

namespace voltage {

TransformerModel::TransformerModel(ModelSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)) {
  spec_.validate();
  Rng rng(seed);

  switch (spec_.kind) {
    case ModelKind::kTextClassifier:
    case ModelKind::kCausalLm:
      token_embedding_.emplace(spec_.vocab_size, spec_.max_positions,
                               spec_.layer.hidden, rng);
      break;
    case ModelKind::kImageClassifier:
      patch_embedding_.emplace(spec_.image_size, spec_.patch_size,
                               spec_.channels, spec_.layer.hidden, rng);
      break;
  }

  layers_.reserve(spec_.num_layers);
  for (std::size_t i = 0; i < spec_.num_layers; ++i) {
    layers_.emplace_back(spec_.layer, init_layer_weights(spec_.layer, rng));
  }

  switch (spec_.kind) {
    case ModelKind::kTextClassifier:
    case ModelKind::kImageClassifier:
      classifier_.emplace(spec_.layer.hidden, spec_.num_classes,
                          Pooling::kClsToken, rng);
      break;
    case ModelKind::kCausalLm:
      lm_head_.emplace(spec_.layer.hidden, spec_.vocab_size, rng);
      break;
  }
}

Tensor TransformerModel::preprocess(std::span<const TokenId> tokens) const {
  if (!token_embedding_) {
    throw std::logic_error("preprocess(tokens): not a text model");
  }
  return token_embedding_->embed(tokens);
}

Tensor TransformerModel::preprocess_at(std::span<const TokenId> tokens,
                                       std::size_t start) const {
  if (!token_embedding_) {
    throw std::logic_error("preprocess_at: not a text model");
  }
  return token_embedding_->embed_at(tokens, start);
}

Tensor TransformerModel::preprocess(const Image& image) const {
  if (!patch_embedding_) {
    throw std::logic_error("preprocess(image): not a vision model");
  }
  return patch_embedding_->embed(image);
}

Tensor TransformerModel::forward_layers(Tensor x) const {
  for (const TransformerLayer& layer : layers_) {
    x = layer.forward(x);
  }
  return x;
}

Tensor TransformerModel::postprocess(const Tensor& hidden_states) const {
  if (classifier_) return classifier_->forward(hidden_states);
  if (lm_head_) return lm_head_->forward_last(hidden_states);
  throw std::logic_error("postprocess: model has no head");
}

Tensor TransformerModel::postprocess_rows(const Tensor& hidden_states) const {
  if (!lm_head_) {
    throw std::logic_error("postprocess_rows: needs a causal LM head");
  }
  return lm_head_->forward_rows(hidden_states);
}

Tensor TransformerModel::infer(std::span<const TokenId> tokens) const {
  return postprocess(forward_layers(preprocess(tokens)));
}

Tensor TransformerModel::infer(const Image& image) const {
  return postprocess(forward_layers(preprocess(image)));
}

std::size_t TransformerModel::parameter_count() const {
  std::size_t n = 0;
  if (token_embedding_) n += token_embedding_->parameter_count();
  if (patch_embedding_) n += patch_embedding_->parameter_count();
  for (const TransformerLayer& layer : layers_) {
    n += layer.weights().parameter_count();
  }
  if (classifier_) n += classifier_->parameter_count();
  if (lm_head_) n += lm_head_->parameter_count();
  return n;
}

}  // namespace voltage
