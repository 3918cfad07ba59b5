// INT8 + Voltage composition (§VII-A: compression and distribution are
// orthogonal): quantize a BERT-style model to int8, then distribute the
// quantized inference across devices with the stock Algorithm 2 protocol —
// only the per-layer kernel and the gather encoding change.
//
//   ./build/examples/quantized_deployment
#include <cstdio>

#include "quant/quantized_stack.h"
#include "runtime/voltage_runtime.h"
#include "tensor/ops.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

int main() {
  using namespace voltage;

  const TransformerModel model = make_model(mini_bert_spec());
  const QuantizedStack quantized(model);
  std::printf("weights: float %.1f KiB -> int8 %.1f KiB (%.2fx smaller)\n",
              static_cast<double>(quantized.float_byte_size()) / 1024.0,
              static_cast<double>(quantized.byte_size()) / 1024.0,
              static_cast<double>(quantized.float_byte_size()) /
                  static_cast<double>(quantized.byte_size()));

  const auto tokens = random_tokens(28, model.spec().vocab_size, 77);

  // Reference: float single-device inference.
  const Tensor float_logits = model.infer(tokens);

  // Distributed INT8: the runtime keeps Algorithm 2 (broadcast, partition,
  // all-gather, collect); the int8 plane swaps in the quantized kernels and
  // ships the per-layer gathers as int8 rows with per-row scales.
  VoltageRuntime runtime(model, PartitionScheme::even(3));
  runtime.set_precision(Precision::kInt8);
  const Tensor int8_logits = runtime.infer(tokens);

  // Quantized single-device reference (same kernels, no distribution).
  const Tensor int8_single =
      model.postprocess(quantized.forward_layers(model.preprocess(tokens)));

  std::printf("float single-device  : [%+.4f, %+.4f] -> class %zu\n",
              float_logits(0, 0), float_logits(0, 1),
              argmax_row(float_logits, 0));
  std::printf("int8  single-device  : [%+.4f, %+.4f] -> class %zu\n",
              int8_single(0, 0), int8_single(0, 1),
              argmax_row(int8_single, 0));
  std::printf("int8  distributed(3) : [%+.4f, %+.4f] -> class %zu\n",
              int8_logits(0, 0), int8_logits(0, 1),
              argmax_row(int8_logits, 0));
  std::printf("quantization drift vs float: %.4f (max |logit diff|)\n",
              max_abs_diff(int8_single, float_logits));
  std::printf("distribution drift within int8: %.6f\n",
              max_abs_diff(int8_logits, int8_single));
  return 0;
}
