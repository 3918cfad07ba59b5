// Quickstart: distribute a BERT-style classifier across four simulated edge
// devices with Voltage's public API, check the result against single-device
// inference (exit 1 if they differ by more than 2e-3), and estimate what the
// deployment would cost on a real edge cluster.
//
//   ./build/examples/quickstart
#include <cstdio>

#include "tensor/ops.h"
#include "transformer/tokenizer.h"
#include "voltage/system.h"

int main() {
  using namespace voltage;

  // 1. Build a model (architecturally a small BERT with seeded random
  //    weights: the system's cost and exactness do not depend on them).
  TransformerModel reference = make_model(mini_bert_spec());
  std::printf("model: %s, %zu layers, %zu parameters\n",
              reference.spec().name.c_str(), reference.spec().num_layers,
              reference.parameter_count());

  // 2. Wrap it in a Voltage system: 4 devices, even position partition,
  //    adaptive computation-order selection (Theorem 2).
  System system(make_model(mini_bert_spec()),
                {.scheme = PartitionScheme::even(4),
                 .policy = OrderPolicy::kAdaptive});

  // 3. Run a distributed inference. Devices are threads connected by a
  //    byte-accurate message fabric; the calling thread is the terminal.
  const HashingTokenizer tokenizer(reference.spec().vocab_size);
  const auto tokens = tokenizer.encode(
      "voltage distributes one transformer inference request across many "
      "edge devices by partitioning every layer along the sequence");
  const Tensor logits = system.infer(tokens);
  std::printf("distributed logits : [%f, %f] -> class %zu\n", logits(0, 0),
              logits(0, 1), argmax_row(logits, 0));

  // 4. It must agree with plain single-device inference.
  const Tensor expected = reference.infer(tokens);
  const float diff = max_abs_diff(logits, expected);
  std::printf("single-device      : [%f, %f]  (max |diff| = %g)\n",
              expected(0, 0), expected(0, 1), diff);
  if (diff > 2e-3F) {
    std::fprintf(stderr, "distributed logits differ from single-device by "
                         "%g (> 2e-3)\n", diff);
    return 1;
  }

  // 5. How much did the devices talk?
  const TrafficStats traffic = system.traffic();
  std::printf("wire traffic       : %llu messages, %.1f KiB\n",
              static_cast<unsigned long long>(traffic.messages_sent),
              static_cast<double>(traffic.bytes_sent) / 1024.0);

  // 6. Predict the latency of this deployment on a described edge cluster
  //    (four 25-GMAC/s devices on 500 Mbps links).
  const auto cluster = sim::Cluster::homogeneous(
      4,
      sim::DeviceSpec{.name = "edge", .mac_rate = 25e9,
                      .elementwise_rate = 4e9},
      LinkModel::mbps(500));
  const LatencyReport estimate =
      system.estimate_latency(cluster, tokens.size());
  std::printf("estimated latency  : %.2f ms on a 4-device 500 Mbps cluster\n",
              1e3 * estimate.total);
  return 0;
}
