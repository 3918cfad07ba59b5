// Voltage public API façade.
//
// One object that owns a model and a partition scheme and offers:
//   - infer():            real distributed inference (threaded devices,
//                         byte-accurate fabric) — Algorithm 2;
//   - estimate_latency(): what this deployment would cost on a described
//                         edge cluster (discrete-event simulation);
//   - traffic():          measured wire volume so far.
//
// Quick start:
//   auto model  = voltage::make_model(voltage::mini_bert_spec());
//   voltage::System system(std::move(model),
//                          {.scheme = voltage::PartitionScheme::even(4)});
//   auto logits = system.infer(tokens);
#pragma once

#include <span>

#include "parallel/latency_model.h"
#include "partition/order.h"
#include "partition/scheme.h"
#include "runtime/voltage_runtime.h"
#include "sim/cluster.h"
#include "transformer/model.h"
#include "transformer/zoo.h"

namespace voltage {

struct SystemOptions {
  PartitionScheme scheme = PartitionScheme::even(1);
  OrderPolicy policy = OrderPolicy::kAdaptive;
  TransportKind transport = TransportKind::kInMemory;
};

class System {
 public:
  System(TransformerModel model, SystemOptions options)
      : model_(std::move(model)),
        options_(std::move(options)),
        runtime_(model_, options_.scheme, options_.policy,
                 options_.transport) {}

  // The runtime holds a reference to model_, so a System never moves.
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] Tensor infer(std::span<const TokenId> tokens) {
    return runtime_.infer(tokens);
  }
  [[nodiscard]] Tensor infer(const Image& image) {
    return runtime_.infer(image);
  }

  // Predicted end-to-end latency of this deployment (same scheme and order
  // policy) on `cluster` for an input of length `n` (0 = the paper's
  // workload length for this model).
  [[nodiscard]] LatencyReport estimate_latency(const sim::Cluster& cluster,
                                               std::size_t n = 0) const {
    const std::size_t seq = n == 0 ? paper_sequence_length(model_.spec()) : n;
    return simulate_voltage(model_.spec(), seq, cluster, options_.scheme,
                            options_.policy);
  }

  [[nodiscard]] const TransformerModel& model() const noexcept {
    return model_;
  }
  [[nodiscard]] const SystemOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] TrafficStats traffic() const {
    return runtime_.fabric().total_stats();
  }

 private:
  TransformerModel model_;
  SystemOptions options_;
  VoltageRuntime runtime_;
};

}  // namespace voltage
