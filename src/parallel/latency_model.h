// End-to-end latency simulation of the three deployment strategies (paper
// §VI experiments), combining the exact per-device work profiles with the
// discrete-event network simulator.
//
// Latency is measured the way the paper measures it: from the terminal
// device broadcasting the request features until it holds the final layer
// output (plus terminal-side pre/post-processing).
#pragma once

#include <cstdint>
#include <vector>

#include "net/link.h"
#include "parallel/profile.h"
#include "partition/order.h"
#include "partition/schedule.h"
#include "partition/scheme.h"
#include "sim/cluster.h"
#include "transformer/config.h"

namespace voltage {

// Per-layer breakdown on the critical path: the slowest device's compute
// time for the layer and the wall time the following synchronization adds.
struct LayerTrace {
  Seconds compute = 0.0;
  Seconds sync = 0.0;
};

struct LatencyReport {
  Seconds total = 0.0;
  Seconds pre_post = 0.0;        // terminal-side embedding + head
  Seconds max_device_compute = 0.0;  // busiest device's total compute time
  // Critical-path time not explained by compute: communication + the
  // synchronization stalls it induces.
  Seconds comm_and_stall = 0.0;
  std::uint64_t bytes_sent_per_device = 0;  // busiest worker, whole inference
  std::uint64_t total_bytes_sent = 0;       // all workers, whole inference
  std::uint64_t messages_per_device = 0;
  std::size_t devices = 1;
  // One entry per transformer layer (empty for single-device, whose layers
  // have no synchronization structure worth tracing).
  std::vector<LayerTrace> layer_traces;
};

// All-reduce algorithm for the tensor-parallelism simulation. kStar
// (gather-to-root + broadcast) matches the paper's measured TP behaviour at
// CPU/gloo scale and is the default; kRing is the bandwidth-optimal
// alternative kept as an ablation.
enum class AllReduceAlgo : std::uint8_t { kStar, kRing };

// Sequence length the paper uses for this model (200 tokens for text,
// patches + [CLS] for ViT).
[[nodiscard]] std::size_t paper_sequence_length(const ModelSpec& spec);

// Single-device deployment: terminal embeds, ships features to the one
// worker, which runs all layers and returns the final hidden states.
[[nodiscard]] LatencyReport simulate_single_device(const ModelSpec& spec,
                                                   std::size_t n,
                                                   const sim::Cluster& cluster);

// Voltage (Algorithm 2): broadcast features, per layer each worker computes
// its position partition (Algorithm 1) and all-gathers; the last layer's
// partitions go straight to the terminal.
[[nodiscard]] LatencyReport simulate_voltage(const ModelSpec& spec,
                                             std::size_t n,
                                             const sim::Cluster& cluster,
                                             const PartitionScheme& scheme,
                                             OrderPolicy policy);

// Voltage with a per-layer partition schedule (paper §V-B future work);
// `schedule.num_layers()` must match the model.
[[nodiscard]] LatencyReport simulate_voltage(const ModelSpec& spec,
                                             std::size_t n,
                                             const sim::Cluster& cluster,
                                             const LayerSchedule& schedule,
                                             OrderPolicy policy);

// Megatron-style tensor parallelism (paper Fig. 2): heads and FFN columns
// split across workers, two ring all-reduces per layer.
[[nodiscard]] LatencyReport simulate_tensor_parallel(
    const ModelSpec& spec, std::size_t n, const sim::Cluster& cluster,
    AllReduceAlgo algo = AllReduceAlgo::kStar);

}  // namespace voltage
