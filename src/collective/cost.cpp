#include "collective/cost.h"

#include "transformer/zoo.h"

namespace voltage {

Seconds allgather_fullmesh_duration(std::size_t bytes_per_rank, std::size_t k,
                                    const LinkModel& link) {
  if (k <= 1) return 0.0;
  return link.per_message_latency +
         static_cast<double>(k - 1) * link.wire_time(bytes_per_rank);
}

Seconds ring_allreduce_duration(std::size_t total_bytes, std::size_t k,
                                const LinkModel& link) {
  if (k <= 1) return 0.0;
  const std::size_t chunk = (total_bytes + k - 1) / k;
  return 2.0 * static_cast<double>(k - 1) * link.transfer_time(chunk);
}

Seconds star_allreduce_duration(std::size_t total_bytes, std::size_t k,
                                const LinkModel& link) {
  if (k <= 1) return 0.0;
  return link.transfer_time(total_bytes) + link.per_message_latency +
         static_cast<double>(k - 1) * link.wire_time(total_bytes);
}

Seconds broadcast_duration(std::size_t bytes, std::size_t k,
                           const LinkModel& link) {
  if (k <= 1) return 0.0;
  return link.per_message_latency +
         static_cast<double>(k - 1) * link.wire_time(bytes);
}

std::uint64_t voltage_elements_per_device_layer(std::size_t n, std::size_t f,
                                                std::size_t k) {
  if (k <= 1) return 0;
  // (K-1) * (N/K) * F: the device sends its partition to each peer.
  return static_cast<std::uint64_t>(k - 1) * (n / k) * f;
}

std::uint64_t tp_elements_per_device_layer(std::size_t n, std::size_t f,
                                           std::size_t k) {
  if (k <= 1) return 0;
  // Two ring all-reduces, each sending 2*(K-1)/K of the N x F activation.
  return 4 * static_cast<std::uint64_t>(k - 1) * n * f / k;
}

std::uint64_t tp_training_elements_per_device(const ModelSpec& spec,
                                              std::size_t n, std::size_t k) {
  // Forward 4(K-1)NF/K plus the transposed backward synchronization of the
  // same size (paper §V-C), per layer.
  return 2ULL * spec.num_layers *
         tp_elements_per_device_layer(n, spec.layer.hidden, k);
}

std::uint64_t voltage_training_elements_per_device(const ModelSpec& spec,
                                                   std::size_t n,
                                                   std::size_t k,
                                                   std::size_t batch) {
  // Per sample: forward all-gather per layer + the symmetric gradient
  // all-gather on the way back.
  const std::uint64_t per_sample =
      2ULL * spec.num_layers *
      voltage_elements_per_device_layer(n, spec.layer.hidden, k);
  // Per batch: one ring all-reduce of every parameter gradient.
  const std::uint64_t params = spec_parameter_count(spec);
  const std::uint64_t weight_sync =
      k <= 1 ? 0 : 2ULL * (k - 1) * params / k;
  return batch * per_sample + weight_sync;
}

std::size_t training_comm_crossover_batch(const ModelSpec& spec,
                                          std::size_t n, std::size_t k,
                                          std::size_t max_batch) {
  const std::uint64_t tp_per_sample =
      tp_training_elements_per_device(spec, n, k);
  for (std::size_t batch = 1; batch <= max_batch; ++batch) {
    if (voltage_training_elements_per_device(spec, n, k, batch) <
        batch * tp_per_sample) {
      return batch;
    }
  }
  return 0;
}

}  // namespace voltage
