// Analytic timing/volume model of the collectives, mirroring the real
// implementations in collectives.cpp under a LinkModel.
//
// Communication-volume accounting reproduces the paper §V-C:
//   Voltage:            (K-1) * N * F / K   elements sent per device per layer
//   tensor parallelism: 4 * (K-1) * N * F / K  (two ring all-reduces)
// hence the headline 4x reduction.
//
// Durations assume all ranks enter the collective simultaneously; the
// discrete-event simulator (src/sim) generalizes to skewed ready times and
// heterogeneous devices, and is validated against these closed forms in the
// homogeneous case.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/link.h"
#include "transformer/config.h"

namespace voltage {

// Full-mesh all-gather of `bytes_per_rank` from each of `k` ranks: each NIC
// pipelines its k-1 uploads back-to-back (one per-message setup cost, then
// serialized wire time).
[[nodiscard]] Seconds allgather_fullmesh_duration(std::size_t bytes_per_rank,
                                                  std::size_t k,
                                                  const LinkModel& link);

// Chunked ring all-reduce of a `total_bytes` tensor: 2*(k-1) dependent
// steps, each moving total_bytes/k and paying the per-message cost. The
// step serialization is what makes tensor parallelism latency-fragile.
[[nodiscard]] Seconds ring_allreduce_duration(std::size_t total_bytes,
                                              std::size_t k,
                                              const LinkModel& link);

// Gather-to-root + broadcast ("star") all-reduce of `total_bytes`: one
// full-tensor upload per non-root rank, then k-1 pipelined downloads from
// the root. Same network-wide volume as the ring, different schedule.
[[nodiscard]] Seconds star_allreduce_duration(std::size_t total_bytes,
                                              std::size_t k,
                                              const LinkModel& link);

// Root-to-all broadcast of `bytes` (k-1 pipelined uploads from the root).
[[nodiscard]] Seconds broadcast_duration(std::size_t bytes, std::size_t k,
                                         const LinkModel& link);

// --- paper §V-C per-device per-layer element counts ----------------------

// Voltage: one all-gather of the device's N/K-position partition.
[[nodiscard]] std::uint64_t voltage_elements_per_device_layer(std::size_t n,
                                                              std::size_t f,
                                                              std::size_t k);

// Tensor parallelism: two ring all-reduces of the full N x F activation.
[[nodiscard]] std::uint64_t tp_elements_per_device_layer(std::size_t n,
                                                         std::size_t f,
                                                         std::size_t k);

// --- paper §V-C training communication -----------------------------------
//
// The §V-C closing argument, quantified. Tensor parallelism synchronizes
// per SAMPLE, per LAYER, in both passes: two activation all-reduces forward
// (4(K-1)NF/K per device) and the transposed gradient all-reduces backward
// (another 4(K-1)NF/K).
//
// Voltage replicates the weights; the inference-style forward still costs
// its (K-1)NF/K all-gather per layer, the backward needs the symmetric
// gradient exchange, and then ONE ring all-reduce of the parameter
// gradients per BATCH (2(K-1)/K · P elements per device) reconciles the
// replicas. Per-batch totals therefore scale very differently with batch
// size; these compute both sides and the crossover.

// Per-device elements TP moves for ONE sample through an L-layer model
// (forward + backward).
[[nodiscard]] std::uint64_t tp_training_elements_per_device(
    const ModelSpec& spec, std::size_t n, std::size_t k);

// Per-device elements a replicated-weights (Voltage-style) training step
// moves for a batch of `batch` samples: per-sample forward all-gathers,
// the symmetric backward exchanges, plus one parameter-gradient ring
// all-reduce per batch.
[[nodiscard]] std::uint64_t voltage_training_elements_per_device(
    const ModelSpec& spec, std::size_t n, std::size_t k, std::size_t batch);

// Smallest batch size at which the replicated-weights step moves fewer
// elements per device than TP does (0 if TP is never beaten within
// `max_batch`).
[[nodiscard]] std::size_t training_comm_crossover_batch(const ModelSpec& spec,
                                                        std::size_t n,
                                                        std::size_t k,
                                                        std::size_t max_batch);

}  // namespace voltage
