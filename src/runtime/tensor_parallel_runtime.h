// Real (threaded) Megatron-style tensor-parallel inference — the baseline
// the paper compares against (Fig. 2).
//
// Each device owns a subset of attention heads (with the matching rows of
// W_O) and a column shard of the FFN; two ring all-reduces per layer merge
// the partial sums. Produces the same output as single-device execution up
// to float reassociation.
#pragma once

#include <span>
#include <vector>

#include <memory>

#include "net/transport.h"
#include "obs/trace.h"
#include "partition/range.h"
#include "runtime/mesh.h"
#include "transformer/model.h"

namespace voltage {

class TensorParallelRuntime {
 public:
  // Requires devices <= attention heads. `star_allreduce` swaps the
  // chunked ring for the gather-to-root+broadcast schedule (the variant
  // the latency simulation models by default — see EXPERIMENTS.md).
  TensorParallelRuntime(const TransformerModel& model, std::size_t devices,
                        TransportKind transport = TransportKind::kInMemory,
                        bool star_allreduce = false);

  // Bring-your-own transport (e.g. a ChaosTransport for fault-injection
  // tests). Must have devices() == devices + 1 (the terminal).
  TensorParallelRuntime(const TransformerModel& model, std::size_t devices,
                        std::unique_ptr<Transport> transport,
                        bool star_allreduce = false);

  [[nodiscard]] Tensor infer(std::span<const TokenId> tokens);
  [[nodiscard]] Tensor infer(const Image& image);

  [[nodiscard]] const Transport& fabric() const noexcept {
    return mesh_.transport();
  }
  [[nodiscard]] DeviceId terminal_id() const noexcept { return devices_; }

  // Head / FFN-column shards owned by `device` (exposed for tests).
  [[nodiscard]] Range head_shard(std::size_t device) const;
  [[nodiscard]] Range ffn_shard(std::size_t device) const;

  // Attaches a span tracer (nullptr detaches). Workers emit per-layer
  // "layer" compute spans and the ring/star all-reduce comm spans; every
  // run shares one trace id, so the baseline renders causally connected
  // just like VoltageRuntime.
  void set_tracer(obs::Tracer* tracer) { mesh_.set_tracer(tracer); }

  // Attaches transport.* counters (see Transport::set_metrics).
  void set_metrics(obs::MetricsRegistry* metrics) {
    mesh_.transport().set_metrics(metrics);
  }

 private:
  // One device's cut of one layer's sharded weights, made once at
  // construction.
  struct LayerShard {
    PackedMatrix wo_rows;  // W_O rows of the device's heads
    PackedMatrix w1_cols;  // W1 columns of its FFN shard
    Tensor b1_cols;        // the matching b1 entries
    PackedMatrix w2_rows;  // W2 rows of its FFN shard
  };

  [[nodiscard]] Tensor run(Tensor features);
  void device_forward(std::size_t device);

  const TransformerModel& model_;
  std::size_t devices_;
  bool star_allreduce_;
  // Read by the mesh's device threads, so declared before the mesh.
  std::vector<std::vector<LayerShard>> shards_;  // [device][layer]
  DeviceMesh mesh_;
};

}  // namespace voltage
