// Real (threaded) execution of distributed inference — paper Algorithm 2.
//
// Device k = device k of the runtime's DeviceMesh; the calling thread acts
// as the terminal device. All intermediate results travel serialized
// through the transport, so the traffic counters measure true wire volume.
// Weights are conceptually replicated on every device (the paper's
// deployment); in-process we share the one read-only model.
#pragma once

#include <span>

#include <functional>
#include <memory>

#include "net/quant_codec.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "partition/order.h"
#include "partition/schedule.h"
#include "partition/scheme.h"
#include "quant/quantized_stack.h"
#include "runtime/mesh.h"
#include "transformer/model.h"

namespace voltage {

// Tags of the Algorithm-2 prefill, shared by VoltageRuntime and the
// DistributedDecoder prime (whose commands and merges use other tags).
inline constexpr MessageTag kTagPrefillFeatures = 2;
inline constexpr MessageTag kTagPrefillFinal = 4;
inline constexpr MessageTag kTagPrefillGatherBase = 64;

// One request's Algorithm-2 prefill, as every device runs it.
struct PrefillPlan {
  std::vector<std::vector<Range>> ranges;  // [layer][device]
  OrderPolicy policy = OrderPolicy::kAdaptive;
  const QuantizedStack* int8 = nullptr;  // set: the int8 plane
  RecvOptions options;                   // the request's shared deadline
  // Sees each layer's full input before the device computes its partition
  // `own` (the decoder banks its rows into the resident caches here).
  std::function<void(std::size_t layer, const Tensor& input, Range own)>
      on_layer;
  // Last layer: every device sends its partition to the terminal, or with
  // `last_row_only` just the owner of row N-1 sends that row.
  bool last_row_only = false;
};

// Device i's part of Algorithm 2 (steps 3-13): receives the broadcast
// features, then per layer computes its partition (Algorithm 1, or the int8
// stack), all-gathers it and finally sends to the terminal.
// While an fp32 gather is in flight the next layer's attention prologue is
// computed from the rows already owned, whenever the next partition lies
// inside them — bitwise identical to computing it after the gather.
void prefill_device(const DeviceMesh& mesh, const TransformerModel& model,
                    const PrefillPlan& plan, std::size_t i);

class VoltageRuntime {
 public:
  // `scheme.devices()` worker devices will be simulated as threads; every
  // layer shares the scheme (the paper's default). `transport` picks the
  // wire: in-memory mailboxes or a mesh of real kernel sockets.
  VoltageRuntime(const TransformerModel& model, PartitionScheme scheme,
                 OrderPolicy policy = OrderPolicy::kAdaptive,
                 TransportKind transport = TransportKind::kInMemory);

  // Per-layer partition schedule (paper §V-B future work): each layer may
  // distribute positions differently. `schedule.num_layers()` must match
  // the model's layer count.
  VoltageRuntime(const TransformerModel& model, LayerSchedule schedule,
                 OrderPolicy policy = OrderPolicy::kAdaptive,
                 TransportKind transport = TransportKind::kInMemory);

  // Bring-your-own transport (e.g. a ChaosTransport for fault-injection
  // tests). Must have devices() == scheme devices + 1 (the terminal).
  VoltageRuntime(const TransformerModel& model, LayerSchedule schedule,
                 OrderPolicy policy, std::unique_ptr<Transport> transport);

  // Runs on `mesh`, which may be shared (e.g. with a DistributedDecoder) and
  // must have schedule.devices() devices. A call that poisons it kills
  // everything else on it too.
  VoltageRuntime(const TransformerModel& model, LayerSchedule schedule,
                 OrderPolicy policy, std::shared_ptr<DeviceMesh> mesh);

  // End-to-end distributed inference; returns the task logits.
  [[nodiscard]] Tensor infer(std::span<const TokenId> tokens);
  [[nodiscard]] Tensor infer(const Image& image);

  // Byte-accurate traffic since construction (worker ids 0..K-1, terminal
  // id K).
  [[nodiscard]] const Transport& fabric() const noexcept {
    return mesh_->transport();
  }
  [[nodiscard]] DeviceId terminal_id() const noexcept {
    return schedule_.devices();
  }
  [[nodiscard]] const LayerSchedule& schedule() const noexcept {
    return schedule_;
  }

  // Attaches a span tracer to the mesh (nullptr detaches — the default).
  // When attached, every run emits per-device per-layer "layer" spans
  // tagged with the attention order Theorem 2 selected, embed/attention/ffn
  // phase spans, and all-gather/broadcast/final-send communication spans
  // with byte counts. When detached, instrumentation is a null-pointer
  // check per site: no clock reads, no allocation, no locking.
  void set_tracer(obs::Tracer* tracer) { mesh_->set_tracer(tracer); }

  // Attaches transport.* counters (see Transport::set_metrics).
  void set_metrics(obs::MetricsRegistry* metrics) {
    mesh_->transport().set_metrics(metrics);
  }

  // Per-request receive budget in seconds (default 0: wait forever). When
  // set, every blocking receive of a run — broadcast, layer gathers, the
  // terminal's final collect — shares one absolute deadline computed at
  // infer() entry, so a wedged-but-alive peer surfaces as RecvTimeoutError
  // within the budget instead of hanging the mesh. The timing-out thread
  // poisons the transport, so every other thread unwinds too.
  void set_recv_timeout(double seconds) noexcept {
    recv_timeout_seconds_ = seconds;
  }
  [[nodiscard]] double recv_timeout() const noexcept {
    return recv_timeout_seconds_;
  }

  // Precision::kInt8 moves the hot paths to the quantized plane: layer
  // compute runs the int8 stack (quant/quantized_stack.h) and the per-layer
  // all-gathers ship int8 + per-row scales (net/quant_codec.h), ~4x fewer
  // wire bytes. The feature broadcast and final partition sends stay fp32
  // (one-time O(NF) cost; the L gathers dominate). Quantizes the model once
  // on first use; call between requests, like set_recv_timeout.
  void set_precision(Precision precision);
  [[nodiscard]] Precision precision() const noexcept { return precision_; }

 private:
  // Embeds the request on the terminal, then runs Algorithm 2 on it.
  [[nodiscard]] Tensor run(const std::function<Tensor()>& embed);

  const TransformerModel& model_;
  LayerSchedule schedule_;
  OrderPolicy policy_;
  Precision precision_ = Precision::kFp32;
  std::unique_ptr<QuantizedStack> qstack_;  // built by set_precision(kInt8)
  double recv_timeout_seconds_ = 0.0;  // <= 0: no deadline
  std::shared_ptr<DeviceMesh> mesh_;
};

}  // namespace voltage
