#include "runtime/voltage_runtime.h"

#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "collective/collectives.h"
#include "partition/partitioned_layer.h"
#include "tensor/serialize.h"

namespace voltage {

VoltageRuntime::VoltageRuntime(const TransformerModel& model,
                               PartitionScheme scheme, OrderPolicy policy,
                               TransportKind transport)
    : VoltageRuntime(model,
                     LayerSchedule::uniform(std::move(scheme),
                                            model.spec().num_layers),
                     policy, transport) {}

VoltageRuntime::VoltageRuntime(const TransformerModel& model,
                               LayerSchedule schedule, OrderPolicy policy,
                               TransportKind transport)
    : VoltageRuntime(model, schedule, policy,
                     make_transport(transport, schedule.devices() + 1)) {}

VoltageRuntime::VoltageRuntime(const TransformerModel& model,
                               LayerSchedule schedule, OrderPolicy policy,
                               std::unique_ptr<Transport> transport)
    : VoltageRuntime(model, schedule, policy,
                     std::make_shared<DeviceMesh>(std::move(transport),
                                                  schedule.devices())) {}

VoltageRuntime::VoltageRuntime(const TransformerModel& model,
                               LayerSchedule schedule, OrderPolicy policy,
                               std::shared_ptr<DeviceMesh> mesh)
    : model_(model),
      schedule_(std::move(schedule)),
      policy_(policy),
      mesh_(std::move(mesh)) {
  if (schedule_.num_layers() != model_.spec().num_layers) {
    throw std::invalid_argument(
        "VoltageRuntime: schedule layer count does not match the model");
  }
  if (mesh_->devices() != schedule_.devices()) {
    throw std::invalid_argument(
        "VoltageRuntime: mesh and schedule device counts differ");
  }
}

void VoltageRuntime::set_precision(Precision precision) {
  if (precision == Precision::kInt8 && qstack_ == nullptr) {
    qstack_ = std::make_unique<QuantizedStack>(model_);
  }
  precision_ = precision;
}

Tensor VoltageRuntime::infer(std::span<const TokenId> tokens) {
  return run([&] { return model_.preprocess(tokens); });
}

Tensor VoltageRuntime::infer(const Image& image) {
  return run([&] { return model_.preprocess(image); });
}

void prefill_device(const DeviceMesh& mesh, const TransformerModel& model,
                    const PrefillPlan& plan, std::size_t i) {
  const auto layers = model.layers();
  const LayerConfig& config = model.spec().layer;
  Transport& transport = mesh.transport();
  const Precision wire = plan.int8 != nullptr ? Precision::kInt8
                                              : Precision::kFp32;
  // Algorithm 2, step 3: receive the distributed input features.
  Tensor x(0, 0);
  broadcast(transport, mesh.everyone(), i, mesh.devices(), x,
            kTagPrefillFeatures, plan.options);
  const std::size_t n = x.rows();
  // Comm-path buffers, allocated once and reused for every layer: two
  // full-sequence buffers (gather l writes seq[l%2] while layer l still
  // reads its input from seq[(l-1)%2]) and two shared partition holders
  // whose storage outgoing payloads borrow. holders[l%2] is safe to reuse at
  // layer l+2: completing gather l+1 means every peer finished gather l
  // first, i.e. consumed the layer-l message, and that consumption
  // happens-before our reuse via the mailbox mutex chain. The use_count
  // check below is a defensive fallback (e.g. a slow terminal still holding
  // the final payload) — it never fires in the steady-state layer loop,
  // which therefore performs zero heap allocations on the comm path.
  std::array<Tensor, 2> seq{Tensor(n, x.cols()), Tensor(n, x.cols())};
  std::array<std::shared_ptr<Tensor>, 2> holders{
      std::make_shared<Tensor>(0, 0), std::make_shared<Tensor>(0, 0)};
  const Tensor* input = &x;
  std::optional<AttentionPrologue> prologue;  // of this layer, if overlapped
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const obs::ThreadLayerScope layer_scope(static_cast<std::int64_t>(l));
    const Range own = plan.ranges[l][i];
    if (plan.on_layer) plan.on_layer(l, *input, own);
    // Step 6: compute the assigned output partition. If the previous
    // iteration overlapped this layer's attention prologue with its gather,
    // resume from it — bitwise-identical chains either way.
    Tensor part(0, 0);
    {
      obs::TraceSpan span(obs::thread_tracer(), "layer", "compute",
                          static_cast<obs::TrackId>(i));
      if (span.enabled()) {
        const AttentionDims dims{
            .n = n, .p = own.size(), .f = config.hidden, .fh = config.head_dim};
        const char* order = to_string(select_order(plan.policy, dims));
        span.device(static_cast<std::int64_t>(i))
            .layer(static_cast<std::int64_t>(l))
            .tag(plan.int8 != nullptr ? std::string("int8 ") + order
                                      : std::string(order));
      }
      part = plan.int8 != nullptr
                 ? plan.int8->partition_forward(l, *input, own, plan.policy)
                 : partitioned_layer_forward(
                       layers[l], *input, own, plan.policy,
                       prologue ? &*prologue : nullptr);
    }
    prologue.reset();
    // Park the partition in a shared holder; outgoing messages borrow its
    // rows instead of serializing them.
    auto& holder = holders[l % 2];
    if (holder.use_count() == 1) {
      *holder = std::move(part);
    } else {
      holder = std::make_shared<Tensor>(std::move(part));
    }
    if (l + 1 == layers.size()) {
      // Step 8: the last layer goes straight to the terminal.
      if (plan.last_row_only && !own.contains(n - 1)) return;
      Payload payload =
          plan.last_row_only
              ? tensor_payload_view(std::make_shared<const Tensor>(
                    holder->slice_rows(n - 1 - own.begin, n - own.begin)))
              : tensor_payload_view(holder);
      obs::TraceSpan span(obs::thread_tracer(), "send_final", "comm",
                          static_cast<obs::TrackId>(i));
      span.device(static_cast<std::int64_t>(i))
          .layer(static_cast<std::int64_t>(l))
          .bytes(static_cast<std::int64_t>(payload.size() + kWireFrameBytes));
      transport.send(Message{.source = i,
                             .destination = mesh.terminal(),
                             .tag = kTagPrefillFinal,
                             .payload = std::move(payload)});
      return;
    }
    // Steps 10-13: post the zero-copy gather, overlap the next layer's
    // Q-chain (which reads only rows this device already owns) with the
    // in-flight peer rows, then block for the rest. The int8 kernel has no
    // prologue input, so its gathers overlap nothing.
    AllGatherInto gather(transport, mesh.workers(), i, holder, plan.ranges[l],
                         seq[l % 2], kTagPrefillGatherBase + l, plan.options,
                         wire);
    const Range next = plan.ranges[l + 1][i];
    if (plan.int8 == nullptr && !next.empty() && own.begin <= next.begin &&
        next.end <= own.end) {
      obs::TraceSpan span(obs::thread_tracer(), "overlap_compute", "compute",
                          static_cast<obs::TrackId>(i));
      span.device(static_cast<std::int64_t>(i))
          .layer(static_cast<std::int64_t>(l + 1));
      const Tensor xp = holder->slice_rows(next.begin - own.begin,
                                           next.end - own.begin);
      prologue = attention_prologue(xp, n, next,
                                    layers[l + 1].weights().attention, config,
                                    plan.policy);
    }
    gather.wait();
    input = &seq[l % 2];
  }
}

Tensor VoltageRuntime::run(const std::function<Tensor()>& embed) {
  const std::size_t k = schedule_.devices();
  const DeviceId terminal = terminal_id();
  DeviceMesh& mesh = *mesh_;
  // Adopt the caller's request trace id (e.g. the server's per-request id)
  // or mint a fresh one, so every span and wire message of this run — on
  // all K devices — carries the same causal id.
  const obs::TraceIdScope trace_scope(obs::ensure_trace_id());
  Tensor features(0, 0);
  {
    obs::TraceSpan span(mesh.tracer(), "embed", "compute",
                        static_cast<obs::TrackId>(terminal));
    span.device(static_cast<std::int64_t>(terminal));
    features = embed();
  }
  const std::size_t n = features.rows();
  // Per-layer position assignments (identical rows when the schedule is
  // uniform — the paper's default). One absolute deadline covers the whole
  // request (see set_recv_timeout).
  PrefillPlan plan{.ranges = std::vector<std::vector<Range>>(
                       schedule_.num_layers()),
                   .policy = policy_,
                   .int8 = precision_ == Precision::kInt8 ? qstack_.get()
                                                          : nullptr,
                   .options = RecvOptions::within(recv_timeout_seconds_),
                   .on_layer = {},
                   .last_row_only = false};
  for (std::size_t l = 0; l < schedule_.num_layers(); ++l) {
    plan.ranges[l] = schedule_.scheme_for(l).ranges(n);
  }

  // Terminal role: distribute features, collect final partitions.
  Tensor hidden(n, features.cols());
  mesh.call([&] {
    broadcast(mesh.transport(), mesh.everyone(), k, k, features,
              kTagPrefillFeatures, plan.options);
    mesh.post([&](std::size_t i) { prefill_device(mesh, model_, plan, i); });
    // Final partitions land in arrival order, each deserialized straight
    // into the assembled hidden buffer at its range's row offset.
    obs::TraceSpan span(mesh.tracer(), "collect_final", "comm",
                        static_cast<obs::TrackId>(terminal));
    span.device(static_cast<std::int64_t>(terminal));
    const std::vector<Range>& final_ranges = plan.ranges.back();
    std::vector<bool> seen(k, false);
    for (std::size_t received = 0; received < k; ++received) {
      const Message m =
          mesh.transport().recv_any(terminal, kTagPrefillFinal, plan.options);
      if (m.source >= k || seen[m.source]) {
        throw std::runtime_error("VoltageRuntime: unexpected final sender");
      }
      seen[m.source] = true;
      const WireShape shape =
          deserialize_into(m.payload, hidden, final_ranges[m.source].begin);
      if (shape.rows != final_ranges[m.source].size()) {
        throw std::runtime_error(
            "VoltageRuntime: final partition size mismatch");
      }
    }
  });
  mesh.wait();
  // Steps 16-17: terminal post-processes into the user-facing result.
  obs::TraceSpan span(mesh.tracer(), "postprocess", "compute",
                      static_cast<obs::TrackId>(terminal));
  span.device(static_cast<std::int64_t>(terminal));
  return model_.postprocess(hidden);
}

}  // namespace voltage
