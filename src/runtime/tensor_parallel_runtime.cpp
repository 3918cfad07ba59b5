#include "runtime/tensor_parallel_runtime.h"

#include <stdexcept>

#include "collective/collectives.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "transformer/attention.h"
#include "transformer/ffn.h"

namespace voltage {

namespace {

constexpr MessageTag kTagBroadcast = 1;
constexpr MessageTag kTagFinal = 2;
// Each ring all-reduce consumes up to 2*(K-1) consecutive tags; stride the
// per-layer bases far apart.
constexpr MessageTag kTagLayerBase = 1024;
constexpr MessageTag kTagLayerStride = 64;

Range even_shard(std::size_t total, std::size_t parts, std::size_t index) {
  return Range{.begin = total * index / parts,
               .end = total * (index + 1) / parts};
}

}  // namespace

TensorParallelRuntime::TensorParallelRuntime(const TransformerModel& model,
                                             std::size_t devices,
                                             TransportKind transport,
                                             bool star_allreduce)
    : TensorParallelRuntime(
          model, devices,
          make_transport(transport, devices == 0 ? 1 : devices + 1),
          star_allreduce) {}

TensorParallelRuntime::TensorParallelRuntime(
    const TransformerModel& model, std::size_t devices,
    std::unique_ptr<Transport> transport, bool star_allreduce)
    : model_(model),
      devices_(devices),
      star_allreduce_(star_allreduce),
      mesh_(std::move(transport), devices) {
  if (devices == 0) {
    throw std::invalid_argument("TensorParallelRuntime: zero devices");
  }
  if (devices > model.spec().layer.heads) {
    throw std::invalid_argument(
        "TensorParallelRuntime: more devices than attention heads");
  }
}

Range TensorParallelRuntime::head_shard(std::size_t device) const {
  return even_shard(model_.spec().layer.heads, devices_, device);
}

Range TensorParallelRuntime::ffn_shard(std::size_t device) const {
  return even_shard(model_.spec().layer.ffn_dim, devices_, device);
}

Tensor TensorParallelRuntime::infer(std::span<const TokenId> tokens) {
  return run(model_.preprocess(tokens));
}

Tensor TensorParallelRuntime::infer(const Image& image) {
  return run(model_.preprocess(image));
}

void TensorParallelRuntime::device_forward(std::size_t i) {
  const std::size_t k = devices_;
  const auto layers = model_.layers();
  const Range heads = head_shard(i);
  const Range ffn_cols = ffn_shard(i);
  obs::Tracer* const tracer = obs::thread_tracer();
  Transport& transport = mesh_.transport();

  Tensor x(0, 0);
  broadcast(transport, mesh_.everyone(), i, k, x, kTagBroadcast);
  const std::size_t n = x.rows();
  const std::size_t f = x.cols();
  // Sums this shard's partial with every other shard's (ring or star).
  const auto all_reduce = [&](Tensor partial, MessageTag tag) {
    if (k == 1) return partial;
    return star_allreduce_
               ? naive_all_reduce_sum(transport, mesh_.workers(), i,
                                      std::move(partial), tag)
               : ring_all_reduce_sum(transport, mesh_.workers(), i,
                                     std::move(partial), tag);
  };
  for (std::size_t l = 0; l < layers.size(); ++l) {
    // The whole per-layer body is one compute span; the two all-reduce comm
    // spans nest inside it (critical-path analysis subtracts nested comm
    // from compute, so nothing double-counts).
    obs::TraceSpan layer_span(tracer, "layer", "compute",
                              static_cast<obs::TrackId>(i));
    layer_span.device(static_cast<std::int64_t>(i))
        .layer(static_cast<std::int64_t>(l));
    const obs::ThreadLayerScope layer_scope(static_cast<std::int64_t>(l));
    const LayerConfig& cfg = layers[l].config();
    const LayerWeights& w = layers[l].weights();
    const MessageTag tag = kTagLayerBase + l * kTagLayerStride;

    // --- attention: own heads, matching W_O rows, partial sum ------
    Tensor partial(n, f);
    if (!heads.empty()) {
      std::vector<Tensor> outs;
      outs.reserve(heads.size());
      for (std::size_t h = heads.begin; h < heads.end; ++h) {
        outs.push_back(attention_head_full(x, w.attention.heads[h],
                                           cfg.head_dim, cfg.causal));
      }
      const Tensor wo_rows = w.attention.wo.slice_rows(
          heads.begin * cfg.head_dim, heads.end * cfg.head_dim);
      partial = matmul(concat_cols(outs), wo_rows);
    }
    Tensor attn = all_reduce(std::move(partial), tag);
    // Replicated position-wise tail of the attention block.
    add_bias_inplace(attn, w.attention.bo);
    add_inplace(attn, x);
    const Tensor y =
        layernorm_rows(attn, w.ln_attention.gamma, w.ln_attention.beta);

    // --- FFN: column shard of W1, row shard of W2, partial sum -----
    Tensor ffn_partial(n, f);
    if (!ffn_cols.empty()) {
      Tensor hidden =
          matmul(y, w.ffn.w1.slice_cols(ffn_cols.begin, ffn_cols.end));
      add_bias_inplace(hidden,
                       w.ffn.b1.slice_cols(ffn_cols.begin, ffn_cols.end));
      hidden =
          cfg.activation == Activation::kGelu ? gelu(hidden) : relu(hidden);
      ffn_partial =
          matmul(hidden, w.ffn.w2.slice_rows(ffn_cols.begin, ffn_cols.end));
    }
    Tensor ffn = all_reduce(std::move(ffn_partial), tag + kTagLayerStride / 2);
    add_bias_inplace(ffn, w.ffn.b2);
    add_inplace(ffn, y);
    x = layernorm_rows(ffn, w.ln_ffn.gamma, w.ln_ffn.beta);
  }
  // Everyone holds the full output; the first worker reports it.
  if (i == 0) {
    Payload payload = to_bytes(x);
    obs::TraceSpan span(tracer, "send_final", "comm",
                        static_cast<obs::TrackId>(i));
    span.device(static_cast<std::int64_t>(i))
        .bytes(static_cast<std::int64_t>(payload.size()));
    transport.send(Message{.source = i,
                           .destination = terminal_id(),
                           .tag = kTagFinal,
                           .payload = std::move(payload)});
  }
}

Tensor TensorParallelRuntime::run(Tensor features) {
  const std::size_t k = devices_;
  const DeviceId terminal = terminal_id();
  Tensor hidden(0, 0);
  mesh_.call([&] {
    broadcast(mesh_.transport(), mesh_.everyone(), k, k, features,
              kTagBroadcast);
    // One shard per core is the parallelism here; each shard's kernels
    // stay single-threaded (the mesh's default budget) so K shards don't
    // oversubscribe the host.
    mesh_.post([this](std::size_t i) { device_forward(i); });
    obs::TraceSpan span(mesh_.tracer(), "collect_final", "comm",
                        static_cast<obs::TrackId>(terminal));
    span.device(static_cast<std::int64_t>(terminal));
    hidden = tensor_from_payload(
        mesh_.transport().recv(terminal, 0, kTagFinal).payload);
  });
  mesh_.wait();
  return model_.postprocess(hidden);
}

}  // namespace voltage
