#include "runtime/pipeline_runtime.h"

#include <stdexcept>

#include "tensor/serialize.h"

namespace voltage {

namespace {

constexpr MessageTag kTagRequestBase = 1;

}  // namespace

PipelineRuntime::PipelineRuntime(const TransformerModel& model,
                                 std::size_t devices, TransportKind transport)
    : PipelineRuntime(
          model, devices,
          make_transport(transport, devices == 0 ? 1 : devices + 1)) {}

PipelineRuntime::PipelineRuntime(const TransformerModel& model,
                                 std::size_t devices,
                                 std::unique_ptr<Transport> transport)
    : model_(model),
      devices_(devices),
      mesh_(std::move(transport), devices) {
  if (devices == 0) {
    throw std::invalid_argument("PipelineRuntime: zero devices");
  }
  if (devices > model.spec().num_layers) {
    throw std::invalid_argument(
        "PipelineRuntime: more stages than transformer layers");
  }
}

Range PipelineRuntime::stage_layers(std::size_t stage) const {
  const std::size_t layers = model_.spec().num_layers;
  return Range{.begin = layers * stage / devices_,
               .end = layers * (stage + 1) / devices_};
}

void PipelineRuntime::run_stage(std::size_t stage, std::size_t requests) {
  obs::Tracer* const tracer = obs::thread_tracer();
  const auto layers = model_.layers();
  const Range mine = stage_layers(stage);
  const DeviceId terminal = devices_;
  const DeviceId upstream = stage == 0 ? terminal : stage - 1;
  const DeviceId downstream = stage + 1 == devices_ ? terminal : stage + 1;
  for (std::size_t r = 0; r < requests; ++r) {
    const MessageTag tag = kTagRequestBase + r;
    Tensor x(0, 0);
    {
      // Receiving adopts the request's trace id, so the stage span below
      // and the downstream send share it.
      obs::TraceSpan span(tracer, "recv_activation", "comm",
                          static_cast<obs::TrackId>(stage));
      span.device(static_cast<std::int64_t>(stage))
          .request(static_cast<std::int64_t>(r));
      x = tensor_from_payload(
          mesh_.transport().recv(stage, upstream, tag).payload);
    }
    {
      obs::TraceSpan span(tracer, "stage", "compute",
                          static_cast<obs::TrackId>(stage));
      span.device(static_cast<std::int64_t>(stage))
          .request(static_cast<std::int64_t>(r));
      for (std::size_t l = mine.begin; l < mine.end; ++l) {
        x = layers[l].forward(x);
      }
    }
    Payload payload = to_bytes(x);
    obs::TraceSpan span(tracer, "send_activation", "comm",
                        static_cast<obs::TrackId>(stage));
    span.device(static_cast<std::int64_t>(stage))
        .request(static_cast<std::int64_t>(r))
        .bytes(static_cast<std::int64_t>(payload.size()));
    mesh_.transport().send(Message{.source = stage,
                                   .destination = downstream,
                                   .tag = tag,
                                   .payload = std::move(payload)});
  }
}

std::vector<Tensor> PipelineRuntime::infer_batch(
    std::span<const InferenceInput> requests) {
  const std::size_t k = devices_;
  const DeviceId terminal = k;
  // Terminal: pre-process and inject every request, then collect results
  // in order. Injection does not wait for completions, so the stages fill.
  obs::Tracer* const tracer = mesh_.tracer();
  const obs::ThreadTracerScope tracer_scope(tracer);
  const obs::ThreadTrackScope track_scope(
      static_cast<obs::TrackId>(terminal));
  std::vector<Tensor> results(requests.size());
  try {
    for (std::size_t r = 0; r < requests.size(); ++r) {
      // One trace id per injected request (or the caller's ambient id for
      // all of them, e.g. under a server's per-request scope): the stages
      // adopt it from the activation they receive.
      const obs::TraceIdScope trace_scope(obs::ensure_trace_id());
      const Tensor features = std::visit(
          [&](const auto& input) {
            if constexpr (std::is_same_v<std::decay_t<decltype(input)>,
                                         Image>) {
              return model_.preprocess(input);
            } else {
              return model_.preprocess(
                  std::span<const TokenId>(input.data(), input.size()));
            }
          },
          requests[r]);
      Payload payload = to_bytes(features);
      obs::TraceSpan span(tracer, "send_activation", "comm",
                          static_cast<obs::TrackId>(terminal));
      span.device(static_cast<std::int64_t>(terminal))
          .request(static_cast<std::int64_t>(r))
          .bytes(static_cast<std::int64_t>(payload.size()));
      mesh_.transport().send(Message{.source = terminal,
                                     .destination = 0,
                                     .tag = kTagRequestBase + r,
                                     .payload = std::move(payload)});
      if (r == 0) {
        // Stages are the parallelism; each stage's kernels stay
        // single-threaded (the mesh's default budget) so K stages don't
        // oversubscribe the host.
        mesh_.post([this, n = requests.size()](std::size_t stage) {
          run_stage(stage, n);
        });
      }
    }
    for (std::size_t r = 0; r < requests.size(); ++r) {
      Tensor hidden(0, 0);
      {
        obs::TraceSpan span(tracer, "collect_final", "comm",
                            static_cast<obs::TrackId>(terminal));
        span.device(static_cast<std::int64_t>(terminal))
            .request(static_cast<std::int64_t>(r));
        hidden = tensor_from_payload(
            mesh_.transport().recv(terminal, k - 1, kTagRequestBase + r)
                .payload);
      }
      results[r] = model_.postprocess(hidden);
    }
  } catch (...) {
    mesh_.fail(std::current_exception());
  }
  mesh_.wait();
  return results;
}

Tensor PipelineRuntime::infer(std::span<const TokenId> tokens) {
  const InferenceInput request =
      std::vector<TokenId>(tokens.begin(), tokens.end());
  return infer_batch(std::span<const InferenceInput>(&request, 1)).front();
}

Tensor PipelineRuntime::infer(const Image& image) {
  const InferenceInput request = image;
  return infer_batch(std::span<const InferenceInput>(&request, 1)).front();
}

}  // namespace voltage
