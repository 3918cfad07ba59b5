// Real (threaded) pipeline-parallel inference — the PipeEdge-style baseline
// the paper discusses in §V-C, executed over the transport rather than just
// modeled.
//
// Layers are split into K contiguous stages, one mesh device per stage;
// activations flow stage to stage tagged by request index, so a stream of
// requests overlaps naturally: stage 0 works on request r+1 while stage 1
// handles request r. A single request still traverses every layer
// sequentially — which is exactly why this baseline cannot beat
// single-device latency at batch size 1.
#pragma once

#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "net/transport.h"
#include "obs/trace.h"
#include "partition/range.h"
#include "runtime/mesh.h"
#include "transformer/model.h"

namespace voltage {

// One inference request: token ids or an image.
using InferenceInput = std::variant<std::vector<TokenId>, Image>;

class PipelineRuntime {
 public:
  // Requires 1 <= devices <= model layers.
  PipelineRuntime(const TransformerModel& model, std::size_t devices,
                  TransportKind transport = TransportKind::kInMemory);

  // Bring-your-own transport (e.g. a ChaosTransport for fault-injection
  // tests). Must have devices() == devices + 1 (the terminal).
  PipelineRuntime(const TransformerModel& model, std::size_t devices,
                  std::unique_ptr<Transport> transport);

  // Runs a stream of requests through the pipeline; returns the logits in
  // request order. Requests overlap across stages.
  [[nodiscard]] std::vector<Tensor> infer_batch(
      std::span<const InferenceInput> requests);

  // Convenience single-request forms.
  [[nodiscard]] Tensor infer(std::span<const TokenId> tokens);
  [[nodiscard]] Tensor infer(const Image& image);

  [[nodiscard]] const Transport& fabric() const noexcept {
    return mesh_.transport();
  }
  // Layer range owned by `stage` (exposed for tests).
  [[nodiscard]] Range stage_layers(std::size_t stage) const;

  // Attaches a span tracer (nullptr detaches). Each stage emits one
  // "stage" compute span per request plus activation send/recv comm spans;
  // every request carries its own trace id end to end, so overlapping
  // requests render as distinct causal chains through the pipeline.
  void set_tracer(obs::Tracer* tracer) { mesh_.set_tracer(tracer, "stage"); }

  // Attaches transport.* counters (see Transport::set_metrics).
  void set_metrics(obs::MetricsRegistry* metrics) {
    mesh_.transport().set_metrics(metrics);
  }

 private:
  void run_stage(std::size_t stage, std::size_t requests);

  const TransformerModel& model_;
  std::size_t devices_;
  DeviceMesh mesh_;
};

}  // namespace voltage
