// InferenceServer: the deployment wrapper for the paper's serving regime —
// sporadic requests over one shared device cluster.
//
// Requests (token sequences, images, or greedy-generation jobs) enter a FIFO
// queue from any thread and resolve through std::future. A dispatcher thread
// drives one DeviceMesh — the cluster's one transport and failure domain —
// with two protocols on it:
//   - logits/image requests run one at a time through a VoltageRuntime (the
//     whole cluster serves each request — that is the point of
//     latency-oriented distribution), between decode iterations;
//   - generation requests are served with iteration-level continuous
//     batching (Orca-style) on a DistributedDecoder: the dispatcher admits
//     queued generations into a running batch (up to `max_batch`), advances
//     every in-flight sequence each iteration — one token per
//     DistributedDecoder::step_batch call, or up to 1 + max_draft_tokens
//     when a drafter is configured and the speculative verify round
//     accepts — and requests join and leave that batch at token
//     granularity — a short completion never waits for a long batch-mate,
//     and a newly admitted prompt starts decoding on the next iteration.
//     Each sequence's KV state lives in per-device paged block pools and is
//     freed the moment the request completes (or is preempted past its
//     deadline).
//
// Queue-wait, service and total sojourn times are recorded per request, plus
// time-to-first-token and per-token decode latency for generations;
// attach an obs::Tracer to see each request's queue_wait and service spans
// (with request ids) on the serving track of the trace, next to the
// batch-size-annotated decode.step spans the decoder emits while serving it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "net/link.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "partition/order.h"
#include "partition/scheme.h"
#include "runtime/distributed_decoder.h"
#include "runtime/drafter.h"
#include "runtime/mesh.h"
#include "runtime/voltage_runtime.h"
#include "transformer/model.h"

namespace voltage {

struct LatencyStats {
  Seconds mean = 0.0;
  Seconds p50 = 0.0;
  Seconds p95 = 0.0;
  Seconds p99 = 0.0;
  Seconds max = 0.0;
};

struct ServerStats {
  std::size_t completed = 0;
  // Requests whose future carries an exception instead of a result
  // (inference failure, poisoned transport, deadline). Not included in the
  // latency percentiles below.
  std::size_t failed = 0;
  // Subset of `failed`: generation requests cut from the running batch
  // because their per-request deadline expired mid-decode.
  std::size_t preempted = 0;
  // Times the dispatcher rebuilt its mesh (and the runtime and decoder on
  // it) after a failure poisoned the mesh's transport.
  std::size_t runtime_rebuilds = 0;
  // Largest number of generation requests decoding in one batched step.
  std::size_t batch_peak = 0;
  // Speculative decoding (only moves when Options::drafter_factory is set):
  // draft tokens the verify rounds accepted vs rejected. The acceptance
  // rate accepted/(accepted+rejected) is also exported live as the
  // "server.spec_accept_rate" telemetry gauge.
  std::size_t spec_accepted = 0;
  std::size_t spec_rejected = 0;
  // Total sojourn = queue wait + service.
  Seconds mean = 0.0;
  Seconds p50 = 0.0;
  Seconds p95 = 0.0;
  Seconds max = 0.0;
  // The two components, recorded separately per request.
  LatencyStats queue_wait;
  LatencyStats service;
  // Generation requests only: arrival -> first generated token (prefill
  // plus any time queued or waiting on batch-mates), and the mean
  // inter-token gap of the decode phase per request.
  LatencyStats ttft;
  LatencyStats per_token;
};

class InferenceServer {
 public:
  struct Options {
    PartitionScheme scheme = PartitionScheme::even(1);
    OrderPolicy policy = OrderPolicy::kAdaptive;
    TransportKind transport = TransportKind::kInMemory;
    // Precision::kInt8 serves on the quantized plane: int8 layer kernels and
    // int8 + per-row-scale collective payloads in both the runtime and the
    // decoder (see VoltageRuntime::set_precision). Logits differ from fp32
    // within the quantization bound (DESIGN.md "Quantized path").
    Precision precision = Precision::kFp32;
    // Admission cap of the continuous-batching scheduler: at most this many
    // generation requests decode concurrently; further generations wait in
    // the queue (FIFO among themselves) until a running one completes or is
    // preempted. 1 serves generations one at a time.
    std::size_t max_batch = 8;
    // Intra-op thread budget per device thread. 0 (default) divides the
    // ambient budget (VOLTAGE_THREADS or the core count) evenly across the
    // devices, so a serving cluster uses the whole host; any other value is
    // forwarded to DeviceMesh::set_intra_op_threads verbatim. Results are
    // bitwise identical at every setting.
    std::size_t device_intra_op_threads = 0;
    // Per-request deadline in seconds (0 = none). Two roles: every blocking
    // receive of a request's inference shares one absolute deadline, so a
    // wedged device fails the request with RecvTimeoutError instead of
    // wedging the dispatcher forever; and the batch scheduler preempts any
    // generation still decoding `request_deadline` seconds after its
    // arrival — its future fails, its KV blocks free, and its batch-mates
    // continue unharmed.
    Seconds request_deadline = 0.0;
    // Caps each decoder device's KV block pool (see
    // DistributedDecoder::set_kv_block_limit); 0 = unbounded.
    std::size_t kv_block_limit = 0;
    // Speculative decoding: when set, each admitted generation gets its own
    // Drafter (e.g. [] { return std::make_unique<PromptLookupDrafter>(); })
    // and the scheduler verifies up to `max_draft_tokens` drafted tokens per
    // decode iteration through DistributedDecoder::step_speculative — same
    // message count per round as a plain step, up to 1 + max_draft_tokens
    // committed tokens. Output is bitwise identical to serving without a
    // drafter (greedy verification; see DESIGN.md "Speculative decoding").
    // A per-slot SpeculationController shrinks the window when drafts stop
    // landing. Unset (default) = plain single-token stepping.
    std::function<std::unique_ptr<Drafter>()> drafter_factory = {};
    std::size_t max_draft_tokens = 4;
    // Test hook: builds the mesh's transport (devices = K workers + the
    // terminal) instead of make_transport(transport, ...) — the way to
    // inject a ChaosTransport underneath requests and serving batches.
    // Called once per mesh build: at construction and at each rebuild
    // after a mesh failure.
    std::function<std::unique_ptr<Transport>(std::size_t devices)>
        transport_factory = {};
    // Optional observability sinks (all non-owning; nullptr = off).
    obs::Tracer* tracer = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    // Live telemetry plane (obs/telemetry.h). When `telemetry` is set the
    // server registers its serving rates (tokens/s, requests/s — and wire
    // bytes/s when `metrics` is also attached), the "server.queue_depth"
    // and "server.batch_occupancy" gauges and per-device utilization, and a
    // sampler thread exports a snapshot every `telemetry_period` seconds:
    // appended as JSONL to `telemetry_jsonl_path` and/or overwritten in the
    // Prometheus text format at `telemetry_prometheus_path` (empty path =
    // skip that sink; snapshots are still taken so tests can sample()
    // concurrently).
    obs::TelemetryHub* telemetry = nullptr;
    Seconds telemetry_period = 1.0;
    std::string telemetry_jsonl_path = {};
    std::string telemetry_prometheus_path = {};
    // Flight recorder: attached to the mesh's transport (its ring
    // auto-dumps when the transport is poisoned) and cleared at each
    // scheduler iteration, so a dump holds the wire history of the current
    // batch iteration.
    obs::FlightRecorder* flight_recorder = nullptr;
  };

  InferenceServer(const TransformerModel& model, Options options);
  // Drains outstanding requests, then stops.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Enqueue a request; the future resolves with the logits (or the
  // exception the inference raised). Throws std::runtime_error after
  // shutdown().
  [[nodiscard]] std::future<Tensor> submit(std::vector<TokenId> tokens);
  [[nodiscard]] std::future<Tensor> submit(Image image);

  // Enqueue a greedy-generation request (causal LMs only): the future
  // resolves with the `new_tokens` continuation tokens. Decoding runs
  // through a DistributedDecoder the dispatcher keeps across requests —
  // one distributed prefill per request, then O(T) cached steps batched
  // with the other in-flight generations (the result is bitwise identical
  // to serving alone; see DESIGN.md "Continuous batching"). A failure that
  // poisons the mesh, whichever request hit it, fails every generation
  // decoding at that moment; queued requests are served on a rebuilt mesh.
  [[nodiscard]] std::future<std::vector<TokenId>> submit_generate(
      std::vector<TokenId> prompt, std::size_t new_tokens);

  // Stops accepting new requests; queued ones still complete.
  void shutdown();

  // Latency statistics over completed requests.
  [[nodiscard]] ServerStats stats() const;

  [[nodiscard]] std::size_t queue_depth() const;

  // Generation requests currently decoding in the running batch.
  [[nodiscard]] std::size_t batch_occupancy() const noexcept {
    return batch_size_.load(std::memory_order_relaxed);
  }

  // The runtime currently serving logits requests (rebuilt with the mesh
  // after a failure — do not cache the reference across failures). Exposed
  // for configuration and fault-injection tests; touch it only while no
  // request is in flight.
  [[nodiscard]] VoltageRuntime& runtime() noexcept { return *runtime_; }

 private:
  struct GenerateRequest {
    std::vector<TokenId> prompt;
    std::size_t new_tokens = 0;
  };

  struct Job {
    std::variant<std::vector<TokenId>, Image, GenerateRequest> input;
    std::promise<Tensor> result;                   // logits requests
    std::promise<std::vector<TokenId>> generated;  // generation requests
    std::uint64_t id = 0;
    obs::Micros arrival_us = 0;
  };

  // One generation decoding in the running batch.
  struct ActiveRequest {
    Job job;
    std::size_t target = 0;  // new_tokens
    SlotId slot = 0;
    std::vector<TokenId> generated;
    TokenId next = 0;  // last generated token: the next step's input
    // Speculation state (null drafter when the server runs without one).
    std::unique_ptr<Drafter> drafter;
    SpeculationController spec;
    obs::Micros admitted_us = 0;
    obs::Micros first_token_us = 0;
    obs::Micros deadline_us = 0;  // absolute, 0 = none
  };

  void enqueue(Job job);
  void dispatch_loop();
  // `batch` is the running batch: a failure that poisons the mesh fails it.
  void serve_inline(Job job, std::vector<ActiveRequest>& batch);
  // Admission: prefill + first token. The request joins `batch` unless it
  // completed or failed at once.
  void admit_generate(Job job, std::vector<ActiveRequest>& batch);
  void record_completion(Seconds wait, Seconds service, Seconds sojourn);
  void complete_generate(ActiveRequest& active);
  void fail_generate(ActiveRequest& active, const std::exception_ptr& error);
  // Completes every lane of `batch` that reached its token target.
  void retire(std::vector<ActiveRequest>& batch);
  // A failed decode round: fails every lane of `batch`.
  void fail_batch(std::vector<ActiveRequest>& batch,
                  const std::exception_ptr& error);
  // Returns the KV blocks of requests that left `batch`.
  void release(std::span<const SlotId> slots,
               std::vector<ActiveRequest>& batch);
  // If `error` poisoned the mesh: fails every generation in `batch` with it
  // and rebuilds the mesh, the runtime and the decoder.
  void recover(std::vector<ActiveRequest>& batch,
               const std::exception_ptr& error);
  // (Re)builds the mesh on a fresh transport, with the runtime and (for a
  // causal LM) the decoder on it.
  void build_mesh();
  void telemetry_loop();
  void export_telemetry();

  const TransformerModel& model_;
  Options options_;  // construction parameters, kept for mesh rebuilds
  // One mesh shared by the runtime and the decoder; the decoder is null
  // unless the model is a causal LM. Dispatcher-thread only once it runs.
  std::shared_ptr<DeviceMesh> mesh_;
  std::unique_ptr<VoltageRuntime> runtime_;
  std::unique_ptr<DistributedDecoder> decoder_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TelemetryHub* telemetry_ = nullptr;
  obs::FlightRecorder* flight_recorder_ = nullptr;
  std::atomic<std::uint64_t> tokens_generated_{0};
  std::atomic<std::uint64_t> requests_completed_{0};
  std::atomic<std::size_t> batch_size_{0};
  std::atomic<std::uint64_t> spec_accepted_{0};
  std::atomic<std::uint64_t> spec_rejected_{0};

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Job> queue_;
  bool accepting_ = true;
  bool stopping_ = false;
  std::uint64_t next_request_id_ = 0;
  std::size_t failed_ = 0;
  std::size_t preempted_ = 0;
  std::size_t runtime_rebuilds_ = 0;
  std::size_t batch_peak_ = 0;
  obs::Histogram waits_;
  obs::Histogram services_;
  obs::Histogram sojourns_;
  obs::Histogram ttfts_;
  obs::Histogram token_gaps_;
  std::thread dispatcher_;

  // Telemetry sampler (only started when options.telemetry is set).
  std::mutex telemetry_mutex_;
  std::condition_variable telemetry_wake_;
  bool telemetry_stop_ = false;
  std::thread telemetry_thread_;
};

}  // namespace voltage
