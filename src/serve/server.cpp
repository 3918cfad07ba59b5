#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/thread_pool.h"
#include "tensor/ops.h"

namespace voltage {

namespace {

constexpr Seconds to_seconds(obs::Micros us) {
  return static_cast<Seconds>(us) / 1e6;
}

LatencyStats latency(const obs::HistogramSnapshot& snapshot) {
  return LatencyStats{.mean = snapshot.mean,
                      .p50 = snapshot.p50,
                      .p95 = snapshot.p95,
                      .p99 = snapshot.p99,
                      .max = snapshot.max};
}

}  // namespace

InferenceServer::InferenceServer(const TransformerModel& model,
                                 Options options)
    : model_(model),
      options_(std::move(options)),
      tracer_(options_.tracer),
      metrics_(options_.metrics),
      telemetry_(options_.telemetry),
      flight_recorder_(options_.flight_recorder) {
  build_mesh();
  if (tracer_ != nullptr) {
    tracer_->set_track_name(obs::kServeTrack, "server");
  }
  if (telemetry_ != nullptr) {
    telemetry_->register_rate("tokens", [this] {
      return static_cast<double>(
          tokens_generated_.load(std::memory_order_relaxed));
    });
    telemetry_->register_rate("requests", [this] {
      return static_cast<double>(
          requests_completed_.load(std::memory_order_relaxed));
    });
    if (metrics_ != nullptr) {
      // Wire volume comes from the metrics counter rather than the live
      // transport: the dispatcher swaps meshes after poisoning, and the
      // counter survives (and sums across) those swaps.
      obs::MetricsRegistry* const metrics = metrics_;
      telemetry_->register_rate("wire_bytes", [metrics] {
        return static_cast<double>(
            metrics->counter("transport.bytes_sent").value());
      });
    }
    telemetry_->register_gauge("server.queue_depth", [this] {
      return static_cast<double>(queue_depth());
    });
    telemetry_->register_gauge("server.batch_occupancy", [this] {
      return static_cast<double>(batch_occupancy());
    });
    telemetry_->register_gauge("server.spec_accept_rate", [this] {
      const double accepted = static_cast<double>(
          spec_accepted_.load(std::memory_order_relaxed));
      const double rejected = static_cast<double>(
          spec_rejected_.load(std::memory_order_relaxed));
      const double drafted = accepted + rejected;
      return drafted > 0.0 ? accepted / drafted : 0.0;
    });
    telemetry_thread_ = std::thread([this] { telemetry_loop(); });
  }
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

void InferenceServer::build_mesh() {
  // The old decoder drains the old mesh before anything on it dies.
  decoder_.reset();
  runtime_.reset();
  mesh_.reset();
  const std::size_t devices = options_.scheme.devices();
  mesh_ = std::make_shared<DeviceMesh>(
      options_.transport_factory
          ? options_.transport_factory(devices + 1)
          : make_transport(options_.transport, devices + 1),
      devices);
  std::size_t per_device = options_.device_intra_op_threads;
  if (per_device == 0) {
    per_device = std::max<std::size_t>(1, intra_op_threads() / (devices + 1));
  }
  mesh_->set_intra_op_threads(per_device);
  mesh_->set_telemetry(options_.telemetry);
  mesh_->set_tracer(options_.tracer);
  mesh_->transport().set_flight_recorder(options_.flight_recorder);
  runtime_ = std::make_unique<VoltageRuntime>(
      model_, LayerSchedule::uniform(options_.scheme, model_.spec().num_layers),
      options_.policy, mesh_);
  runtime_->set_precision(options_.precision);
  runtime_->set_recv_timeout(options_.request_deadline);
  if (options_.metrics != nullptr) runtime_->set_metrics(options_.metrics);
  if (model_.spec().kind != ModelKind::kCausalLm) return;
  decoder_ = std::make_unique<DistributedDecoder>(model_, options_.scheme,
                                                  options_.policy, mesh_);
  decoder_->set_precision(options_.precision);
  decoder_->set_recv_timeout(options_.request_deadline);
  decoder_->set_kv_block_limit(options_.kv_block_limit);
  if (options_.metrics != nullptr) decoder_->set_metrics(options_.metrics);
}

void InferenceServer::recover(std::vector<ActiveRequest>& batch,
                              const std::exception_ptr& error) {
  // A poisoned transport never recovers (that is what makes poisoning a
  // sound unblocking primitive), and every in-flight generation's KV state
  // lived on the mesh: fail them with the root cause and swap in a fresh
  // mesh rather than failing every later request with the stale close
  // reason.
  if (!mesh_->transport().closed()) return;
  for (ActiveRequest& active : batch) fail_generate(active, error);
  batch.clear();
  build_mesh();
  {
    const std::lock_guard lock(mutex_);
    runtime_rebuilds_ += 1;
  }
  if (metrics_ != nullptr) {
    metrics_->counter("server.runtime_rebuilds").add(1);
  }
}

InferenceServer::~InferenceServer() {
  {
    const std::lock_guard lock(mutex_);
    accepting_ = false;
    stopping_ = true;
  }
  wake_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  {
    const std::lock_guard lock(telemetry_mutex_);
    telemetry_stop_ = true;
  }
  telemetry_wake_.notify_all();
  if (telemetry_thread_.joinable()) telemetry_thread_.join();
  if (telemetry_ != nullptr) {
    // The registered callables capture this server; the hub may outlive it
    // and be sampled again.
    telemetry_->unregister("tokens");
    telemetry_->unregister("requests");
    telemetry_->unregister("wire_bytes");
    telemetry_->unregister("server.queue_depth");
    telemetry_->unregister("server.batch_occupancy");
    telemetry_->unregister("server.spec_accept_rate");
  }
}

void InferenceServer::enqueue(Job job) {
  {
    const std::lock_guard lock(mutex_);
    if (!accepting_) {
      throw std::runtime_error("InferenceServer: shut down");
    }
    job.id = next_request_id_++;
    queue_.push_back(std::move(job));
  }
  wake_.notify_one();
}

std::future<Tensor> InferenceServer::submit(std::vector<TokenId> tokens) {
  Job job{.input = std::move(tokens),
          .result = {},
          .generated = {},
          .id = 0,
          .arrival_us = obs::now_us()};
  std::future<Tensor> future = job.result.get_future();
  enqueue(std::move(job));
  return future;
}

std::future<Tensor> InferenceServer::submit(Image image) {
  Job job{.input = std::move(image),
          .result = {},
          .generated = {},
          .id = 0,
          .arrival_us = obs::now_us()};
  std::future<Tensor> future = job.result.get_future();
  enqueue(std::move(job));
  return future;
}

std::future<std::vector<TokenId>> InferenceServer::submit_generate(
    std::vector<TokenId> prompt, std::size_t new_tokens) {
  if (model_.spec().kind != ModelKind::kCausalLm) {
    throw std::invalid_argument("InferenceServer: generation needs a causal LM");
  }
  Job job{.input = GenerateRequest{.prompt = std::move(prompt),
                                   .new_tokens = new_tokens},
          .result = {},
          .generated = {},
          .id = 0,
          .arrival_us = obs::now_us()};
  std::future<std::vector<TokenId>> future = job.generated.get_future();
  enqueue(std::move(job));
  return future;
}

void InferenceServer::shutdown() {
  {
    const std::lock_guard lock(mutex_);
    accepting_ = false;
  }
  wake_.notify_all();
}

// ---------------------------------------------------------------------------
// The continuous-batching scheduler.
//
// Each iteration: (1) drain the queue — logits/image jobs pop
// unconditionally, generations admit while the batch has room (FIFO among
// themselves); (2) serve the inline jobs; (3) prefill admitted generations
// into decoder slots; (4) preempt anything past its deadline; (5) advance
// the whole batch by one token with a single step_batch call; (6) retire
// completed sequences and free their slots. The dispatcher sleeps only when
// the batch is empty and no work is queued, so requests join and leave at
// token granularity.

void InferenceServer::dispatch_loop() {
  // The dispatcher is the terminal device of the mesh it drives: publish
  // the tracer so transport sends from this thread emit flow events even
  // outside the runtime's and the decoder's own scopes.
  const obs::ThreadTracerScope tracer_scope(tracer_);
  const obs::ThreadTrackScope track_scope(obs::kServeTrack);
  std::vector<ActiveRequest> batch;
  for (;;) {
    std::vector<Job> inline_jobs;
    std::vector<Job> admissions;
    {
      std::unique_lock lock(mutex_);
      if (batch.empty()) {
        wake_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      }
      if (queue_.empty() && batch.empty()) {
        if (stopping_) return;
        continue;
      }
      const std::size_t cap = std::max<std::size_t>(1, options_.max_batch);
      std::deque<Job> waiting;  // generations the batch has no room for
      while (!queue_.empty()) {
        Job job = std::move(queue_.front());
        queue_.pop_front();
        if (std::holds_alternative<GenerateRequest>(job.input)) {
          if (batch.size() + admissions.size() < cap) {
            admissions.push_back(std::move(job));
          } else {
            waiting.push_back(std::move(job));
          }
        } else {
          inline_jobs.push_back(std::move(job));
        }
      }
      queue_ = std::move(waiting);
    }
    if (flight_recorder_ != nullptr) {
      // Per-iteration ring: a poisoning dump shows the wire history of the
      // current batch iteration, not the whole server lifetime.
      flight_recorder_->clear();
    }
    // Short inline requests are served between decode iterations — they
    // never wait for the batch to drain.
    for (Job& job : inline_jobs) serve_inline(std::move(job), batch);
    for (Job& job : admissions) admit_generate(std::move(job), batch);

    // Deadline preemption before spending a step on a doomed request: the
    // preempted future fails, its KV blocks free, batch-mates are untouched.
    const obs::Micros now = obs::now_us();
    std::vector<SlotId> expired;
    for (auto it = batch.begin(); it != batch.end();) {
      if (it->deadline_us != 0 && now >= it->deadline_us) {
        {
          const std::lock_guard lock(mutex_);
          preempted_ += 1;
        }
        fail_generate(*it, std::make_exception_ptr(RecvTimeoutError(
                               "InferenceServer: request deadline exceeded "
                               "while decoding")));
        expired.push_back(it->slot);
        it = batch.erase(it);
      } else {
        ++it;
      }
    }
    release(expired, batch);
    if (!batch.empty()) {
      if (metrics_ != nullptr) {
        metrics_->histogram("server.batch_occupancy")
            .record(static_cast<double>(batch.size()));
      }
      {
        const std::lock_guard lock(mutex_);
        batch_peak_ = std::max(batch_peak_, batch.size());
      }
    }
    if (!batch.empty() && !options_.drafter_factory) {
      std::vector<SlotToken> lanes;
      lanes.reserve(batch.size());
      for (const ActiveRequest& active : batch) {
        lanes.push_back(SlotToken{.slot = active.slot, .token = active.next});
      }
      Tensor logits(0, 0);
      try {
        logits = decoder_->step_batch(
            std::span<const SlotToken>(lanes.data(), lanes.size()));
      } catch (...) {
        fail_batch(batch, std::current_exception());
      }
      for (std::size_t r = 0; r < batch.size(); ++r) {
        ActiveRequest& active = batch[r];
        active.next = static_cast<TokenId>(argmax_row(logits, r));
        active.generated.push_back(active.next);
        tokens_generated_.fetch_add(1, std::memory_order_relaxed);
      }
      retire(batch);
    } else if (!batch.empty()) {
      // Speculative iteration: each lane drafts a window sized by its
      // controller (never past its remaining token budget) and the whole
      // batch verifies in one step_speculative round. A lane whose drafter
      // stays silent rides along as a plain single-token step.
      std::vector<std::vector<TokenId>> drafts;
      drafts.reserve(batch.size());
      std::vector<SlotWindow> lanes;
      lanes.reserve(batch.size());
      for (ActiveRequest& active : batch) {
        const std::size_t remaining = active.target - active.generated.size();
        const std::size_t want =
            std::min(active.spec.window(), remaining - 1);
        std::vector<TokenId> guess;
        if (want > 0 && active.drafter != nullptr) {
          guess = active.drafter->draft(want);
          if (guess.size() > want) guess.resize(want);
        }
        drafts.push_back(std::move(guess));
        lanes.push_back(SlotWindow{
            .slot = active.slot,
            .token = active.next,
            .drafts = std::span<const TokenId>(drafts.back().data(),
                                               drafts.back().size())});
      }
      std::vector<LaneCommit> commits;
      try {
        commits = decoder_->step_speculative(
            std::span<const SlotWindow>(lanes.data(), lanes.size()));
      } catch (...) {
        fail_batch(batch, std::current_exception());
      }
      for (std::size_t r = 0; r < batch.size(); ++r) {
        ActiveRequest& active = batch[r];
        const LaneCommit& commit = commits[r];
        active.generated.insert(active.generated.end(), commit.tokens.begin(),
                                commit.tokens.end());
        active.next = commit.tokens.back();
        tokens_generated_.fetch_add(commit.tokens.size(),
                                    std::memory_order_relaxed);
        const std::size_t rejected = commit.drafted - commit.accepted;
        spec_accepted_.fetch_add(commit.accepted, std::memory_order_relaxed);
        spec_rejected_.fetch_add(rejected, std::memory_order_relaxed);
        if (metrics_ != nullptr && commit.drafted > 0) {
          metrics_->counter("server.spec_accepted").add(commit.accepted);
          metrics_->counter("server.spec_rejected").add(rejected);
        }
        if (active.drafter != nullptr) {
          active.drafter->observe(std::span<const TokenId>(
              commit.tokens.data(), commit.tokens.size()));
        }
        active.spec.update(commit.accepted, commit.drafted);
      }
      retire(batch);
    }
    batch_size_.store(batch.size(), std::memory_order_relaxed);
  }
}

void InferenceServer::serve_inline(Job job,
                                   std::vector<ActiveRequest>& batch) {
  // One causal trace id per request: every span and message of the whole
  // service — all K devices — shares it.
  const obs::TraceIdScope request_trace(obs::next_trace_id());
  const obs::Micros dispatched_us = obs::now_us();
  const obs::Micros wait_us = dispatched_us - job.arrival_us;
  if (tracer_ != nullptr) {
    // Retroactive span: the wait started at submit time on this track.
    tracer_->record(
        obs::TraceEvent{.name = "queue_wait",
                        .category = "serve",
                        .track = obs::kServeTrack,
                        .start_us = job.arrival_us,
                        .duration_us = wait_us,
                        .request = static_cast<std::int64_t>(job.id),
                        .trace = static_cast<std::int64_t>(
                            obs::thread_trace_id()),
                        .tag = {}});
  }
  try {
    Tensor logits(0, 0);
    {
      obs::TraceSpan span(tracer_, "service", "serve", obs::kServeTrack);
      span.request(static_cast<std::int64_t>(job.id));
      logits = std::visit(
          [this](const auto& input) {
            if constexpr (std::is_same_v<std::decay_t<decltype(input)>,
                                         Image>) {
              return runtime_->infer(input);
            } else if constexpr (std::is_same_v<std::decay_t<decltype(input)>,
                                                std::vector<TokenId>>) {
              return runtime_->infer(
                  std::span<const TokenId>(input.data(), input.size()));
            } else {
              return Tensor(0, 0);  // unreachable: generates never come here
            }
          },
          job.input);
    }
    const obs::Micros done_us = obs::now_us();
    record_completion(to_seconds(wait_us), to_seconds(done_us - dispatched_us),
                      to_seconds(done_us - job.arrival_us));
    job.result.set_value(std::move(logits));
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    {
      const std::lock_guard lock(mutex_);
      failed_ += 1;
    }
    if (metrics_ != nullptr) {
      metrics_->counter("server.requests_failed").add(1);
    }
    job.result.set_exception(error);
    // Input errors throw before the mesh is touched; a failure that
    // poisoned it takes the running batch with it.
    recover(batch, error);
  }
}

void InferenceServer::admit_generate(Job job,
                                     std::vector<ActiveRequest>& batch) {
  const obs::Micros admitted_us = obs::now_us();
  const obs::Micros wait_us = admitted_us - job.arrival_us;
  if (tracer_ != nullptr) {
    tracer_->record(
        obs::TraceEvent{.name = "queue_wait",
                        .category = "serve",
                        .track = obs::kServeTrack,
                        .start_us = job.arrival_us,
                        .duration_us = wait_us,
                        .request = static_cast<std::int64_t>(job.id),
                        .trace = static_cast<std::int64_t>(
                            obs::thread_trace_id()),
                        .tag = {}});
  }
  ActiveRequest active;
  active.target = std::get<GenerateRequest>(job.input).new_tokens;
  active.admitted_us = admitted_us;
  active.deadline_us =
      options_.request_deadline > 0.0
          ? job.arrival_us +
                static_cast<obs::Micros>(options_.request_deadline * 1e6)
          : 0;
  active.job = std::move(job);
  if (active.deadline_us != 0 && admitted_us >= active.deadline_us) {
    // Expired while queued: fail without spending a prefill on it.
    {
      const std::lock_guard lock(mutex_);
      preempted_ += 1;
    }
    fail_generate(active,
                  std::make_exception_ptr(RecvTimeoutError(
                      "InferenceServer: request deadline exceeded in queue")));
    return;
  }
  try {
    const GenerateRequest& req = std::get<GenerateRequest>(active.job.input);
    // The prefill runs under the request's own trace id; batched decode
    // steps serve several requests at once and carry their own per-step id.
    const obs::TraceIdScope request_trace(obs::next_trace_id());
    DistributedDecoder::PrimedSlot primed = decoder_->prime_slot(
        std::span<const TokenId>(req.prompt.data(), req.prompt.size()));
    active.slot = primed.slot;
    if (active.target > 0) {
      active.next = static_cast<TokenId>(argmax_row(primed.logits, 0));
      active.generated.push_back(active.next);
      active.first_token_us = obs::now_us();
      tokens_generated_.fetch_add(1, std::memory_order_relaxed);
    }
    if (active.generated.size() >= active.target) {
      complete_generate(active);
      release(std::span<const SlotId>(&active.slot, 1), batch);
      return;
    }
    if (options_.drafter_factory) {
      active.drafter = options_.drafter_factory();
      active.spec = SpeculationController(options_.max_draft_tokens);
      active.drafter->begin(
          std::span<const TokenId>(req.prompt.data(), req.prompt.size()));
      active.drafter->observe(std::span<const TokenId>(&active.next, 1));
    }
    batch.push_back(std::move(active));
  } catch (...) {
    // Pre-mesh validation errors (bad token, prompt exceeds the window)
    // leave the decoder and its other slots fully serviceable; only a
    // poisoned mesh means the in-flight batch died with this prefill.
    const std::exception_ptr error = std::current_exception();
    fail_generate(active, error);
    recover(batch, error);
  }
}

void InferenceServer::record_completion(Seconds wait, Seconds service,
                                        Seconds sojourn) {
  waits_.record(wait);
  services_.record(service);
  sojourns_.record(sojourn);
  if (metrics_ != nullptr) {
    metrics_->counter("server.requests_completed").add(1);
    metrics_->histogram("server.queue_wait_seconds").record(wait);
    metrics_->histogram("server.service_seconds").record(service);
    metrics_->histogram("server.sojourn_seconds").record(sojourn);
  }
  requests_completed_.fetch_add(1, std::memory_order_relaxed);
}

void InferenceServer::complete_generate(ActiveRequest& active) {
  const obs::Micros done_us = obs::now_us();
  record_completion(to_seconds(active.admitted_us - active.job.arrival_us),
                    to_seconds(done_us - active.admitted_us),
                    to_seconds(done_us - active.job.arrival_us));
  if (active.first_token_us != 0) {
    const Seconds ttft =
        to_seconds(active.first_token_us - active.job.arrival_us);
    ttfts_.record(ttft);
    if (metrics_ != nullptr) {
      metrics_->histogram("server.ttft_seconds").record(ttft);
    }
  }
  if (active.generated.size() > 1) {
    // Decode-phase inter-token gap: first token lands with the prefill, the
    // remaining n-1 ride batched steps.
    token_gaps_.record(to_seconds(done_us - active.first_token_us) /
                       static_cast<double>(active.generated.size() - 1));
  }
  if (tracer_ != nullptr) {
    // Retroactive service span: the request was in service from admission
    // to completion, interleaved with its batch-mates.
    tracer_->record(
        obs::TraceEvent{.name = "service",
                        .category = "serve",
                        .track = obs::kServeTrack,
                        .start_us = active.admitted_us,
                        .duration_us = done_us - active.admitted_us,
                        .request = static_cast<std::int64_t>(active.job.id),
                        .trace = static_cast<std::int64_t>(
                            obs::thread_trace_id()),
                        .tag = {}});
  }
  active.job.generated.set_value(std::move(active.generated));
}

void InferenceServer::fail_generate(ActiveRequest& active,
                                    const std::exception_ptr& error) {
  {
    const std::lock_guard lock(mutex_);
    failed_ += 1;
  }
  if (metrics_ != nullptr) {
    metrics_->counter("server.requests_failed").add(1);
  }
  active.job.generated.set_exception(error);
}

void InferenceServer::retire(std::vector<ActiveRequest>& batch) {
  std::vector<ActiveRequest> still;
  still.reserve(batch.size());
  std::vector<SlotId> done;
  for (ActiveRequest& active : batch) {
    if (active.generated.size() >= active.target) {
      complete_generate(active);
      done.push_back(active.slot);
    } else {
      still.push_back(std::move(active));
    }
  }
  batch = std::move(still);
  release(done, batch);
}

void InferenceServer::fail_batch(std::vector<ActiveRequest>& batch,
                                 const std::exception_ptr& error) {
  // A round that poisoned the mesh took every lane's KV state with it
  // (recover); one that failed validation left the mesh serviceable, so
  // the failed lanes free their slots.
  recover(batch, error);
  std::vector<SlotId> slots;
  for (ActiveRequest& active : batch) {
    fail_generate(active, error);
    slots.push_back(active.slot);
  }
  batch.clear();
  release(slots, batch);
}

void InferenceServer::release(std::span<const SlotId> slots,
                              std::vector<ActiveRequest>& batch) {
  // The requests themselves are settled; a release the mesh dies under
  // fails the rest of the batch.
  try {
    for (const SlotId slot : slots) decoder_->release_slot(slot);
  } catch (...) {
    recover(batch, std::current_exception());
  }
}

void InferenceServer::export_telemetry() {
  const obs::TelemetryHub::Snapshot snapshot = telemetry_->sample();
  if (!options_.telemetry_jsonl_path.empty()) {
    std::ofstream out(options_.telemetry_jsonl_path, std::ios::app);
    if (out) obs::TelemetryHub::write_jsonl(snapshot, out);
  }
  if (!options_.telemetry_prometheus_path.empty()) {
    // Overwrite-in-place, textfile-collector style: the file always holds
    // exactly one (the latest) exposition.
    std::ofstream out(options_.telemetry_prometheus_path, std::ios::trunc);
    if (out) obs::TelemetryHub::write_prometheus(snapshot, out);
  }
}

void InferenceServer::telemetry_loop() {
  const auto period = std::chrono::duration<double>(
      std::max(0.01, options_.telemetry_period));
  std::unique_lock lock(telemetry_mutex_);
  for (;;) {
    if (telemetry_wake_.wait_for(lock, period,
                                 [this] { return telemetry_stop_; })) {
      break;
    }
    lock.unlock();
    export_telemetry();
    lock.lock();
  }
  // Final sample on shutdown: short-lived servers (tests, examples) still
  // get a closing snapshot even if they never lived a full period.
  lock.unlock();
  export_telemetry();
}

ServerStats InferenceServer::stats() const {
  ServerStats stats;
  {
    const std::lock_guard lock(mutex_);
    stats.failed = failed_;
    stats.preempted = preempted_;
    stats.runtime_rebuilds = runtime_rebuilds_;
    stats.batch_peak = batch_peak_;
  }
  stats.spec_accepted = static_cast<std::size_t>(
      spec_accepted_.load(std::memory_order_relaxed));
  stats.spec_rejected = static_cast<std::size_t>(
      spec_rejected_.load(std::memory_order_relaxed));
  const obs::HistogramSnapshot total = sojourns_.snapshot();
  stats.completed = total.count;
  stats.mean = total.mean;
  stats.p50 = total.p50;
  stats.p95 = total.p95;
  stats.max = total.max;
  stats.queue_wait = latency(waits_.snapshot());
  stats.service = latency(services_.snapshot());
  stats.ttft = latency(ttfts_.snapshot());
  stats.per_token = latency(token_gaps_.snapshot());
  return stats;
}

std::size_t InferenceServer::queue_depth() const {
  const std::lock_guard lock(mutex_);
  return queue_.size();
}

}  // namespace voltage
