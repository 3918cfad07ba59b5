// The three workloads. Each builds its state repeatedly (setup_s, see
// timed_setup), checks outputs and exact counts off the clock, then either
// measures for the configured seconds with tracing off (end-to-end
// metrics) or runs a shorter untraced and traced repetition (per-layer
// metrics).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <future>
#include <random>
#include <span>
#include <thread>

#include "bench.h"
#include "obs/metrics.h"
#include "partition/flop_model.h"
#include "partition/order.h"
#include "runtime/distributed_decoder.h"
#include "runtime/voltage_runtime.h"
#include "serve/server.h"
#include "tensor/flops.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "transformer/decoder.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace perfbench {

using namespace voltage;

namespace {

// Traced repetitions are shorter than timed runs: the critical-path pass
// scans every span of a track once per window.
constexpr double kTracedSeconds = 3.0;

// Tolerance of distributed vs single-device logits, as in runtime_test.
constexpr float kLogitsTolerance = 2e-3F;

[[nodiscard]] TokenId greedy(const Tensor& logits, std::size_t row = 0) {
  return static_cast<TokenId>(argmax_row(logits, row));
}

void add_overhead(Report& report, double untraced, double traced) {
  report.add("obs.trace_overhead_pct",
             untraced > 0.0 ? (traced - untraced) / untraced * 100.0 : 0.0,
             "%");
}

// Wire and work counters, read before and after a stretch of calls.
struct Counts {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t macs = 0;
  std::uint64_t elementwise = 0;

  [[nodiscard]] static Counts read(const TrafficStats& wire) {
    return Counts{.messages = wire.messages_sent,
                  .bytes = wire.bytes_sent,
                  .macs = flops::matmul_macs(),
                  .elementwise = flops::elementwise_ops()};
  }
  [[nodiscard]] Counts operator-(const Counts& o) const {
    return Counts{.messages = messages - o.messages,
                  .bytes = bytes - o.bytes,
                  .macs = macs - o.macs,
                  .elementwise = elementwise - o.elementwise};
  }
  Counts& operator+=(const Counts& o) {
    messages += o.messages;
    bytes += o.bytes;
    macs += o.macs;
    elementwise += o.elementwise;
    return *this;
  }
};

// Exact counts of `requests` whole requests (`per_request`) and of
// `tokens` tokens (`per_token`; for decoding, the steps alone).
void add_counts(Report& report, const Counts& per_request, double requests,
                const Counts& per_token, double tokens) {
  const auto per = [](std::uint64_t v, double n) {
    return n > 0.0 ? static_cast<double>(v) / n : 0.0;
  };
  report.add("net.messages_per_request", per(per_request.messages, requests),
             "count");
  report.add("net.bytes_per_request", per(per_request.bytes, requests), "B");
  report.add("tensor.macs_per_request", per(per_request.macs, requests),
             "MAC");
  report.add("net.messages_per_token", per(per_token.messages, tokens),
             "count");
  report.add("net.bytes_per_token", per(per_token.bytes, tokens), "B");
  report.add("tensor.macs_per_token", per(per_token.macs, tokens), "MAC");
  report.add("tensor.elementwise_per_token",
             per(per_token.elementwise, tokens), "op");
}

// Theorem-2 choices of one prefill of `n` tokens over the even K split:
// (layers x non-empty partitions) selections, of which `eq8` use Eq. (8).
struct OrderShare {
  std::size_t eq8 = 0;
  std::size_t total = 0;

  void add(const ModelSpec& spec, std::size_t n) {
    for (const Range& r : PartitionScheme::even(kDevices).ranges(n)) {
      if (r.empty()) continue;
      const AttentionDims dims{.n = n,
                               .p = r.size(),
                               .f = spec.layer.hidden,
                               .fh = spec.layer.head_dim};
      const bool reordered = select_order(OrderPolicy::kAdaptive, dims) ==
                             AttentionOrder::kReordered;
      eq8 += spec.num_layers * (reordered ? 1 : 0);
      total += spec.num_layers;
    }
  }
  [[nodiscard]] double share() const {
    return total > 0 ? static_cast<double>(eq8) / static_cast<double>(total)
                     : 0.0;
  }
};

// Closed loops run in blocks of kBlockSize operations that hold each of the
// workload's seven lengths once, in a seeded order, so every block carries
// the same work. Timings are taken over the quietest quarter of the blocks
// (see quietest_quarter): bursts of host steal that slow whole blocks stay
// out of the result, while a slowdown of some operations still shows in the
// pooled percentiles.
constexpr std::size_t kBlockSize = 7;

// Length of operation i of stream `stream`, dealt from `levels` in blocks.
std::size_t dealt(const std::array<std::size_t, kBlockSize>& levels,
                  std::uint64_t seed, std::uint64_t stream, std::size_t i) {
  std::array<std::size_t, kBlockSize> block = levels;
  std::mt19937_64 rng(mix(seed, (stream << 32) + i / kBlockSize));
  std::shuffle(block.begin(), block.end(), rng);
  return block[i % kBlockSize];
}

// The ceil(n/4) entries of `items` with the lowest `score`. Scored by a
// median, a group slowed as a whole ranks last, but one with a few slow
// operations keeps its rank, so those operations stay in the pooled tail.
template <class T, class Score>
std::vector<const T*> quietest_quarter(const std::vector<T>& items,
                                       Score score) {
  std::vector<const T*> ranked;
  for (const T& item : items) ranked.push_back(&item);
  std::stable_sort(
      ranked.begin(), ranked.end(),
      [&](const T* a, const T* b) { return score(*a) < score(*b); });
  ranked.resize((ranked.size() + 3) / 4);
  return ranked;
}

struct Block {
  Samples latency_ms;  // per operation
  Samples first_ms;    // per operation: time to its first output
  Samples token_ms;    // per token
  std::size_t tokens = 0;
  double wall_s = 0.0;
};

struct ClosedLoop {
  std::vector<Block> blocks;  // complete blocks only
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

// Runs whole blocks until `seconds` have passed. `op(i, block)` performs
// operation i and records it into `block`; the first failure ends the run
// (the mesh is poisoned) and drops its block.
template <class Op>
ClosedLoop run_blocks(double seconds, Op op) {
  ClosedLoop run;
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t b = 0; Clock::now() < stop; ++b) {
    Block block;
    const Clock::time_point start = Clock::now();
    for (std::size_t j = 0; j < kBlockSize; ++j) {
      run.attempted += 1;
      try {
        op(b * kBlockSize + j, block);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "operation %zu failed: %s\n",
                     b * kBlockSize + j, e.what());
        run.failed += 1;
        return run;
      }
    }
    block.wall_s = ms_between(start, Clock::now()) / 1e3;
    run.blocks.push_back(std::move(block));
  }
  return run;
}

// Median operation latency over every block of a run.
[[nodiscard]] double latency_p50(const ClosedLoop& run) {
  Samples all;
  for (const Block& b : run.blocks) all.append(b.latency_ms);
  return all.percentile(0.5);
}

// Every timing pools all operations of the quietest quarter of the blocks,
// ranked by the median of `Block::*score`; tokens_per_s is their tokens
// over their wall time.
void add_closed_loop_metrics(Report& report, const ClosedLoop& run,
                             Samples Block::*score) {
  report.check(!run.blocks.empty(), "no complete block was timed");
  if (run.blocks.empty()) return;
  const std::vector<const Block*> quiet =
      quietest_quarter(run.blocks, [score](const Block& b) {
        return (b.*score).percentile(0.5);
      });
  Block pooled;
  for (const Block* b : quiet) {
    pooled.latency_ms.append(b->latency_ms);
    pooled.first_ms.append(b->first_ms);
    pooled.token_ms.append(b->token_ms);
    pooled.tokens += b->tokens;
    pooled.wall_s += b->wall_s;
  }
  const auto add = [&](const char* name, const Samples& s, double q) {
    report.add(name, s.percentile(q), "ms", s.count());
  };
  add("latency_p50_ms", pooled.latency_ms, 0.50);
  add("latency_p95_ms", pooled.latency_ms, 0.95);
  add("ttft_p50_ms", pooled.first_ms, 0.50);
  add("ttft_p95_ms", pooled.first_ms, 0.95);
  add("tpot_p50_ms", pooled.token_ms, 0.50);
  add("tpot_p95_ms", pooled.token_ms, 0.95);
  report.add("tokens_per_s", static_cast<double>(pooled.tokens) / pooled.wall_s,
             "tok/s", pooled.tokens);
  std::printf("closed loop: %zu blocks of %zu operations, quietest %zu\n",
              run.blocks.size(), kBlockSize, quiet.size());
}

// ===========================================================================
// prefill_bert: closed loop, one client, VoltageRuntime::infer on
// distilbert at prompt lengths 64..256.
// ===========================================================================

constexpr std::array<std::size_t, kBlockSize> kPromptLengths{
    64, 96, 128, 160, 192, 224, 256};

std::vector<TokenId> prefill_prompt(std::uint64_t seed, std::size_t i,
                                    std::size_t vocab) {
  return random_tokens(dealt(kPromptLengths, seed, 1, i), vocab,
                       mix(seed, (std::uint64_t{2} << 32) + i));
}

struct PrefillState {
  TransformerModel model{make_model(distilbert_spec())};
  VoltageRuntime runtime{model, PartitionScheme::even(kDevices)};

  PrefillState() {
    (void)runtime.infer(random_tokens(64, model.spec().vocab_size, 7));
  }
};

// Algorithm 2's wire traffic for one request of n tokens: the terminal
// sends the N x F features to each of the K workers; each of the L-1
// non-final layers all-gathers (K-1)NF floats in K(K-1) messages, which is
// the paper's (K-1)NF/K per device; the last layer's partitions go to the
// terminal. Every message carries the wire frame and a tensor header.
Counts expected_prefill_wire(const ModelSpec& spec, std::size_t n) {
  const std::uint64_t k = kDevices;
  const std::uint64_t layers = spec.num_layers;
  const std::uint64_t header = kWireFrameBytes + kTensorWireHeaderBytes;
  const std::uint64_t rows = n * spec.layer.hidden * sizeof(float);
  Counts c;
  c.messages = k + (layers - 1) * k * (k - 1) + k;
  c.bytes = k * (header + rows) +
            (layers - 1) * ((k - 1) * rows + k * (k - 1) * header) +
            (rows + k * header);
  return c;
}

// MACs of one request: gamma_partitioned_layer over layers and devices at
// the Theorem-2 order, plus the classifier head on the [CLS] row.
std::uint64_t expected_prefill_macs(const ModelSpec& spec, std::size_t n) {
  std::uint64_t macs = 0;
  for (const Range& r : PartitionScheme::even(kDevices).ranges(n)) {
    if (r.empty()) continue;
    const AttentionDims dims{.n = n,
                             .p = r.size(),
                             .f = spec.layer.hidden,
                             .fh = spec.layer.head_dim};
    macs += spec.num_layers *
            gamma_partitioned_layer(spec.layer, n, r.size(),
                                    select_order(OrderPolicy::kAdaptive, dims));
  }
  return macs + spec.layer.hidden * spec.num_classes;
}

// Off the clock: the first request of each length equals the single-device
// forward, and its wire and MAC counts equal the closed forms.
Counts check_prefill(PrefillState& state, std::uint64_t seed, Report& report,
                     OrderShare& orders) {
  const ModelSpec& spec = state.model.spec();
  Counts total;
  for (std::size_t i = 0; i < kPromptLengths.size(); ++i) {
    const std::vector<TokenId> prompt =
        prefill_prompt(seed, i, spec.vocab_size);
    const std::size_t n = prompt.size();
    const Counts before = Counts::read(state.runtime.fabric().total_stats());
    const Tensor logits = state.runtime.infer(prompt);
    const Counts used =
        Counts::read(state.runtime.fabric().total_stats()) - before;
    total += used;
    orders.add(spec, n);

    const Counts wire = expected_prefill_wire(spec, n);
    const std::uint64_t macs = expected_prefill_macs(spec, n);
    std::printf("check prefill N=%zu: %llu msgs %llu B %llu MACs "
                "(expected %llu / %llu / %llu)\n",
                n, static_cast<unsigned long long>(used.messages),
                static_cast<unsigned long long>(used.bytes),
                static_cast<unsigned long long>(used.macs),
                static_cast<unsigned long long>(wire.messages),
                static_cast<unsigned long long>(wire.bytes),
                static_cast<unsigned long long>(macs));
    const std::string at = " at N=" + std::to_string(n);
    report.check(used.messages == wire.messages, "prefill messages" + at);
    report.check(used.bytes == wire.bytes, "prefill bytes" + at);
    report.check(used.macs == macs, "prefill MACs" + at);
    report.check(allclose(logits, state.model.infer(prompt), kLogitsTolerance),
                 "prefill logits differ from single-device forward" + at);
  }
  return total;
}

ClosedLoop drive_prefill(VoltageRuntime& runtime, std::size_t vocab,
                         std::uint64_t seed, double seconds,
                         obs::Tracer* tracer) {
  return run_blocks(seconds, [&](std::size_t i, Block& block) {
    const std::vector<TokenId> prompt = prefill_prompt(seed, i, vocab);
    const Clock::time_point t0 = Clock::now();
    {
      // Analyzed as one "service" window per request.
      obs::TraceSpan span(tracer, "service", "bench", kBenchTrack);
      span.request(static_cast<std::int64_t>(i));
      (void)runtime.infer(prompt);
    }
    const double ms = ms_between(t0, Clock::now());
    block.latency_ms.add(ms);
    // The classification logits are the request's first and only output;
    // per token is per prompt token.
    block.first_ms.add(ms);
    block.token_ms.add(ms / static_cast<double>(prompt.size()));
    block.tokens += prompt.size();
  });
}

}  // namespace

Report run_prefill_bert(const RunConfig& config) {
  Report report;
  Samples setup_s;
  const std::unique_ptr<PrefillState> state = timed_setup<PrefillState>(
      [] { return std::make_unique<PrefillState>(); }, setup_s);
  const std::size_t vocab = state->model.spec().vocab_size;
  OrderShare orders;
  const Counts counts = check_prefill(*state, config.seed, report, orders);

  if (!config.trace) {
    const ClosedLoop run = drive_prefill(state->runtime, vocab, config.seed,
                                         config.seconds, nullptr);
    report.attempted = run.attempted;
    report.failed = run.failed;
    report.add("setup_s", setup_s.percentile(0.5), "s", setup_s.count());
    add_closed_loop_metrics(report, run, &Block::latency_ms);
    return report;
  }

  const double seconds = std::min(config.seconds, kTracedSeconds);
  const ClosedLoop untraced =
      drive_prefill(state->runtime, vocab, config.seed, seconds, nullptr);
  obs::Tracer tracer;
  state->runtime.set_tracer(&tracer);
  const ClosedLoop traced =
      drive_prefill(state->runtime, vocab, config.seed, seconds, &tracer);
  state->runtime.set_tracer(nullptr);
  report.attempted = untraced.attempted + traced.attempted;
  report.failed = untraced.failed + traced.failed;

  const Attribution path = attribute(tracer, config.workload);
  report.add("runtime.prefill.compute_ms", path.prefill.compute_us / 1e3, "ms",
             path.prefill.windows);
  report.add("runtime.prefill.wire_ms", path.prefill.wire_us / 1e3, "ms",
             path.prefill.windows);
  report.add("runtime.prefill.wait_ms", path.prefill.wait_us / 1e3, "ms",
             path.prefill.windows);
  const double requests = static_cast<double>(kPromptLengths.size());
  double prompt_tokens = 0.0;
  for (const std::size_t n : kPromptLengths) {
    prompt_tokens += static_cast<double>(n);
  }
  // A prefill request's tokens are its prompt tokens.
  add_counts(report, counts, requests, counts, prompt_tokens);
  report.add("partition.eq8_layer_share", orders.share(), "ratio",
             orders.total);
  add_overhead(report, latency_p50(untraced), latency_p50(traced));
  return report;
}

// ===========================================================================
// decode_stream: closed loop, one client, one sequence at a time on a
// DistributedDecoder: prime a 32-token prompt, step at B=1 to one of seven
// stop positions up to the nearly full 1024-position window, release.
// ===========================================================================

namespace {

constexpr std::size_t kDecodePrompt = 32;
constexpr std::size_t kDecodeWindow = 1024;
constexpr std::size_t kDecodeEnd = kDecodeWindow - 8;  // last position
// Where sequences stop: evenly spaced up to kDecodeEnd, so every block's
// steps cover contexts from 32 to ~1000 in the same mix.
constexpr std::array<std::size_t, kBlockSize> kDecodeStops{
    152, 296, 440, 584, 728, 872, kDecodeEnd};
// Traced runs decode this many full-window sequences.
constexpr std::size_t kTracedSequences = 2;

ModelSpec decode_spec() {
  ModelSpec spec = mini_gpt2_spec();
  spec.max_positions = kDecodeWindow;
  return spec;
}

std::vector<TokenId> decode_prompt(std::uint64_t seed, std::size_t j,
                                   std::size_t vocab) {
  return random_tokens(kDecodePrompt, vocab,
                       mix(seed, (std::uint64_t{2} << 32) + j));
}

struct DecodeState {
  TransformerModel model{make_model(decode_spec())};
  DistributedDecoder decoder{model, PartitionScheme::even(kDevices)};

  DecodeState() {
    const auto primed =
        decoder.prime_slot(random_tokens(kDecodePrompt, model.spec().vocab_size,
                                         7));
    TokenId token = greedy(primed.logits);
    for (int i = 0; i < 16; ++i) {
      const SlotToken lane{.slot = primed.slot, .token = token};
      token = greedy(decoder.step_batch(std::span(&lane, 1)));
    }
    decoder.release_slot(primed.slot);
  }
};

struct Sequence {
  std::vector<TokenId> tokens;  // greedy tokens: prime's, then each step's
  double prime_ms = 0.0;
  double total_ms = 0.0;
  Samples step_ms;
  Counts steps;     // wire and work of the steps alone
  Counts sequence;  // of the whole sequence: prime, steps, release
};

Sequence decode_sequence(DistributedDecoder& decoder,
                         std::span<const TokenId> prompt, std::size_t end,
                         obs::Tracer* tracer) {
  Sequence seq;
  const Counts at_start = Counts::read(decoder.fabric().total_stats());
  const Clock::time_point t0 = Clock::now();
  DistributedDecoder::PrimedSlot primed;
  {
    obs::TraceSpan span(tracer, "bench.prime_slot", "bench", kBenchTrack);
    primed = decoder.prime_slot(prompt);
  }
  seq.prime_ms = ms_between(t0, Clock::now());
  seq.tokens.push_back(greedy(primed.logits));
  const Counts before_steps = Counts::read(decoder.fabric().total_stats());
  while (decoder.slot_position(primed.slot) < end) {
    const SlotToken lane{.slot = primed.slot, .token = seq.tokens.back()};
    const Clock::time_point ts = Clock::now();
    Tensor logits;
    {
      obs::TraceSpan span(tracer, "bench.step_batch", "bench", kBenchTrack);
      logits = decoder.step_batch(std::span(&lane, 1));
    }
    seq.step_ms.add(ms_between(ts, Clock::now()));
    seq.tokens.push_back(greedy(logits));
  }
  seq.steps = Counts::read(decoder.fabric().total_stats()) - before_steps;
  decoder.release_slot(primed.slot);
  seq.total_ms = ms_between(t0, Clock::now());
  seq.sequence = Counts::read(decoder.fabric().total_stats()) - at_start;
  return seq;
}

// Off the clock: the first prompt, decoded to the full window, gives
// IncrementalDecoder's greedy tokens. Returns that sequence; its counts are
// the exact ones.
Sequence check_decode(DecodeState& state, std::uint64_t seed,
                      Report& report) {
  const std::vector<TokenId> prompt =
      decode_prompt(seed, 0, state.model.spec().vocab_size);
  Sequence seq = decode_sequence(state.decoder, prompt, kDecodeEnd, nullptr);
  IncrementalDecoder reference(state.model);
  std::vector<TokenId> expected{greedy(reference.prime(prompt))};
  while (reference.position() < kDecodeEnd) {
    expected.push_back(greedy(reference.step(expected.back())));
  }
  std::printf("check decode: %zu tokens, %zu step messages, %llu step bytes\n",
              seq.tokens.size(), static_cast<std::size_t>(seq.steps.messages),
              static_cast<unsigned long long>(seq.steps.bytes));
  report.check(seq.tokens == expected,
               "decode tokens differ from IncrementalDecoder greedy tokens");
  return seq;
}

ClosedLoop drive_decode(DistributedDecoder& decoder, std::size_t vocab,
                        std::uint64_t seed, double seconds) {
  return run_blocks(seconds, [&](std::size_t j, Block& block) {
    const Sequence seq =
        decode_sequence(decoder, decode_prompt(seed, j, vocab),
                        dealt(kDecodeStops, seed, 3, j), nullptr);
    block.latency_ms.add(seq.total_ms);
    // prime_slot's logits give the first token.
    block.first_ms.add(seq.prime_ms);
    block.token_ms.append(seq.step_ms);
    block.tokens += seq.tokens.size();
  });
}

// kTracedSequences full-window sequences, for the traced comparison.
Samples decode_full_sequences(DistributedDecoder& decoder, std::size_t vocab,
                              std::uint64_t seed, Samples& prime_ms,
                              obs::Tracer* tracer) {
  Samples total_ms;
  for (std::size_t j = 0; j < kTracedSequences; ++j) {
    const Sequence seq = decode_sequence(
        decoder, decode_prompt(seed, j, vocab), kDecodeEnd, tracer);
    total_ms.add(seq.total_ms);
    prime_ms.add(seq.prime_ms);
  }
  return total_ms;
}

}  // namespace

Report run_decode_stream(const RunConfig& config) {
  Report report;
  Samples setup_s;
  const std::unique_ptr<DecodeState> state = timed_setup<DecodeState>(
      [] { return std::make_unique<DecodeState>(); }, setup_s);
  const std::size_t vocab = state->model.spec().vocab_size;
  const Sequence checked = check_decode(*state, config.seed, report);

  if (!config.trace) {
    const ClosedLoop run =
        drive_decode(state->decoder, vocab, config.seed, config.seconds);
    report.attempted = run.attempted;
    report.failed = run.failed;
    report.add("setup_s", setup_s.percentile(0.5), "s", setup_s.count());
    add_closed_loop_metrics(report, run, &Block::token_ms);
    return report;
  }

  Samples prime_ms;
  const Samples untraced = decode_full_sequences(
      state->decoder, vocab, config.seed, prime_ms, nullptr);
  obs::Tracer tracer;
  Samples traced;
  {
    // The decoder's workers close their last span at shutdown, so the
    // traced decoder lives in this scope, inside the tracer's lifetime.
    DecodeState traced_state;
    traced_state.decoder.set_tracer(&tracer);
    Samples traced_prime_ms;
    traced = decode_full_sequences(traced_state.decoder, vocab, config.seed,
                                   traced_prime_ms, &tracer);
  }
  report.attempted = 2 * kTracedSequences;

  const Attribution path = attribute(tracer, config.workload);
  report.add("runtime.prefill.compute_ms", path.prefill.compute_us / 1e3, "ms",
             path.prefill.windows);
  report.add("runtime.prefill.wire_ms", path.prefill.wire_us / 1e3, "ms",
             path.prefill.windows);
  report.add("runtime.prefill.wait_ms", path.prefill.wait_us / 1e3, "ms",
             path.prefill.windows);
  report.add("runtime.step.compute_us", path.step.compute_us, "us",
             path.step.windows);
  report.add("runtime.step.wire_us", path.step.wire_us, "us",
             path.step.windows);
  report.add("runtime.step.wait_us", path.step.wait_us, "us",
             path.step.windows);
  report.add("runtime.prime_ms_p50", prime_ms.percentile(0.5), "ms",
             prime_ms.count());
  report.add("collective.merge_spread_us", path.merge_spread_us, "us",
             path.merge_rounds);

  // Per token: the steps of the checked sequence; per request: the whole
  // sequence. Both repeat exactly for every seed.
  add_counts(report, checked.sequence, 1.0, checked.steps,
             static_cast<double>(checked.step_ms.count()));
  OrderShare orders;
  orders.add(state->model.spec(), kDecodePrompt);
  report.add("partition.eq8_layer_share", orders.share(), "ratio",
             orders.total);
  add_overhead(report, untraced.percentile(0.5), traced.percentile(0.5));
  return report;
}

// ===========================================================================
// serve_mixed: closed loop, kServeClients clients sharing one
// InferenceServer; 80% generations, 20% logits requests.
// ===========================================================================

namespace {

// Each client sends its next request as soon as its last one completes.
// An open loop near the server's knee turned host steal into 2-3x swings
// of its latency tail; a closed loop slows down with the host instead.
constexpr std::size_t kServeClients = 4;
constexpr double kLogitsShare = 0.2;
constexpr double kPromptMedian = 32.0;
constexpr double kPromptSigma = 0.5;  // of the log prompt length
constexpr std::size_t kPromptMin = 4;
constexpr std::size_t kPromptMax = 128;
constexpr std::size_t kOutputMin = 16;
constexpr std::size_t kOutputMax = 96;
// Requests of one episode; each episode holds the exact mix.
constexpr std::size_t kEpisodeRequests = 100;
// The generator checks the open futures this often.
constexpr auto kPollPeriod = std::chrono::microseconds(500);
constexpr std::size_t kWarmupRequests = 2;
constexpr std::size_t kCheckedGenerations = 4;
// A request meets its SLO when it completes within kSloBaseMs plus
// kSloPerTokenMs per output token of its send; a logits request gets
// kSloBaseMs. A typical request on the reference host meets it with some
// room, so attainment is below 1 and can move both ways.
constexpr double kSloBaseMs = 20.0;
constexpr double kSloPerTokenMs = 1.25;

ModelSpec serve_spec() {
  ModelSpec spec = mini_gpt2_spec();
  spec.max_positions = 256;
  return spec;
}

struct Request {
  bool generate = true;
  std::vector<TokenId> prompt;
  std::size_t new_tokens = 0;  // 0 for a logits request
};

// The q-quantile of the standard normal distribution, by bisection.
double normal_quantile(double q) {
  double lo = -10.0;
  double hi = 10.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < q ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

// The requests of episode `episode`. The mix is stratified so that seeds
// and episodes differ in order and token ids but not in the work they
// carry: exactly kLogitsShare of them are logits requests, and prompt and
// output lengths are evenly spaced quantiles of their distributions
// (lognormal and uniform), dealt out in a seeded order.
std::vector<Request> episode_requests(std::uint64_t seed, std::size_t episode,
                                      std::size_t vocab) {
  constexpr std::size_t n = kEpisodeRequests;
  constexpr auto logits = static_cast<std::size_t>(kLogitsShare * n);
  std::mt19937_64 rng(mix(seed, (std::uint64_t{4} << 32) + episode));
  const auto quantile = [](std::size_t i, std::size_t count) {
    return (static_cast<double>(i) + 0.5) / static_cast<double>(count);
  };
  std::array<bool, n> generate{};
  std::fill(generate.begin() + logits, generate.end(), true);
  std::shuffle(generate.begin(), generate.end(), rng);
  std::array<std::size_t, n> prompt_len{};
  for (std::size_t i = 0; i < n; ++i) {
    const double len = kPromptMedian *
                       std::exp(kPromptSigma * normal_quantile(quantile(i, n)));
    prompt_len[i] = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::llround(len)), kPromptMin, kPromptMax);
  }
  std::shuffle(prompt_len.begin(), prompt_len.end(), rng);
  std::array<std::size_t, n - logits> output_len{};
  for (std::size_t i = 0; i < output_len.size(); ++i) {
    output_len[i] = kOutputMin + static_cast<std::size_t>(
        quantile(i, output_len.size()) *
        static_cast<double>(kOutputMax - kOutputMin + 1));
  }
  std::shuffle(output_len.begin(), output_len.end(), rng);
  std::vector<Request> requests;
  std::size_t next_output = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t index = episode * n + i;
    requests.push_back(Request{
        .generate = generate[i],
        .prompt = random_tokens(prompt_len[i], vocab,
                                mix(seed, (std::uint64_t{3} << 32) + index)),
        .new_tokens = generate[i] ? output_len[next_output++] : 0});
  }
  return requests;
}

InferenceServer::Options serve_options(obs::Tracer* tracer,
                                       obs::MetricsRegistry* metrics) {
  InferenceServer::Options options;
  options.scheme = PartitionScheme::even(kDevices);
  options.max_batch = 8;
  options.device_intra_op_threads = 1;
  options.tracer = tracer;
  options.metrics = metrics;
  return options;
}

struct ServeState {
  TransformerModel model{make_model(serve_spec())};
  InferenceServer server;

  explicit ServeState(obs::Tracer* tracer = nullptr,
                      obs::MetricsRegistry* metrics = nullptr)
      : server(model, serve_options(tracer, metrics)) {
    const std::size_t vocab = model.spec().vocab_size;
    auto generated = server.submit_generate(random_tokens(16, vocab, 7), 8);
    auto logits = server.submit(random_tokens(16, vocab, 8));
    (void)generated.get();
    (void)logits.get();
  }
};

struct LoadRun {
  std::vector<Request> requests;
  std::size_t sent = 0;
  Samples latency_ms;  // send to future ready, completed requests
  Samples queue_depth;
  Samples batch;
  std::size_t failed = 0;
  std::size_t slo_met = 0;
  std::size_t generations = 0;  // completed generation requests
  std::size_t generated_tokens = 0;
  double wall_s = 0.0;
  std::vector<std::vector<TokenId>> outputs;  // per request; generations
};

// The single-thread load generator: sends `requests` in order with up to
// kServeClients in flight, polling the open futures to stamp each
// completion, and returns when the last one is done.
LoadRun drive_server(InferenceServer& server, std::vector<Request> requests,
                     obs::Tracer* tracer) {
  struct Open {
    std::size_t index = 0;
    Clock::time_point sent;
    obs::Micros sent_us = 0;
    std::future<std::vector<TokenId>> generated;
    std::future<Tensor> logits;

    [[nodiscard]] bool ready() const {
      using namespace std::chrono_literals;
      return generated.valid()
                 ? generated.wait_for(0s) == std::future_status::ready
                 : logits.wait_for(0s) == std::future_status::ready;
    }
  };
  LoadRun run;
  run.requests = std::move(requests);
  run.outputs.resize(run.requests.size());
  const Clock::time_point start = Clock::now();
  Clock::time_point last_done = start;
  std::vector<Open> open;
  while (run.sent < run.requests.size() || !open.empty()) {
    while (open.size() < kServeClients && run.sent < run.requests.size()) {
      const Request& r = run.requests[run.sent];
      run.queue_depth.add(static_cast<double>(server.queue_depth()));
      run.batch.add(static_cast<double>(server.batch_occupancy()));
      Open o{.index = run.sent, .sent = Clock::now(), .sent_us = obs::now_us(),
             .generated = {}, .logits = {}};
      if (r.generate) {
        o.generated = server.submit_generate(r.prompt, r.new_tokens);
      } else {
        o.logits = server.submit(r.prompt);
      }
      open.push_back(std::move(o));
      run.sent += 1;
    }
    std::this_thread::sleep_for(kPollPeriod);
    for (auto it = open.begin(); it != open.end();) {
      if (!it->ready()) {
        ++it;
        continue;
      }
      const Clock::time_point done = Clock::now();
      last_done = done;
      const Request& r = run.requests[it->index];
      try {
        if (r.generate) {
          run.outputs[it->index] = it->generated.get();
          run.generations += 1;
          run.generated_tokens += r.new_tokens;
        } else {
          (void)it->logits.get();
        }
        const double ms = ms_between(it->sent, done);
        run.latency_ms.add(ms);
        const double limit_ms =
            kSloBaseMs + kSloPerTokenMs * static_cast<double>(r.new_tokens);
        run.slo_met += ms <= limit_ms ? 1 : 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve request %zu failed: %s\n", it->index,
                     e.what());
        run.failed += 1;
      }
      if (tracer != nullptr) {
        const obs::Micros now = obs::now_us();
        tracer->record(obs::TraceEvent{
            .name = r.generate ? "bench.submit_generate" : "bench.submit",
            .category = "bench",
            .track = kBenchTrack,
            .start_us = it->sent_us,
            .duration_us = now - it->sent_us,
            .request = static_cast<std::int64_t>(it->index),
            .tag = {}});
      }
      it = open.erase(it);
    }
  }
  run.wall_s = ms_between(start, last_done) / 1e3;
  return run;
}

// An untraced run repeats episodes, each on a fresh server with its own
// kEpisodeRequests requests, until the configured seconds have passed; the
// timings come from the quietest quarter of them.
struct Episode {
  LoadRun run;
  ServerStats stats;
};

// Off the clock: a seeded subset of the generations equals the same prompt
// decoded alone on a fresh DistributedDecoder.
void check_serve(const TransformerModel& model, const LoadRun& run,
                 std::uint64_t seed, Report& report) {
  std::vector<std::size_t> done;
  for (std::size_t i = 0; i < run.sent; ++i) {
    if (run.requests[i].generate && !run.outputs[i].empty()) done.push_back(i);
  }
  std::vector<std::size_t> picked;
  std::mt19937_64 rng(mix(seed, 4));
  std::sample(done.begin(), done.end(), std::back_inserter(picked),
              kCheckedGenerations, rng);
  for (const std::size_t i : picked) {
    const Request& r = run.requests[i];
    DistributedDecoder alone(model, PartitionScheme::even(kDevices));
    const auto primed = alone.prime_slot(r.prompt);
    std::vector<TokenId> expected{greedy(primed.logits)};
    while (expected.size() < r.new_tokens) {
      const SlotToken lane{.slot = primed.slot, .token = expected.back()};
      expected.push_back(greedy(alone.step_batch(std::span(&lane, 1))));
    }
    report.check(run.outputs[i] == expected,
                 "served generation " + std::to_string(i) +
                     " differs from decoding it alone");
  }
  std::printf("check serve: %zu of %zu generations decoded alone\n",
              picked.size(), done.size());
}

}  // namespace

Report run_serve_mixed(const RunConfig& config) {
  Report report;
  Samples setup_s;
  std::unique_ptr<ServeState> state = timed_setup<ServeState>(
      [] { return std::make_unique<ServeState>(); }, setup_s);
  const std::size_t vocab = state->model.spec().vocab_size;

  if (!config.trace) {
    const Clock::time_point stop =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(config.seconds));
    std::vector<Episode> episodes;
    for (std::size_t e = 0; e == 0 || Clock::now() < stop; ++e) {
      if (e > 0) {
        state.reset();
        state = std::make_unique<ServeState>();
      }
      Episode episode{
          .run = drive_server(state->server,
                              episode_requests(config.seed, e, vocab), nullptr),
          .stats = state->server.stats()};
      if (e == 0) check_serve(state->model, episode.run, config.seed, report);
      report.attempted += episode.run.sent;
      report.failed += episode.run.failed;
      std::printf("episode %zu: latency p50 %.3f p95 %.3f ms, "
                  "ttft p95 %.3f ms, tpot p95 %.4f ms, %.0f tok/s\n",
                  e, episode.run.latency_ms.percentile(0.5),
                  episode.run.latency_ms.percentile(0.95),
                  episode.stats.ttft.p95 * 1e3,
                  episode.stats.per_token.p95 * 1e3,
                  static_cast<double>(episode.run.generated_tokens) /
                      episode.run.wall_s);
      episodes.push_back(std::move(episode));
    }
    report.add("setup_s", setup_s.percentile(0.5), "s", setup_s.count());
    report.check(std::any_of(episodes.begin(), episodes.end(),
                             [](const Episode& e) {
                               return e.run.latency_ms.count() > 0;
                             }),
                 "no serve request completed");
    // Latency pools every request of the quietest quarter of the episodes,
    // ranked by their median latency; TTFT and TPOT, which the server
    // summarizes per episode, are the mean of those episodes' percentiles.
    const std::vector<const Episode*> quiet =
        quietest_quarter(episodes, [](const Episode& e) {
          return e.run.latency_ms.percentile(0.5);
        });
    Samples latency_ms;
    std::size_t generations = 0;
    std::size_t tokens = 0;
    double wall_s = 0.0;
    for (const Episode* e : quiet) {
      latency_ms.append(e->run.latency_ms);
      generations += e->run.generations + 1;  // with the warm-up generation
      tokens += e->run.generated_tokens;
      wall_s += e->run.wall_s;
    }
    const auto mean_ms = [&quiet](auto f) {
      Samples per_episode;
      for (const Episode* e : quiet) per_episode.add(f(e->stats) * 1e3);
      return per_episode.mean();
    };
    report.add("latency_p50_ms", latency_ms.percentile(0.50), "ms",
               latency_ms.count());
    report.add("latency_p95_ms", latency_ms.percentile(0.95), "ms",
               latency_ms.count());
    report.add("ttft_p50_ms", mean_ms([](const ServerStats& s) {
                 return s.ttft.p50;
               }),
               "ms", generations);
    report.add("ttft_p95_ms", mean_ms([](const ServerStats& s) {
                 return s.ttft.p95;
               }),
               "ms", generations);
    report.add("tpot_p50_ms", mean_ms([](const ServerStats& s) {
                 return s.per_token.p50;
               }),
               "ms", generations);
    report.add("tpot_p95_ms", mean_ms([](const ServerStats& s) {
                 return s.per_token.p95;
               }),
               "ms", generations);
    report.add("tokens_per_s", static_cast<double>(tokens) / wall_s, "tok/s",
               tokens);
    // Attainment counts every request sent; a failed one misses.
    std::size_t slo_met = 0;
    for (const Episode& e : episodes) slo_met += e.run.slo_met;
    const std::size_t sent = std::max<std::size_t>(report.attempted, 1);
    report.add("slo_attainment",
               static_cast<double>(slo_met) / static_cast<double>(sent),
               "ratio", report.attempted);
    std::printf("serve: %zu episodes of %zu requests, quietest %zu\n",
                episodes.size(), kEpisodeRequests, quiet.size());
    return report;
  }

  // One episode untraced and the same one traced.
  const LoadRun untraced = drive_server(
      state->server, episode_requests(config.seed, 0, vocab), nullptr);
  check_serve(state->model, untraced, config.seed, report);
  state.reset();

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  LoadRun traced;
  ServerStats stats;
  Counts used;
  {
    ServeState traced_state(&tracer, &metrics);
    const auto wire = [&metrics] {
      return TrafficStats{
          .messages_sent = metrics.counter("transport.messages_sent").value(),
          .bytes_sent = metrics.counter("transport.bytes_sent").value()};
    };
    const Counts before = Counts::read(wire());
    traced = drive_server(traced_state.server,
                          episode_requests(config.seed, 0, vocab), &tracer);
    used = Counts::read(wire()) - before;
    stats = traced_state.server.stats();
  }
  report.attempted = untraced.sent + traced.sent;
  report.failed = untraced.failed + traced.failed;

  std::vector<std::int64_t> inline_requests;
  OrderShare orders;
  for (std::size_t i = 0; i < traced.sent; ++i) {
    // The server numbers requests in submission order, after the warm-up.
    if (!traced.requests[i].generate) {
      inline_requests.push_back(
          static_cast<std::int64_t>(kWarmupRequests + i));
    }
    orders.add(serve_spec(), traced.requests[i].prompt.size());
  }
  const Attribution path = attribute(tracer, config.workload, inline_requests);

  report.add("serve.queue_wait_p50_ms", stats.queue_wait.p50 * 1e3, "ms",
             stats.completed);
  report.add("serve.queue_wait_p95_ms", stats.queue_wait.p95 * 1e3, "ms",
             stats.completed);
  report.add("serve.batch_mean", traced.batch.mean(), "requests",
             traced.batch.count());
  report.add("serve.queue_depth_mean", traced.queue_depth.mean(), "requests",
             traced.queue_depth.count());
  report.add("serve.batch_peak", static_cast<double>(stats.batch_peak),
             "requests");
  report.add("serve.preempted", static_cast<double>(stats.preempted), "count");
  report.add("serve.runtime_rebuilds",
             static_cast<double>(stats.runtime_rebuilds), "count");
  Samples inline_ms;
  for (const double ms : path.inline_service_ms) inline_ms.add(ms);
  report.add("serve.inline_service_ms_p50", inline_ms.percentile(0.5), "ms",
             inline_ms.count());
  report.add("runtime.prefill.compute_ms", path.prefill.compute_us / 1e3, "ms",
             path.prefill.windows);
  report.add("runtime.prefill.wire_ms", path.prefill.wire_us / 1e3, "ms",
             path.prefill.windows);
  report.add("runtime.prefill.wait_ms", path.prefill.wait_us / 1e3, "ms",
             path.prefill.windows);
  report.add("runtime.step.compute_us", path.step.compute_us, "us",
             path.step.windows);
  report.add("runtime.step.wire_us", path.step.wire_us, "us",
             path.step.windows);
  report.add("runtime.step.wait_us", path.step.wait_us, "us",
             path.step.windows);
  report.add("collective.merge_spread_us", path.merge_spread_us, "us",
             path.merge_rounds);
  add_counts(report, used, static_cast<double>(traced.sent - traced.failed),
             used, static_cast<double>(traced.generated_tokens));
  report.add("partition.eq8_layer_share", orders.share(), "ratio",
             orders.total);
  add_overhead(report, untraced.latency_ms.percentile(0.5),
               traced.latency_ms.percentile(0.5));
  return report;
}

}  // namespace perfbench
