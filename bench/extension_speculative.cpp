// Extension: multi-token speculative decoding on the distributed mesh.
//
// Greedy-decodes a fixed continuation on a K=4 mesh with
// DistributedDecoder::step_speculative, sweeping the draft plane:
//   none    — empty windows (the single-token baseline: one collective
//             round-trip per committed token);
//   lookup  — PromptLookupDrafter (n-gram self-drafting, no extra model);
//   model   — ModelDrafter drafting with the target model itself (100%
//             acceptance by construction — the protocol-efficiency ceiling).
// Every window shape rides the identical per-step message count (that is
// the tentpole claim), so accepted drafts turn directly into fewer wire
// round-trips per committed token.
//
// Acceptance thresholds, checked on the fp32 model-drafter sweep at the
// widest window (exit 1 on violation):
//   - tokens/s >= 1.3x the single-token baseline, as the median of five
//     fresh baseline / W=4 pairs (one run's ratio swings with host load);
//   - measured collective round-trips per committed token < 1;
//   - per-step message count identical to the baseline's (window size never
//     buys extra messages).
// Writes the sweep as JSON (argv[1], default BENCH_speculative.json — the
// repo root keeps a committed snapshot that CI regenerates).
//
//   ./build/bench/extension_speculative [out.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/chaos.h"
#include "obs/percentile.h"
#include "runtime/distributed_decoder.h"
#include "runtime/drafter.h"
#include "tensor/ops.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace {

using namespace voltage;

// mini-gpt2 with window room for the prompt plus the measured decode run.
ModelSpec speculative_spec() {
  ModelSpec spec = mini_gpt2_spec();
  spec.name = "mini-gpt2-speculative";
  spec.max_positions = 256;
  return spec;
}

enum class DrafterKind { kNone, kLookup, kModel };

const char* drafter_name(DrafterKind kind) {
  switch (kind) {
    case DrafterKind::kNone: return "none";
    case DrafterKind::kLookup: return "lookup";
    case DrafterKind::kModel: return "model";
  }
  return "?";
}

struct Sample {
  Precision precision = Precision::kFp32;
  DrafterKind drafter = DrafterKind::kNone;
  std::size_t window = 0;  // max drafts per verify round
  std::size_t rounds = 0;  // collective round-trips spent
  std::size_t tokens = 0;  // committed tokens
  std::size_t drafted = 0;
  std::size_t accepted = 0;
  double tokens_per_s = 0.0;
  double messages_per_step = 0.0;
  double bytes_per_token = 0.0;

  [[nodiscard]] double acceptance() const {
    return drafted > 0
               ? static_cast<double>(accepted) / static_cast<double>(drafted)
               : 0.0;
  }
  [[nodiscard]] double round_trips_per_token() const {
    return tokens > 0
               ? static_cast<double>(rounds) / static_cast<double>(tokens)
               : 0.0;
  }
};

Sample run_sweep(const TransformerModel& model, Precision precision,
                 DrafterKind kind, std::size_t window) {
  constexpr std::size_t kDecodeTokens = 96;
  // Real kernel sockets plus the repo's default edge-link delay (uniform
  // [0, 1ms] per message, seeded): the paper's mesh is edge devices on a
  // WLAN, where a collective round-trip costs milliseconds — the very cost
  // speculation amortizes. Loopback alone would understate it by ~1000x.
  auto transport = std::make_unique<ChaosTransport>(
      make_transport(TransportKind::kUnixSocket, 5),  // 4 workers + terminal
      ChaosOptions{.seed = 7});
  DistributedDecoder decoder(model, PartitionScheme::even(4),
                             OrderPolicy::kAdaptive, std::move(transport));
  decoder.set_precision(precision);
  const auto prompt = random_tokens(16, model.spec().vocab_size, 7);
  const auto primed = decoder.prime_slot(prompt);
  TokenId next = static_cast<TokenId>(argmax_row(primed.logits, 0));

  std::unique_ptr<Drafter> drafter;
  if (kind == DrafterKind::kLookup) {
    drafter = std::make_unique<PromptLookupDrafter>();
  } else if (kind == DrafterKind::kModel) {
    drafter = std::make_unique<ModelDrafter>(model);
  }
  SpeculationController controller(window);
  if (drafter != nullptr) {
    drafter->begin(prompt);
    drafter->observe(std::span<const TokenId>(&next, 1));
  }

  Sample s;
  s.precision = precision;
  s.drafter = kind;
  s.window = window;
  std::size_t generated = 1;  // the prefill's token
  // Let delayed in-flight deliveries from the prime step drain so the
  // measured message counts cover exactly the decode rounds.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const TrafficStats before = decoder.fabric().total_stats();
  const auto start = std::chrono::steady_clock::now();
  while (generated < kDecodeTokens) {
    const std::size_t remaining = kDecodeTokens - generated;
    const std::size_t want = std::min(controller.window(), remaining - 1);
    std::vector<TokenId> drafts;
    if (want > 0 && drafter != nullptr) {
      drafts = drafter->draft(want);
      if (drafts.size() > want) drafts.resize(want);
    }
    const SlotWindow lane{
        .slot = primed.slot,
        .token = next,
        .drafts = std::span<const TokenId>(drafts.data(), drafts.size())};
    const std::vector<LaneCommit> commits =
        decoder.step_speculative(std::span<const SlotWindow>(&lane, 1));
    const LaneCommit& commit = commits.front();
    next = commit.tokens.back();
    generated += commit.tokens.size();
    s.rounds += 1;
    s.drafted += commit.drafted;
    s.accepted += commit.accepted;
    if (drafter != nullptr) {
      drafter->observe(std::span<const TokenId>(commit.tokens.data(),
                                                commit.tokens.size()));
    }
    controller.update(commit.accepted, commit.drafted);
  }
  const double total_s = voltage::bench::seconds_since(start);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // drain tail
  const TrafficStats after = decoder.fabric().total_stats();

  s.tokens = generated - 1;  // committed by the measured rounds
  s.tokens_per_s =
      total_s > 0.0 ? static_cast<double>(s.tokens) / total_s : 0.0;
  s.messages_per_step =
      static_cast<double>(after.messages_sent - before.messages_sent) /
      static_cast<double>(s.rounds);
  s.bytes_per_token =
      static_cast<double>(after.bytes_sent - before.bytes_sent) /
      static_cast<double>(s.tokens);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_speculative.json";
  const TransformerModel model = make_model(speculative_spec());
  constexpr std::size_t kDevices = 4;

  std::printf("=== Extension: speculative decoding, %s, K=%zu ===\n\n",
              model.spec().name.c_str(), kDevices);
  std::printf("  wire  drafter  W   rounds  tokens   tok/s  accept  "
              "rt/token  msgs/step  bytes/tok\n");

  std::vector<Sample> samples;
  const Sample* fp32_baseline = nullptr;
  const Sample* fp32_model_w4 = nullptr;
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    const struct {
      DrafterKind kind;
      std::size_t window;
    } configs[] = {{DrafterKind::kNone, 0},
                   {DrafterKind::kLookup, 4},
                   {DrafterKind::kModel, 2},
                   {DrafterKind::kModel, 4}};
    for (const auto& config : configs) {
      const Sample s = run_sweep(model, precision, config.kind, config.window);
      samples.push_back(s);
      std::printf("  %-4s  %-7s  %zu  %6zu  %6zu  %6.1f  %5.0f%%  %8.3f  "
                  "%9.1f  %9.0f\n",
                  precision == Precision::kInt8 ? "int8" : "fp32",
                  drafter_name(s.drafter), s.window, s.rounds, s.tokens,
                  s.tokens_per_s, s.acceptance() * 100.0,
                  s.round_trips_per_token(), s.messages_per_step,
                  s.bytes_per_token);
    }
    voltage::bench::print_rule(80);
  }
  for (const Sample& s : samples) {
    if (s.precision != Precision::kFp32) continue;
    if (s.drafter == DrafterKind::kNone) fp32_baseline = &s;
    if (s.drafter == DrafterKind::kModel && s.window == 4) fp32_model_w4 = &s;
  }

  // Throughput gate: the median W=4 / baseline ratio of kPairs fresh fp32
  // pairs, alternating which runs first so drift favours neither.
  constexpr std::size_t kPairs = 5;
  const auto fp32_tokens_per_s = [&](DrafterKind kind, std::size_t window) {
    return run_sweep(model, Precision::kFp32, kind, window).tokens_per_s;
  };
  std::vector<double> ratios;
  std::printf("\nfp32 model W=4 / baseline tokens/s, %zu pairs:", kPairs);
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    double baseline = 0.0;
    double w4 = 0.0;
    if (pair % 2 == 0) {
      baseline = fp32_tokens_per_s(DrafterKind::kNone, 0);
      w4 = fp32_tokens_per_s(DrafterKind::kModel, 4);
    } else {
      w4 = fp32_tokens_per_s(DrafterKind::kModel, 4);
      baseline = fp32_tokens_per_s(DrafterKind::kNone, 0);
    }
    ratios.push_back(baseline > 0.0 ? w4 / baseline : 0.0);
    std::printf(" %.2fx", ratios.back());
  }
  std::vector<double> sorted_ratios = ratios;
  std::sort(sorted_ratios.begin(), sorted_ratios.end());
  const double speedup = voltage::obs::nearest_rank(sorted_ratios, 0.5);

  // The message and round-trip checks are deterministic: the sweep's runs.
  const bool throughput_ok = speedup >= 1.3;
  const bool round_trips_ok = fp32_model_w4->round_trips_per_token() < 1.0;
  const bool messages_ok =
      fp32_model_w4->messages_per_step == fp32_baseline->messages_per_step;
  std::printf("\ntokens/s model-drafter W=4 vs baseline: median %.2fx "
              "(need >= 1.3x)\nround-trips per committed token: %.3f (need < 1)\n"
              "messages/step W=4 vs W=0: %.1f vs %.1f (need equal)\n",
              speedup, fp32_model_w4->round_trips_per_token(),
              fp32_model_w4->messages_per_step,
              fp32_baseline->messages_per_step);

  voltage::bench::JsonReport report(out_path);
  report.field("benchmark", voltage::bench::quoted("speculative_decoding"));
  report.field("model", voltage::bench::quoted(model.spec().name));
  report.field("devices", std::to_string(kDevices));
  report.field("transport",
               voltage::bench::quoted("unix_socket + uniform [0, 1ms] "
                                      "edge-link delay per message"));
  report.begin_results();
  for (const Sample& s : samples) {
    report.result(
        "{\"precision\": " +
        voltage::bench::quoted(s.precision == Precision::kInt8 ? "int8"
                                                               : "fp32") +
        ", \"drafter\": " + voltage::bench::quoted(drafter_name(s.drafter)) +
        ", \"max_drafts\": " + std::to_string(s.window) +
        ", \"rounds\": " + std::to_string(s.rounds) +
        ", \"tokens\": " + std::to_string(s.tokens) +
        ", \"tokens_per_s\": " + voltage::bench::num(s.tokens_per_s) +
        ", \"acceptance_rate\": " + voltage::bench::num(s.acceptance()) +
        ", \"round_trips_per_token\": " +
        voltage::bench::num(s.round_trips_per_token()) +
        ", \"messages_per_step\": " +
        voltage::bench::num(s.messages_per_step) +
        ", \"bytes_per_token\": " + voltage::bench::num(s.bytes_per_token) +
        "}");
  }
  report.end_results();
  std::string runs;
  for (const double ratio : ratios) {
    runs += (runs.empty() ? "" : ", ") + voltage::bench::num(ratio);
  }
  report.field(
      "acceptance",
      "{\"speedup_model_w4\": " + voltage::bench::num(speedup) +
          ", \"speedup_model_w4_runs\": [" + runs + "]" +
          ", \"throughput_ok\": " + (throughput_ok ? "true" : "false") +
          ", \"round_trips_per_token_lt_1\": " +
          (round_trips_ok ? "true" : "false") +
          ", \"messages_per_step_constant\": " +
          (messages_ok ? "true" : "false") + "}");
  const bool wrote = report.finish();

  if (!throughput_ok || !round_trips_ok || !messages_ok) {
    std::fprintf(stderr, "speculative acceptance thresholds not met\n");
    return 1;
  }
  return wrote ? 0 : 1;
}
