// Extension: continuous-batching serving throughput (closed loop).
//
// Steady-state serving sweep on a K=4 mesh: B sequences stay resident in
// the DistributedDecoder's slots and every iteration advances all of them
// with one step_batch call — the closed-loop analogue of a server running
// at occupancy B. For B in {1, 4, 16} (fp32 and int8 wire) the table
// reports aggregate tokens/s, per-step p50/p99 latency, and the measured
// per-step wire cost from the fabric counters.
//
// The scheduling claim this benchmark enforces (exit 1 on violation, at
// K=4 fp32):
//   - batching pays: aggregate tokens/s at B=16 is >= 2x B=1, as the median
//     of five fresh B=1 / B=16 pairs (one run's ratio swings with host
//     load);
//   - the wire cost is one command broadcast + one softmax-merge round per
//     batch step: the per-step MESSAGE count is identical at every B, and
//     per-step bytes grow sublinearly in B (the fixed per-step cost is
//     amortized across lanes).
//
// Writes the sweep as JSON (argv[1], default BENCH_serving.json — the repo
// root keeps a committed snapshot that CI regenerates to catch serving
// regressions).
//
//   ./build/bench/extension_serving [out.json]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/percentile.h"
#include "runtime/distributed_decoder.h"
#include "tensor/ops.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace {

using namespace voltage;

// mini-gpt2 with window room for the prompt plus the measured decode run.
ModelSpec serving_spec() {
  ModelSpec spec = mini_gpt2_spec();
  spec.name = "mini-gpt2-serving";
  spec.max_positions = 256;
  return spec;
}

struct Sample {
  Precision precision = Precision::kFp32;
  std::size_t batch = 0;
  std::size_t steps = 0;
  double tokens_per_s = 0.0;
  double p50_step_us = 0.0;
  double p99_step_us = 0.0;
  double messages_per_step = 0.0;
  double bytes_per_step = 0.0;

  [[nodiscard]] double bytes_per_token() const {
    return batch > 0 ? bytes_per_step / static_cast<double>(batch) : 0.0;
  }
};

Sample run_sweep(const TransformerModel& model, Precision precision,
                 std::size_t batch) {
  constexpr std::size_t kWarmup = 4;
  constexpr std::size_t kSteps = 96;
  DistributedDecoder decoder(model, PartitionScheme::even(4));
  decoder.set_precision(precision);
  std::vector<SlotToken> lanes;
  for (std::size_t s = 0; s < batch; ++s) {
    const auto primed = decoder.prime_slot(
        random_tokens(16, model.spec().vocab_size, 40 + s));
    lanes.push_back(SlotToken{
        .slot = primed.slot,
        .token = static_cast<TokenId>(argmax_row(primed.logits, 0))});
  }
  const auto advance = [&] {
    const Tensor logits = decoder.step_batch(lanes);
    for (std::size_t s = 0; s < batch; ++s) {
      lanes[s].token = static_cast<TokenId>(argmax_row(logits, s));
    }
  };
  for (std::size_t i = 0; i < kWarmup; ++i) advance();

  const TrafficStats before = decoder.fabric().total_stats();
  const voltage::bench::StepTiming timing =
      voltage::bench::time_steps(kSteps, advance);
  const TrafficStats after = decoder.fabric().total_stats();

  Sample s;
  s.precision = precision;
  s.batch = batch;
  s.steps = kSteps;
  s.tokens_per_s =
      timing.total_s > 0.0
          ? static_cast<double>(batch * kSteps) / timing.total_s
          : 0.0;
  std::vector<double> step_us = timing.step_us;
  std::sort(step_us.begin(), step_us.end());
  s.p50_step_us = voltage::obs::nearest_rank(step_us, 0.50);
  s.p99_step_us = voltage::obs::nearest_rank(step_us, 0.99);
  s.messages_per_step =
      static_cast<double>(after.messages_sent - before.messages_sent) /
      static_cast<double>(kSteps);
  s.bytes_per_step =
      static_cast<double>(after.bytes_sent - before.bytes_sent) /
      static_cast<double>(kSteps);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serving.json";
  const TransformerModel model = make_model(serving_spec());
  constexpr std::size_t kDevices = 4;

  std::printf("=== Extension: continuous-batching serving, %s, K=%zu "
              "(closed loop) ===\n\n",
              model.spec().name.c_str(), kDevices);
  std::printf("  wire  B    tok/s   p50_step_us  p99_step_us  msgs/step  "
              "bytes/step  bytes/tok\n");

  std::vector<Sample> samples;
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      const Sample s = run_sweep(model, precision, batch);
      samples.push_back(s);
      std::printf("  %-4s %2zu  %7.1f  %11.1f  %11.1f  %9.1f  %10.0f  %9.0f\n",
                  precision == Precision::kInt8 ? "int8" : "fp32", s.batch,
                  s.tokens_per_s, s.p50_step_us, s.p99_step_us,
                  s.messages_per_step, s.bytes_per_step, s.bytes_per_token());
    }
    voltage::bench::print_rule(72);
  }

  // Throughput gate: the median B=16 / B=1 ratio of kPairs fresh fp32
  // pairs, alternating which batch runs first so drift favours neither.
  constexpr std::size_t kPairs = 5;
  const auto fp32_tokens_per_s = [&](std::size_t batch) {
    return run_sweep(model, Precision::kFp32, batch).tokens_per_s;
  };
  std::vector<double> ratios;
  std::printf("\nfp32 B=16 / B=1 tokens/s, %zu pairs:", kPairs);
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    double b1_rate = 0.0;
    double b16_rate = 0.0;
    if (pair % 2 == 0) {
      b1_rate = fp32_tokens_per_s(1);
      b16_rate = fp32_tokens_per_s(16);
    } else {
      b16_rate = fp32_tokens_per_s(16);
      b1_rate = fp32_tokens_per_s(1);
    }
    ratios.push_back(b1_rate > 0.0 ? b16_rate / b1_rate : 0.0);
    std::printf(" %.2fx", ratios.back());
  }
  std::vector<double> sorted_ratios = ratios;
  std::sort(sorted_ratios.begin(), sorted_ratios.end());
  const double speedup = voltage::obs::nearest_rank(sorted_ratios, 0.5);

  // Wire checks, on the fp32 sweep (samples 0..2).
  const Sample& b1 = samples[0];
  const Sample& b16 = samples[2];
  const bool throughput_ok = speedup >= 2.0;
  const bool messages_ok = b16.messages_per_step == b1.messages_per_step;
  const bool bytes_sublinear = b16.bytes_per_step < 16.0 * b1.bytes_per_step;
  std::printf("\naggregate tokens/s at B=16 vs B=1: median %.2fx (need >= 2x)\n"
              "messages/step B=16 vs B=1: %.1f vs %.1f (need equal)\n"
              "bytes/step B=16 vs B=1: %.0f vs %.0f (need < 16x)\n",
              speedup, b16.messages_per_step, b1.messages_per_step,
              b16.bytes_per_step, b1.bytes_per_step);

  voltage::bench::JsonReport report(out_path);
  report.field("benchmark",
               voltage::bench::quoted("continuous_batching_serving"));
  report.field("model", voltage::bench::quoted(model.spec().name));
  report.field("devices", std::to_string(kDevices));
  report.begin_results();
  for (const Sample& s : samples) {
    report.result(
        "{\"precision\": " +
        voltage::bench::quoted(s.precision == Precision::kInt8 ? "int8"
                                                               : "fp32") +
        ", \"batch\": " + std::to_string(s.batch) +
        ", \"steps\": " + std::to_string(s.steps) +
        ", \"tokens_per_s\": " + voltage::bench::num(s.tokens_per_s) +
        ", \"p50_step_us\": " + voltage::bench::num(s.p50_step_us) +
        ", \"p99_step_us\": " + voltage::bench::num(s.p99_step_us) +
        ", \"messages_per_step\": " +
        voltage::bench::num(s.messages_per_step) +
        ", \"bytes_per_step\": " + voltage::bench::num(s.bytes_per_step) +
        ", \"bytes_per_token\": " + voltage::bench::num(s.bytes_per_token()) +
        "}");
  }
  report.end_results();
  std::string runs;
  for (const double ratio : ratios) {
    runs += (runs.empty() ? "" : ", ") + voltage::bench::num(ratio);
  }
  report.field(
      "acceptance",
      "{\"throughput_speedup_b16\": " + voltage::bench::num(speedup) +
          ", \"throughput_speedup_runs\": [" + runs + "]" +
          ", \"throughput_ok\": " + (throughput_ok ? "true" : "false") +
          ", \"messages_per_step_constant\": " +
          (messages_ok ? "true" : "false") +
          ", \"bytes_per_step_sublinear\": " +
          (bytes_sublinear ? "true" : "false") + "}");
  const bool wrote = report.finish();

  if (!throughput_ok || !messages_ok || !bytes_sublinear) {
    std::fprintf(stderr, "serving acceptance thresholds not met\n");
    return 1;
  }
  return wrote ? 0 : 1;
}
