// Observability overhead: what does instrumentation cost when it is OFF?
//
// The tracing contract (obs/trace.h) is that a detached tracer reduces every
// instrumentation site to a null-pointer check — no clock reads, no locks,
// no allocation. This bench holds the repo to that claim on the hottest
// path, the decode step:
//
//   1. measures the per-site cost of a disabled TraceSpan + flow record
//      (through a volatile tracer pointer, so the null check really runs);
//   2. measures the real per-step latency of a DistributedDecoder with no
//      tracer attached, and with a tracer attached, for reference;
//   3. bounds the disabled-instrumentation share of a step as
//      sites_per_step * per_site_cost / step_latency and FAILS (exit 1) if
//      the median of five fresh pairs reaches 1%. Each pair measures the
//      site cost and both decoders afresh, alternating which decoder runs
//      first, so one noisy measurement cannot pass or fail the gate.
//
// Writes the numbers as JSON (argv[1], default BENCH_obs_overhead.json —
// the repo root keeps a committed snapshot that CI regenerates).
//
//   ./build/bench/obs_overhead [out.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/percentile.h"
#include "obs/trace.h"
#include "runtime/distributed_decoder.h"
#include "tensor/ops.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace {

using namespace voltage;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Per-site cost of disabled instrumentation: one TraceSpan construction +
// attribute stamp + one flow record, against a tracer pointer the compiler
// cannot prove null.
double disabled_site_ns(std::size_t iters) {
  obs::Tracer* volatile detached = nullptr;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    obs::TraceSpan span(detached, "layer", "compute", 0);
    span.device(0).layer(static_cast<std::int64_t>(i));
    obs::record_flow(detached, obs::EventPhase::kFlowStart, i, 0, 1);
  }
  return seconds_since(start) * 1e9 / static_cast<double>(iters);
}

// Per-step decode latency for one round: prime once, time `steps` cached
// steps.
double step_seconds(DistributedDecoder& decoder,
                    std::span<const TokenId> prompt, std::size_t steps) {
  Tensor logits = decoder.prime(prompt);
  TokenId next = static_cast<TokenId>(argmax_row(logits, 0));
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < steps; ++i) {
    logits = decoder.step(next);
    next = static_cast<TokenId>(argmax_row(logits, 0));
  }
  return seconds_since(start) / static_cast<double>(steps);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_obs_overhead.json";
  const TransformerModel model = make_model(mini_gpt2_spec());
  constexpr std::size_t kDevices = 2;
  constexpr std::size_t kPrompt = 16;
  constexpr std::size_t kSteps = 48;
  constexpr std::size_t kPairs = 5;
  const auto prompt = random_tokens(kPrompt, model.spec().vocab_size, 7);
  const std::size_t layers = model.spec().num_layers;

  // Instrumentation sites one decode step can touch, counted generously:
  // per worker per layer one compute span, one merge comm span and up to
  // four flow records; plus the terminal's step span, command broadcast and
  // final receive. Overcounting is fine — it only makes the bound stricter.
  const double sites_per_step =
      static_cast<double>(kDevices * layers * 6 + kDevices * 4 + 8);

  std::printf("=== Observability overhead, %s, K=%zu ===\n\n",
              model.spec().name.c_str(), kDevices);
  std::printf("  pair  site_ns  step_us(off)  step_us(on)  disabled%%  "
              "enabled%%\n");
  std::vector<double> site_ns_runs;
  std::vector<double> off_runs;  // seconds per step
  std::vector<double> on_runs;
  std::vector<double> disabled_runs;
  std::vector<double> enabled_runs;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const double site = disabled_site_ns(2'000'000);
    // The tracer is declared before the decoders: it must outlive them,
    // since their device jobs may still be writing spans when a step
    // returns.
    obs::Tracer tracer;
    DistributedDecoder off(model, PartitionScheme::even(kDevices));
    DistributedDecoder on(model, PartitionScheme::even(kDevices));
    on.set_tracer(&tracer);
    const std::span<const TokenId> tokens(prompt);
    double off_s = 0.0;
    double on_s = 0.0;
    if (i % 2 == 0) {
      off_s = step_seconds(off, tokens, kSteps);
      on_s = step_seconds(on, tokens, kSteps);
    } else {
      on_s = step_seconds(on, tokens, kSteps);
      off_s = step_seconds(off, tokens, kSteps);
    }
    site_ns_runs.push_back(site);
    off_runs.push_back(off_s);
    on_runs.push_back(on_s);
    disabled_runs.push_back(sites_per_step * site * 1e-9 / off_s);
    enabled_runs.push_back(on_s / off_s - 1.0);
    std::printf("  %4zu  %7.2f  %12.1f  %11.1f  %9.4f  %8.2f\n", i, site,
                off_s * 1e6, on_s * 1e6, disabled_runs.back() * 100.0,
                enabled_runs.back() * 100.0);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return obs::nearest_rank(v, 0.5);
  };
  const double site_ns = median(site_ns_runs);
  const double step_off = median(off_runs);
  const double step_on = median(on_runs);
  const double disabled_fraction = median(disabled_runs);
  const double enabled_fraction = median(enabled_runs);

  std::printf("\nmedians of %zu pairs:\n", kPairs);
  std::printf("  disabled site cost        : %.2f ns\n", site_ns);
  std::printf("  decode step (no tracer)   : %.1f us\n", step_off * 1e6);
  std::printf("  decode step (tracer on)   : %.1f us\n", step_on * 1e6);
  std::printf("  sites/step (upper bound)  : %.0f\n", sites_per_step);
  std::printf("  disabled overhead bound   : %.4f%%  (budget 1%%)\n",
              disabled_fraction * 100.0);
  std::printf("  enabled overhead measured : %.2f%%\n",
              enabled_fraction * 100.0);

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"model\": \"" << model.spec().name << "\",\n"
      << "  \"devices\": " << kDevices << ",\n"
      << "  \"layers\": " << layers << ",\n"
      << "  \"disabled_site_ns\": " << site_ns << ",\n"
      << "  \"pairs\": " << kPairs << ",\n"
      << "  \"step_us_no_tracer\": " << step_off * 1e6 << ",\n"
      << "  \"step_us_with_tracer\": " << step_on * 1e6 << ",\n"
      << "  \"sites_per_step\": " << sites_per_step << ",\n"
      << "  \"disabled_overhead_fraction\": " << disabled_fraction << ",\n"
      << "  \"enabled_overhead_fraction\": " << enabled_fraction << "\n"
      << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  if (disabled_fraction >= 0.01) {
    std::fprintf(stderr,
                 "obs_overhead: FAIL — disabled instrumentation bound "
                 "%.3f%% >= 1%% of a decode step\n",
                 disabled_fraction * 100.0);
    return 1;
  }
  std::printf("PASS: disabled instrumentation costs <1%% of a decode step\n");
  return 0;
}
