// voltage_perfbench: runs one benchmark workload and prints its metrics.
//
//   voltage_perfbench --workload prefill_bert|decode_stream|serve_mixed
//                     --seed N --seconds S --trace 0|1
//
// --trace 0 measures for S seconds with tracing off and reports the
// end-to-end metrics; --trace 1 runs a shorter untraced and traced
// repetition plus the layer probes and reports the per-layer metrics.
// Tables go to stdout; the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when an output or exact-count check fails, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>
#include <string_view>
#include <thread>

#include "bench.h"
#include "obs/percentile.h"

namespace perfbench {

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of the pair.
  std::uint64_t z =
      seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Samples::percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return voltage::obs::nearest_rank(sorted, q);
}

double Samples::sum() const {
  double total = 0.0;
  for (const double v : values_) total += v;
  return total;
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports with --trace 0: the JSON
// line carries exactly these. A workload's other metrics (serve_mixed's
// slo_attainment) are printed in the table only.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p95_ms", "ms"},
    {"ttft_p50_ms", "ms"},
    {"ttft_p95_ms", "ms"},
    {"tpot_p50_ms", "ms"},
    {"tpot_p95_ms", "ms"},
    {"tokens_per_s", "tok/s"},
    {"peak_rss_mb", "MB"},
};

// The per-layer metrics every workload reports with --trace 1. A layer a
// workload does not run reads 0 and prints as "-".
constexpr MetricSpec kPerLayer[] = {
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p95_ms", "ms"},
    {"serve.batch_mean", "requests"},
    {"serve.queue_depth_mean", "requests"},
    {"serve.batch_peak", "requests"},
    {"serve.preempted", "count"},
    {"serve.runtime_rebuilds", "count"},
    {"serve.inline_service_ms_p50", "ms"},
    {"runtime.prefill.compute_ms", "ms"},
    {"runtime.prefill.wire_ms", "ms"},
    {"runtime.prefill.wait_ms", "ms"},
    {"runtime.step.compute_us", "us"},
    {"runtime.step.wire_us", "us"},
    {"runtime.step.wait_us", "us"},
    {"runtime.prime_ms_p50", "ms"},
    {"collective.merge_us_p50", "us"},
    {"collective.merge_r8_us_p50", "us"},
    {"collective.gather_ms_p50", "ms"},
    {"collective.merge_spread_us", "us"},
    {"net.hop_us_p50", "us"},
    {"net.messages_per_token", "count"},
    {"net.bytes_per_token", "B"},
    {"net.messages_per_request", "count"},
    {"net.bytes_per_request", "B"},
    {"tensor.macs_per_request", "MAC"},
    {"tensor.macs_per_token", "MAC"},
    {"tensor.elementwise_per_token", "op"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"partition.eq8_layer_share", "ratio"},
    {"obs.trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "voltage_perfbench: %s\n"
               "usage: voltage_perfbench --workload "
               "prefill_bert|decode_stream|serve_mixed --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     config.seconds > 0.0 && config.seconds <= 600.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else {
      usage("unknown flag");
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  return config;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunConfig config = parse(argc, argv);
  Report (*run)(const RunConfig&) = nullptr;
  if (config.workload == "prefill_bert") run = run_prefill_bert;
  if (config.workload == "decode_stream") run = run_decode_stream;
  if (config.workload == "serve_mixed") run = run_serve_mixed;
  if (run == nullptr) usage("unknown workload");

  std::printf("voltage_perfbench: workload %s, seed %llu, %.1f s, trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("host: %u cpus; build: optimized (-O3 -DNDEBUG); K=%zu\n",
              std::thread::hardware_concurrency(), kDevices);

  Report report;
  try {
    report = run(config);
    if (config.trace) {
      run_layer_probes(report);
    } else {
      report.add("peak_rss_mb", peak_rss_mb(), "MB");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "voltage_perfbench: %s\n", e.what());
    return 1;
  }

  std::string json;
  std::printf("\n%-30s %16s %-9s %8s\n", "metric", "value", "unit",
              "samples");
  const auto emit = [&](const MetricSpec& spec) {
    const auto it =
        std::find_if(report.metrics.begin(), report.metrics.end(),
                     [&](const Metric& m) { return m.name == spec.name; });
    const bool measured = it != report.metrics.end();
    if (!measured && !config.trace) {
      report.check_failures.push_back(std::string("no value for ") +
                                      spec.name);
    }
    const double value = measured ? it->value : 0.0;
    if (measured) {
      std::printf("%-30s %16.6g %-9s %8zu\n", spec.name, value, spec.unit,
                  it->samples);
    } else {
      std::printf("%-30s %16s %-9s %8s\n", spec.name, "-", spec.unit, "-");
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += std::string(json.empty() ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + spec.unit + "\"}";
  };
  const std::span<const MetricSpec> listed =
      config.trace ? std::span<const MetricSpec>(kPerLayer)
                   : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& spec : listed) emit(spec);
  for (const Metric& m : report.metrics) {
    const bool in_json = std::any_of(
        listed.begin(), listed.end(),
        [&](const MetricSpec& spec) { return m.name == spec.name; });
    if (!in_json) {
      std::printf("%-30s %16.6g %-9s %8zu  (table only)\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    }
  }
  std::printf("error_rate %.6g (%zu failed of %zu attempted)\n",
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0,
              report.failed, report.attempted);
  for (const std::string& failure : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = report.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              std::max<std::size_t>(report.attempted, 1), report.failed,
              json.c_str());
  return correct ? 0 : 1;
}
