// Shared pieces of the repository benchmark: run configuration, sample
// sets with the repo's nearest-rank percentiles, and the metric report a
// workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// K worker devices on every mesh: K workers plus the terminal make four
// busy threads, one per core of the reference host.
inline constexpr std::size_t kDevices = 3;

// Set-up is repeated at least kSetupRepeats times and until kSetupSeconds
// have passed (at most kSetupMaxRepeats times); setup_s is the median.
inline constexpr std::size_t kSetupRepeats = 5;
inline constexpr std::size_t kSetupMaxRepeats = 50;
inline constexpr double kSetupSeconds = 1.0;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// One stream of deterministic 64-bit values per (seed, stream) pair.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

// Timing samples; percentiles use obs::nearest_rank, the convention of
// ServerStats and every other percentile in the repo.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] double percentile(double q) const;  // 0 when empty
  [[nodiscard]] double mean() const;                // 0 when empty
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // what the value summarizes; 0 = a count
};

// What one workload invocation produced.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;  // output and exact-count checks

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
  }
  // Records a failed output or exact-count check; the run then exits 1.
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// Builds the workload state repeatedly (see kSetupRepeats), timing each
// build into `setup_s`; keeps the last one.
template <class State, class Build>
[[nodiscard]] std::unique_ptr<State> timed_setup(Build build,
                                                 Samples& setup_s) {
  std::unique_ptr<State> state;
  while (setup_s.count() < kSetupMaxRepeats &&
         (setup_s.count() < kSetupRepeats || setup_s.sum() < kSetupSeconds)) {
    state.reset();
    const Clock::time_point t0 = Clock::now();
    state = build();
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
  }
  return state;
}

// Trace track of the spans the benchmark records around its own calls.
inline constexpr voltage::obs::TrackId kBenchTrack = 9100;

// --- workloads.cpp ---------------------------------------------------------
[[nodiscard]] Report run_prefill_bert(const RunConfig& config);
[[nodiscard]] Report run_decode_stream(const RunConfig& config);
[[nodiscard]] Report run_serve_mixed(const RunConfig& config);

// --- probes.cpp ------------------------------------------------------------
// Layer probes, each on its own Fabric: softmax merge, prefill all-gather,
// one fabric hop, and the prefill GEMM.
void run_layer_probes(Report& report);

// --- attribution.cpp -------------------------------------------------------
// Mean per-window critical-path split over the worker devices of one phase.
struct PhaseSplit {
  std::size_t windows = 0;
  double compute_us = 0.0;
  double wire_us = 0.0;
  double wait_us = 0.0;
};

struct Attribution {
  PhaseSplit prefill;  // "prefill" windows, or bench "service" windows
  PhaseSplit step;
  double merge_spread_us = 0.0;  // mean straggler entry skew per merge
  std::size_t merge_rounds = 0;
  std::vector<double> inline_service_ms;  // "service" spans by request id
};

// Exports `tracer`, reloads it, runs obs::analyze_critical_path and prints
// rows keyed by (workload, phase, device). `inline_requests` names the
// server request ids whose "service" spans are collected.
[[nodiscard]] Attribution attribute(const voltage::obs::Tracer& tracer,
                                    const std::string& workload,
                                    const std::vector<std::int64_t>&
                                        inline_requests = {});

}  // namespace perfbench
