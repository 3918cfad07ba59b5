// Shared helpers for the benchmark binaries: fixed-width table printing,
// wall-clock timing of kernels and closed-loop step sweeps, percentiles,
// and the envelope of the committed BENCH_*.json reports.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

namespace voltage::bench {

// Writes a figure's data series as CSV next to the printed table so the
// plots can be regenerated directly (one file per figure, in the CWD).
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& filename) : out_(filename) {
    if (out_) std::printf("(writing %s)\n", filename.c_str());
  }

  void row(std::initializer_list<std::string> cells) {
    if (!out_) return;
    bool first = true;
    for (const std::string& cell : cells) {
      if (!first) out_ << ',';
      out_ << cell;
      first = false;
    }
    out_ << '\n';
  }

 private:
  std::ofstream out_;
};

inline std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Best-of-`reps` wall time of `fn` in seconds.
inline double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double s =
        std::chrono::duration<double>(stop - start).count();
    if (s < best) best = s;
  }
  return best;
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// One closed-loop sweep: `steps` invocations of `fn` timed individually (for
// percentiles) and in aggregate (for throughput). Warm up before calling.
struct StepTiming {
  std::vector<double> step_us;
  double total_s = 0.0;
};

inline StepTiming time_steps(std::size_t steps,
                             const std::function<void()>& fn) {
  StepTiming timing;
  timing.step_us.reserve(steps);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < steps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    timing.step_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  timing.total_s = seconds_since(start);
  return timing;
}

// The BENCH_*.json envelope every extension benchmark commits: scalar
// header fields, a "results" array of row objects, optional trailing
// fields (e.g. an "acceptance" verdict object), one closing brace. Values
// are emitted verbatim — wrap strings with quoted().
class JsonReport {
 public:
  explicit JsonReport(const std::string& path)
      : out_(path), path_(path) {
    out_ << "{";
  }

  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

  void field(const std::string& key, const std::string& raw_value) {
    comma();
    out_ << "\n  \"" << key << "\": " << raw_value;
  }

  void begin_results(const std::string& key = "results") {
    comma();
    out_ << "\n  \"" << key << "\": [\n";
    first_row_ = true;
  }

  // One row of the open results array, a complete JSON object.
  void result(const std::string& raw_object) {
    if (!first_row_) out_ << ",\n";
    first_row_ = false;
    out_ << "    " << raw_object;
  }

  void end_results() { out_ << "\n  ]"; }

  // Closes the report; false (with a diagnostic) if any write failed.
  [[nodiscard]] bool finish() {
    out_ << "\n}\n";
    out_.flush();
    if (out_) {
      std::printf("(wrote %s)\n", path_.c_str());
      return true;
    }
    std::fprintf(stderr, "cannot write %s\n", path_.c_str());
    return false;
  }

 private:
  void comma() {
    if (!first_field_) out_ << ",";
    first_field_ = false;
  }

  std::ofstream out_;
  std::string path_;
  bool first_field_ = true;
  bool first_row_ = true;
};

inline std::string quoted(const std::string& s) { return "\"" + s + "\""; }

}  // namespace voltage::bench
