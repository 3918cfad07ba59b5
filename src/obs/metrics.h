// Process-local metrics: named counters and histograms.
//
// Counters are single relaxed atomics — cheap enough for the transport send
// path. Histograms keep exact samples under a mutex (requests are the unit
// of recording here, not packets) and snapshot to the repo-wide nearest-rank
// percentile convention (obs/percentile.h), shared with the serving stats.
//
// A MetricsRegistry hands out stable references, so hot paths resolve a
// metric once at attach time and never touch the name map again.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace voltage::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

struct HistogramSnapshot {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

class Histogram {
 public:
  void record(double value);
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates; the returned reference stays valid for the registry's
  // lifetime. Thread-safe.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  // Name-sorted snapshots of everything registered.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters()
      const;
  [[nodiscard]] std::vector<std::pair<std::string, HistogramSnapshot>>
  histograms() const;

  // Human-readable dump, one metric per line.
  [[nodiscard]] std::string report() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace voltage::obs
