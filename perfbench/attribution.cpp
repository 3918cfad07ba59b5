// Per-layer rows from one traced run, all through obs::analyze_critical_path:
// its windows are keyed by phase ("prefill", "step", or the benchmark's own
// "service" spans around each prefill request), so no row mixes phases.
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

#include "bench.h"
#include "obs/critical_path.h"
#include "obs/report.h"

namespace perfbench {

namespace obs = voltage::obs;

namespace {

struct Row {
  std::size_t windows = 0;
  double compute_us = 0.0;
  double wire_us = 0.0;
  double wait_us = 0.0;
};

void finish(PhaseSplit& split) {
  if (split.windows == 0) return;
  const auto n = static_cast<double>(split.windows);
  split.compute_us /= n;
  split.wire_us /= n;
  split.wait_us /= n;
}

}  // namespace

Attribution attribute(const obs::Tracer& tracer, const std::string& workload,
                      const std::vector<std::int64_t>& inline_requests) {
  std::ostringstream json;
  tracer.write_chrome_trace(json);
  const obs::LoadedTrace trace = obs::load_chrome_trace(json.str());
  const obs::CriticalPathReport report = obs::analyze_critical_path(trace);

  Attribution out;
  std::map<std::pair<std::string, std::int64_t>, Row> rows;
  for (const obs::WindowAttribution& w : report.windows) {
    PhaseSplit* split = w.label == "step" ? &out.step
                        : w.label == "prefill" || w.label == "service"
                            ? &out.prefill
                            : nullptr;
    if (split == nullptr) continue;
    // A window's critical-path split is the mean over the worker devices:
    // each device's compute + wire + wait equals the window's wall time.
    double compute = 0.0;
    double wire = 0.0;
    double wait = 0.0;
    std::size_t workers = 0;
    for (const obs::DeviceSlice& d : w.devices) {
      Row& row = rows[{w.label, d.device}];
      row.windows += 1;
      row.compute_us += static_cast<double>(d.compute_us);
      row.wire_us += static_cast<double>(d.wire_us);
      row.wait_us += static_cast<double>(d.wait_us);
      if (d.device < 0 || static_cast<std::size_t>(d.device) >= kDevices) {
        continue;
      }
      compute += static_cast<double>(d.compute_us);
      wire += static_cast<double>(d.wire_us);
      wait += static_cast<double>(d.wait_us);
      workers += 1;
    }
    if (workers == 0) continue;
    split->windows += 1;
    split->compute_us += compute / static_cast<double>(workers);
    split->wire_us += wire / static_cast<double>(workers);
    split->wait_us += wait / static_cast<double>(workers);
  }
  finish(out.prefill);
  finish(out.step);

  obs::Micros spread_us = 0;
  for (const obs::CollectiveRound& round : report.rounds) {
    if (round.name != "softmax_merge") continue;
    spread_us += round.total_spread_us;
    out.merge_rounds += round.rounds;
  }
  if (out.merge_rounds > 0) {
    out.merge_spread_us = static_cast<double>(spread_us) /
                          static_cast<double>(out.merge_rounds);
  }

  const std::set<std::int64_t> wanted(inline_requests.begin(),
                                      inline_requests.end());
  for (const obs::TraceEvent& e : trace.events) {
    if (e.phase == obs::EventPhase::kComplete &&
        std::string_view(e.name) == "service" &&
        std::string_view(e.category) == "serve" && wanted.contains(e.request)) {
      out.inline_service_ms.push_back(static_cast<double>(e.duration_us) /
                                      1e3);
    }
  }

  std::printf("\ncritical path (%zu events), mean per window:\n",
              trace.events.size());
  std::printf("  %-14s %-8s %6s %8s %12s %12s %12s\n", "workload", "phase",
              "device", "windows", "compute_us", "wire_us", "wait_us");
  for (const auto& [key, row] : rows) {
    const auto n = static_cast<double>(row.windows);
    std::printf("  %-14s %-8s %6lld %8zu %12.1f %12.1f %12.1f\n",
                workload.c_str(), key.first.c_str(),
                static_cast<long long>(key.second), row.windows,
                row.compute_us / n, row.wire_us / n, row.wait_us / n);
  }
  return out;
}

}  // namespace perfbench
