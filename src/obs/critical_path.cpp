#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <string_view>
#include <unordered_map>

namespace voltage::obs {

namespace {

using Interval = std::pair<Micros, Micros>;  // [start, end)

// Sorts and merges into disjoint intervals; drops empties.
std::vector<Interval> merged(std::vector<Interval> intervals) {
  std::erase_if(intervals,
                [](const Interval& i) { return i.second <= i.first; });
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> out;
  for (const Interval& i : intervals) {
    if (!out.empty() && i.first <= out.back().second) {
      out.back().second = std::max(out.back().second, i.second);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

Micros measure(const std::vector<Interval>& intervals) {
  Micros total = 0;
  for (const Interval& i : intervals) total += i.second - i.first;
  return total;
}

// |a ∩ b| for two merged interval sets.
Micros overlap(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  Micros total = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const Micros lo = std::max(a[i].first, b[j].first);
    const Micros hi = std::min(a[i].second, b[j].second);
    if (hi > lo) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

Interval clip(Micros start, Micros end, const Interval& window) {
  return {std::max(start, window.first), std::min(end, window.second)};
}

struct CommSpan {
  const TraceEvent* event = nullptr;
  // Latest matched flow-start among the flow ends consumed inside this
  // span: the receiver could not possibly have finished waiting before the
  // last sender sent. 0 when the span consumed nothing (a pure send).
  Micros last_data_ready_us = 0;
};

struct TrackState {
  std::int64_t device = -1;           // device attr seen on this track
  std::vector<const TraceEvent*> compute;  // category "compute", by start
  std::vector<CommSpan> comm;              // category "comm", by start
  std::vector<const TraceEvent*> flow_ends;
  bool participant = false;  // has compute or comm activity
};

}  // namespace

CriticalPathReport analyze_critical_path(const LoadedTrace& trace) {
  CriticalPathReport report;

  // --- Pass 1: bucket events per track, index flow starts globally. ------
  std::map<std::int64_t, TrackState> tracks;
  std::unordered_map<std::uint64_t, Micros> flow_start_ts;
  std::vector<const TraceEvent*> window_spans;
  Micros first_ts = std::numeric_limits<Micros>::max();
  Micros last_ts = std::numeric_limits<Micros>::min();

  for (const TraceEvent& e : trace.events) {
    first_ts = std::min(first_ts, e.start_us);
    last_ts = std::max(last_ts, e.start_us + e.duration_us);
    const auto track = static_cast<std::int64_t>(e.track);
    if (e.phase == EventPhase::kFlowStart) {
      flow_start_ts.emplace(e.flow_id, e.start_us);
      continue;
    }
    if (e.phase == EventPhase::kFlowEnd) {
      tracks[track].flow_ends.push_back(&e);
      continue;
    }
    const std::string_view category(e.category);
    const std::string_view name(e.name);
    if (category == "compute") {
      TrackState& state = tracks[track];
      state.compute.push_back(&e);
      state.participant = true;
      if (e.device >= 0) state.device = e.device;
    } else if (category == "comm") {
      TrackState& state = tracks[track];
      state.comm.push_back(CommSpan{.event = &e, .last_data_ready_us = 0});
      state.participant = true;
      if (e.device >= 0) state.device = e.device;
    }
    if (name == "decode.prefill" || name == "decode.step" ||
        name == "service") {
      window_spans.push_back(&e);
    }
  }
  if (trace.events.empty()) return report;

  // --- Pass 2: assign each flow end to its innermost comm span and push
  // the span's data-ready time forward to the latest matched sender. ------
  for (auto& [track, state] : tracks) {
    (void)track;
    for (const TraceEvent* end : state.flow_ends) {
      const auto it = flow_start_ts.find(end->flow_id);
      if (it == flow_start_ts.end()) continue;  // dangling arrow; skip
      const Micros ready_us = it->second;
      // Innermost containing comm span: spans on one track nest properly,
      // so among those containing the timestamp, the latest-starting one
      // is innermost. comm is sorted by start (trace.events was).
      CommSpan* best = nullptr;
      for (auto rit = state.comm.rbegin(); rit != state.comm.rend(); ++rit) {
        const TraceEvent& s = *rit->event;
        if (s.start_us > end->start_us) continue;
        if (s.start_us + s.duration_us >= end->start_us) {
          best = &*rit;
          break;
        }
        // Started before the flow end yet finished before it: with proper
        // nesting no earlier span can contain it through this one's gap —
        // but an outer span still might, so keep scanning.
      }
      if (best != nullptr) {
        best->last_data_ready_us =
            std::max(best->last_data_ready_us, ready_us);
      }
    }
  }

  // --- Windows: decode spans if present, else service spans, else the
  // whole trace. ---------------------------------------------------------
  struct Window {
    std::string label;
    Interval interval;
    std::int64_t index = -1;
    std::int64_t trace_id = -1;
    std::int64_t batch = -1;
    std::int64_t tokens = -1;
    std::int64_t accepted = -1;
  };
  std::vector<Window> windows;
  const bool has_decode = std::any_of(
      window_spans.begin(), window_spans.end(), [](const TraceEvent* e) {
        const std::string_view n(e->name);
        return n == "decode.prefill" || n == "decode.step";
      });
  for (const TraceEvent* e : window_spans) {
    const std::string_view n(e->name);
    if (has_decode && n == "service") continue;
    windows.push_back(Window{
        .label = n == "decode.prefill" ? "prefill"
                 : n == "decode.step"  ? "step"
                                       : "service",
        .interval = {e->start_us, e->start_us + e->duration_us},
        .index = e->request,
        .trace_id = e->trace,
        .batch = e->batch,
        .tokens = e->tokens,
        .accepted = e->accepted,
    });
  }
  if (windows.empty()) {
    windows.push_back(Window{.label = "trace",
                             .interval = {first_ts, last_ts},
                             .index = -1,
                             .trace_id = -1});
  }
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) {
              return a.interval.first < b.interval.first;
            });

  // --- Per window × track: the exact three-way decomposition. ------------
  std::map<std::int64_t, DeviceSlice> totals;
  for (const Window& w : windows) {
    WindowAttribution attribution;
    attribution.label = w.label;
    attribution.index = w.index;
    attribution.trace_id = w.trace_id;
    attribution.batch = w.batch;
    attribution.tokens = w.tokens;
    attribution.accepted = w.accepted;
    attribution.start_us = w.interval.first;
    attribution.wall_us = w.interval.second - w.interval.first;

    Micros worst_wait = -1;
    for (const auto& [track, state] : tracks) {
      if (!state.participant) continue;
      std::vector<Interval> compute_iv;
      for (const TraceEvent* e : state.compute) {
        compute_iv.push_back(
            clip(e->start_us, e->start_us + e->duration_us, w.interval));
      }
      std::vector<Interval> comm_iv;
      std::vector<Interval> wait_iv;
      for (const CommSpan& s : state.comm) {
        const TraceEvent& e = *s.event;
        comm_iv.push_back(
            clip(e.start_us, e.start_us + e.duration_us, w.interval));
        if (s.last_data_ready_us > e.start_us) {
          // Blocked from span entry until the last sender's data left.
          wait_iv.push_back(
              clip(e.start_us,
                   std::min(s.last_data_ready_us,
                            e.start_us + e.duration_us),
                   w.interval));
        }
      }
      const std::vector<Interval> compute_u = merged(std::move(compute_iv));
      const std::vector<Interval> comm_u = merged(std::move(comm_iv));
      const std::vector<Interval> wait_u = merged(std::move(wait_iv));

      DeviceSlice slice;
      slice.track = track;
      slice.device = state.device >= 0 ? state.device : track;
      // Comm nested inside compute spans counts as comm, not compute.
      slice.compute_us = measure(compute_u) - overlap(compute_u, comm_u);
      const Micros comm_us = measure(comm_u);
      const Micros blocked_us = measure(wait_u);  // wait_u ⊆ comm_u
      slice.wire_us = comm_us - blocked_us;
      // Everything not compute and not comm is idle: the device had
      // nothing to do for this window (it had finished, or the command
      // hadn't reached it yet). Idle + blocked is the wait bucket.
      const Micros idle_us =
          attribution.wall_us - slice.compute_us - comm_us;
      slice.wait_us = blocked_us + idle_us;
      if (slice.wait_us > worst_wait) {
        worst_wait = slice.wait_us;
        attribution.straggler_track = track;
      }

      DeviceSlice& total = totals[track];
      total.track = track;
      total.device = slice.device;
      total.compute_us += slice.compute_us;
      total.wire_us += slice.wire_us;
      total.wait_us += slice.wait_us;
      report.compute_us += slice.compute_us;
      report.wire_us += slice.wire_us;
      report.wait_us += slice.wait_us;

      attribution.devices.push_back(slice);
    }
    report.windows.push_back(std::move(attribution));
  }
  report.device_totals.reserve(totals.size());
  for (const auto& [track, slice] : totals) {
    (void)track;
    report.device_totals.push_back(slice);
  }

  // --- Prefill per-layer rows (the measured Eq.-3 terms). ----------------
  std::vector<Interval> prefill_iv;
  for (const Window& w : windows) {
    if (w.label == "prefill" || w.label == "service" || w.label == "trace") {
      prefill_iv.push_back(w.interval);
    }
  }
  const std::vector<Interval> prefill_u = merged(std::move(prefill_iv));
  const auto inside_prefill = [&](Micros ts) {
    for (const Interval& i : prefill_u) {
      if (ts >= i.first && ts < i.second) return true;
    }
    return false;
  };
  std::map<std::pair<std::int64_t, std::int64_t>, LayerPath> layer_paths;
  for (const auto& [track, state] : tracks) {
    if (!state.participant) continue;
    // A "layer" span nests its "attention" and "ffn" spans under the same
    // layer, so each row counts the union of its compute intervals.
    std::map<std::int64_t, std::vector<Interval>> compute_iv;
    for (const TraceEvent* e : state.compute) {
      if (e->layer < 0 || !inside_prefill(e->start_us)) continue;
      compute_iv[e->layer].emplace_back(e->start_us,
                                        e->start_us + e->duration_us);
    }
    for (auto& [layer, intervals] : compute_iv) {
      LayerPath& row = layer_paths[{layer, track}];
      row.layer = layer;
      row.track = track;
      row.device = state.device >= 0 ? state.device : track;
      row.compute_us = measure(merged(std::move(intervals)));
    }
    for (const CommSpan& s : state.comm) {
      const TraceEvent& e = *s.event;
      if (e.layer < 0 || !inside_prefill(e.start_us)) continue;
      // Skip nested waits ("gather_wait" lives inside "all_gather"): the
      // outer span already covers the same wall time.
      if (std::string_view(e.name) == "gather_wait") continue;
      LayerPath& row = layer_paths[{e.layer, track}];
      row.layer = e.layer;
      row.track = track;
      row.device = state.device >= 0 ? state.device : track;
      const Micros blocked =
          s.last_data_ready_us > e.start_us
              ? std::min(s.last_data_ready_us, e.start_us + e.duration_us) -
                    e.start_us
              : 0;
      row.wait_us += blocked;
      row.wire_us += e.duration_us - blocked;
    }
  }
  // The inner gather_wait consumed the flow ends, so pull its blocked time
  // up into the (layer, track) row the enclosing all_gather belongs to.
  for (const auto& [track, state] : tracks) {
    if (!state.participant) continue;
    for (const CommSpan& s : state.comm) {
      const TraceEvent& e = *s.event;
      if (e.layer < 0 || !inside_prefill(e.start_us)) continue;
      if (std::string_view(e.name) != "gather_wait") continue;
      const auto it = layer_paths.find({e.layer, track});
      if (it == layer_paths.end()) continue;
      const Micros blocked =
          s.last_data_ready_us > e.start_us
              ? std::min(s.last_data_ready_us, e.start_us + e.duration_us) -
                    e.start_us
              : 0;
      it->second.wait_us += blocked;
      it->second.wire_us -= std::min(blocked, it->second.wire_us);
    }
  }
  report.layers.reserve(layer_paths.size());
  for (auto& [key, row] : layer_paths) {
    (void)key;
    report.layers.push_back(row);
  }

  // --- Straggler per collective round. -----------------------------------
  struct RoundAccumulator {
    std::size_t rounds = 0;
    Micros max_spread_us = 0;
    Micros total_spread_us = 0;
    std::map<std::int64_t, std::size_t> straggler_counts;
  };
  std::map<std::pair<std::string, std::int64_t>, RoundAccumulator> round_acc;
  for (const Window& w : windows) {
    // Group this window's comm spans by (name, layer); entry-time skew
    // across devices is the straggler signature.
    struct Entry {
      Micros min_start = std::numeric_limits<Micros>::max();
    };
    std::map<std::pair<std::string, std::int64_t>, std::map<std::int64_t, Entry>>
        groups;
    for (const auto& [track, state] : tracks) {
      if (!state.participant) continue;
      for (const CommSpan& s : state.comm) {
        const TraceEvent& e = *s.event;
        if (e.start_us < w.interval.first || e.start_us >= w.interval.second) {
          continue;
        }
        if (std::string_view(e.name) == "gather_wait") continue;  // nested
        Entry& entry = groups[{std::string(e.name), e.layer}][track];
        entry.min_start = std::min(entry.min_start, e.start_us);
      }
    }
    for (const auto& [key, by_track] : groups) {
      if (by_track.size() < 2) continue;  // not a collective round
      Micros min_entry = std::numeric_limits<Micros>::max();
      Micros max_entry = std::numeric_limits<Micros>::min();
      std::int64_t last_track = -1;
      for (const auto& [track, entry] : by_track) {
        min_entry = std::min(min_entry, entry.min_start);
        if (entry.min_start > max_entry) {
          max_entry = entry.min_start;
          last_track = track;
        }
      }
      RoundAccumulator& acc = round_acc[key];
      acc.rounds += 1;
      const Micros spread = max_entry - min_entry;
      acc.max_spread_us = std::max(acc.max_spread_us, spread);
      acc.total_spread_us += spread;
      acc.straggler_counts[last_track] += 1;
    }
  }
  report.rounds.reserve(round_acc.size());
  for (const auto& [key, acc] : round_acc) {
    CollectiveRound round;
    round.name = key.first;
    round.layer = key.second;
    round.rounds = acc.rounds;
    round.max_spread_us = acc.max_spread_us;
    round.total_spread_us = acc.total_spread_us;
    for (const auto& [track, count] : acc.straggler_counts) {
      if (count > round.straggler_count) {
        round.straggler_count = count;
        round.straggler_track = track;
      }
    }
    report.rounds.push_back(std::move(round));
  }

  return report;
}

std::string format_critical_path(const CriticalPathReport& report) {
  std::string out;
  char line[256];

  std::size_t prefills = 0;
  std::size_t steps = 0;
  for (const WindowAttribution& w : report.windows) {
    if (w.label == "prefill") prefills += 1;
    if (w.label == "step") steps += 1;
  }
  std::snprintf(line, sizeof(line),
                "critical path: %zu windows (%zu prefill, %zu steps), "
                "%zu devices\n",
                report.windows.size(), prefills, steps,
                report.device_totals.size());
  out += line;
  std::snprintf(line, sizeof(line),
                "totals: compute %lldus  wire %lldus  wait %lldus  "
                "(comm fraction %.3f, wait fraction %.3f)\n\n",
                static_cast<long long>(report.compute_us),
                static_cast<long long>(report.wire_us),
                static_cast<long long>(report.wait_us),
                report.comm_fraction(), report.wait_fraction());
  out += line;

  out += "device totals:\n";
  out += "track  device  compute_us  wire_us  wait_us  busy_frac\n";
  for (const DeviceSlice& d : report.device_totals) {
    const double total = static_cast<double>(d.total_us());
    std::snprintf(line, sizeof(line),
                  "%5lld  %6lld  %10lld  %7lld  %7lld  %9.3f\n",
                  static_cast<long long>(d.track),
                  static_cast<long long>(d.device),
                  static_cast<long long>(d.compute_us),
                  static_cast<long long>(d.wire_us),
                  static_cast<long long>(d.wait_us),
                  total > 0.0
                      ? static_cast<double>(d.compute_us + d.wire_us) / total
                      : 0.0);
    out += line;
  }

  out += "\nwindows:\n";
  out +=
      "window    idx  trace  batch  tokens  accepted       wall_us  "
      "straggler  per-device compute/wire/wait (us)\n";
  for (const WindowAttribution& w : report.windows) {
    std::snprintf(line, sizeof(line),
                  "%-8s  %3lld  %5lld  %5lld  %6lld  %8lld  %12lld  "
                  "%9lld  ",
                  w.label.c_str(), static_cast<long long>(w.index),
                  static_cast<long long>(w.trace_id),
                  static_cast<long long>(w.batch),
                  static_cast<long long>(w.tokens),
                  static_cast<long long>(w.accepted),
                  static_cast<long long>(w.wall_us),
                  static_cast<long long>(w.straggler_track));
    out += line;
    for (const DeviceSlice& d : w.devices) {
      std::snprintf(line, sizeof(line), "[%lld: %lld/%lld/%lld] ",
                    static_cast<long long>(d.track),
                    static_cast<long long>(d.compute_us),
                    static_cast<long long>(d.wire_us),
                    static_cast<long long>(d.wait_us));
      out += line;
    }
    out += "\n";
  }

  if (!report.layers.empty()) {
    out += "\nprefill layers:\n";
    out += "layer  track  compute_us  wire_us  wait_us\n";
    for (const LayerPath& row : report.layers) {
      std::snprintf(line, sizeof(line), "%5lld  %5lld  %10lld  %7lld  %7lld\n",
                    static_cast<long long>(row.layer),
                    static_cast<long long>(row.track),
                    static_cast<long long>(row.compute_us),
                    static_cast<long long>(row.wire_us),
                    static_cast<long long>(row.wait_us));
      out += line;
    }
  }

  if (!report.rounds.empty()) {
    out += "\ncollective rounds:\n";
    out +=
        "collective       layer  rounds  straggler  straggler_n  "
        "max_spread_us  mean_spread_us\n";
    for (const CollectiveRound& round : report.rounds) {
      std::snprintf(
          line, sizeof(line), "%-15s  %5lld  %6zu  %9lld  %11zu  %13lld  %14.1f\n",
          round.name.c_str(), static_cast<long long>(round.layer),
          round.rounds, static_cast<long long>(round.straggler_track),
          round.straggler_count,
          static_cast<long long>(round.max_spread_us),
          round.rounds > 0 ? static_cast<double>(round.total_spread_us) /
                                 static_cast<double>(round.rounds)
                           : 0.0);
      out += line;
    }
  }
  return out;
}

}  // namespace voltage::obs
