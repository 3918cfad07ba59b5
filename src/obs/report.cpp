#include "obs/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace voltage::obs {

namespace {

[[noreturn]] void invalid(const std::string& what) {
  throw std::runtime_error("trace: " + what);
}

std::int64_t require_int(const json::Value& event, std::string_view key) {
  const json::Value* v = event.find(key);
  if (v == nullptr || !v->is_number()) {
    invalid("duration event missing numeric \"" + std::string(key) + "\"");
  }
  return static_cast<std::int64_t>(v->as_number());
}

const char* intern(LoadedTrace& trace, const std::string& s) {
  trace.strings.push_back(std::make_unique<std::string>(s));
  return trace.strings.back()->c_str();
}

// Fills the attribute fields from the event's "args" object, if present.
void read_args(const json::Value& event, TraceEvent& out) {
  const json::Value* args = event.find("args");
  if (args == nullptr || !args->is_object()) return;
  if (const json::Value* v = args->find("device");
      v != nullptr && v->is_number()) {
    out.device = static_cast<std::int64_t>(v->as_number());
  }
  if (const json::Value* v = args->find("layer");
      v != nullptr && v->is_number()) {
    out.layer = static_cast<std::int64_t>(v->as_number());
  }
  if (const json::Value* v = args->find("bytes");
      v != nullptr && v->is_number()) {
    out.bytes = static_cast<std::int64_t>(v->as_number());
  }
  if (const json::Value* v = args->find("raw_bytes");
      v != nullptr && v->is_number()) {
    out.raw_bytes = static_cast<std::int64_t>(v->as_number());
  }
  if (const json::Value* v = args->find("request");
      v != nullptr && v->is_number()) {
    out.request = static_cast<std::int64_t>(v->as_number());
  }
  if (const json::Value* v = args->find("trace");
      v != nullptr && v->is_number()) {
    out.trace = static_cast<std::int64_t>(v->as_number());
  }
  if (const json::Value* v = args->find("batch");
      v != nullptr && v->is_number()) {
    out.batch = static_cast<std::int64_t>(v->as_number());
  }
  if (const json::Value* v = args->find("tokens");
      v != nullptr && v->is_number()) {
    out.tokens = static_cast<std::int64_t>(v->as_number());
  }
  if (const json::Value* v = args->find("drafts");
      v != nullptr && v->is_number()) {
    out.drafts = static_cast<std::int64_t>(v->as_number());
  }
  if (const json::Value* v = args->find("accepted");
      v != nullptr && v->is_number()) {
    out.accepted = static_cast<std::int64_t>(v->as_number());
  }
  if (const json::Value* v = args->find("tag");
      v != nullptr && v->is_string()) {
    out.tag = v->as_string();
  }
}

}  // namespace

LoadedTrace load_chrome_trace(std::string_view json_text) {
  const json::Value root = json::parse(json_text);
  const json::Value* trace_events = root.find("traceEvents");
  if (trace_events == nullptr) {
    // A bare array of events is also a valid Chrome trace.
    if (!root.is_array()) invalid("no \"traceEvents\" array");
    trace_events = &root;
  }
  if (!trace_events->is_array()) invalid("\"traceEvents\" is not an array");

  LoadedTrace trace;
  // Open "B" events per track, awaiting their "E".
  std::map<TrackId, std::vector<TraceEvent>> open;
  Micros last_ts = std::numeric_limits<Micros>::min();

  for (const json::Value& entry : trace_events->as_array()) {
    if (!entry.is_object()) invalid("event is not an object");
    const json::Value* ph = entry.find("ph");
    if (ph == nullptr || !ph->is_string()) invalid("event without \"ph\"");
    const std::string& phase = ph->as_string();
    const json::Value* name = entry.find("name");
    if (name == nullptr || !name->is_string()) {
      invalid("event without \"name\"");
    }

    if (phase == "M") {
      if (name->as_string() == "thread_name") {
        const json::Value* args = entry.find("args");
        const json::Value* label =
            args != nullptr ? args->find("name") : nullptr;
        if (label != nullptr && label->is_string()) {
          trace.track_names.emplace_back(
              static_cast<TrackId>(require_int(entry, "tid")),
              label->as_string());
        }
      } else if (name->as_string() == "clock_sync") {
        const json::Value* args = entry.find("args");
        const json::Value* steady =
            args != nullptr ? args->find("steady_us") : nullptr;
        const json::Value* wall =
            args != nullptr ? args->find("wall_unix_us") : nullptr;
        if (steady != nullptr && steady->is_number() && wall != nullptr &&
            wall->is_number()) {
          trace.has_clock_anchor = true;
          trace.clock_anchor.steady_us =
              static_cast<Micros>(steady->as_number());
          trace.clock_anchor.wall_unix_us =
              static_cast<std::int64_t>(wall->as_number());
        }
      }
      continue;  // other metadata is legal and ignored
    }

    if (phase != "X" && phase != "B" && phase != "E" && phase != "s" &&
        phase != "f") {
      invalid("unsupported event phase \"" + phase + "\"");
    }

    TraceEvent e;
    e.name = intern(trace, name->as_string());
    if (const json::Value* cat = entry.find("cat");
        cat != nullptr && cat->is_string()) {
      e.category = intern(trace, cat->as_string());
    }
    (void)require_int(entry, "pid");  // structural requirement only
    e.track = static_cast<TrackId>(require_int(entry, "tid"));
    e.start_us = require_int(entry, "ts");
    if (e.start_us < last_ts) invalid("timestamps not sorted");
    last_ts = e.start_us;
    read_args(entry, e);

    if (phase == "X") {
      e.duration_us = require_int(entry, "dur");
      if (e.duration_us < 0) invalid("negative duration");
      trace.events.push_back(std::move(e));
    } else if (phase == "s" || phase == "f") {
      e.phase = phase == "s" ? EventPhase::kFlowStart : EventPhase::kFlowEnd;
      const std::int64_t id = require_int(entry, "id");
      if (id < 0) invalid("negative flow id");
      e.flow_id = static_cast<std::uint64_t>(id);
      trace.events.push_back(std::move(e));
    } else if (phase == "B") {
      open[e.track].push_back(std::move(e));
    } else {  // "E"
      auto& stack = open[e.track];
      if (stack.empty()) invalid("\"E\" event without matching \"B\"");
      TraceEvent begun = std::move(stack.back());
      stack.pop_back();
      if (std::string_view(begun.name) != std::string_view(e.name)) {
        invalid("mismatched B/E pair: \"" + std::string(begun.name) +
                "\" closed by \"" + e.name + "\"");
      }
      begun.duration_us = e.start_us - begun.start_us;
      trace.events.push_back(std::move(begun));
    }
  }

  for (const auto& [track, stack] : open) {
    if (!stack.empty()) {
      invalid("unclosed \"B\" event \"" + std::string(stack.back().name) +
              "\" on track " + std::to_string(track));
    }
  }

  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_us < b.start_us;
                   });
  return trace;
}

LoadedTrace load_chrome_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return load_chrome_trace(text.str());
}

std::vector<std::string> flow_problems(const LoadedTrace& trace) {
  std::vector<std::string> problems;
  // Events are sorted by ts, so walking in order sees every start before
  // its end (the transports stamp the start before delivery).
  std::map<std::uint64_t, const TraceEvent*> open;  // flow id → start event
  for (const TraceEvent& e : trace.events) {
    if (e.phase == EventPhase::kFlowStart) {
      const auto [it, inserted] = open.emplace(e.flow_id, &e);
      if (!inserted) {
        problems.push_back("duplicate flow start id " +
                           std::to_string(e.flow_id) + " at t=" +
                           std::to_string(e.start_us) + "us");
      }
    } else if (e.phase == EventPhase::kFlowEnd) {
      const auto it = open.find(e.flow_id);
      if (it == open.end()) {
        problems.push_back("flow end without start: id " +
                           std::to_string(e.flow_id) + " on track " +
                           std::to_string(e.track) + " at t=" +
                           std::to_string(e.start_us) + "us");
      } else {
        open.erase(it);
      }
    }
  }
  for (const auto& [id, start] : open) {
    problems.push_back("flow start without end: id " + std::to_string(id) +
                       " on track " + std::to_string(start->track) +
                       " at t=" + std::to_string(start->start_us) +
                       "us (sent but never received)");
  }
  return problems;
}

TraceReport build_report(const LoadedTrace& trace) {
  TraceReport report;
  report.events = trace.events.size();

  std::map<std::pair<std::int64_t, std::int64_t>, LayerRow> layers;
  std::map<std::int64_t, DeviceRow> devices;
  std::map<std::int64_t, DecodeBatchRow> batches;
  Micros first = std::numeric_limits<Micros>::max();
  Micros last = std::numeric_limits<Micros>::min();

  // Per track, the "layer" spans in start order. A gemm span counts toward
  // a (layer, device) row only inside that row's layer span on its own
  // track: a decode step's GEMMs carry a layer too, but no layer span.
  std::map<TrackId, std::vector<const TraceEvent*>> layer_spans;
  for (const TraceEvent& e : trace.events) {
    if (e.phase == EventPhase::kComplete && e.layer >= 0 &&
        std::string_view(e.name) == "layer") {
      layer_spans[e.track].push_back(&e);
    }
  }
  const auto inside_layer_span = [&](const TraceEvent& e) {
    const auto it = layer_spans.find(e.track);
    if (it == layer_spans.end()) return false;
    // Layer spans on one track never overlap: the candidate is the last
    // one starting at or before `e`.
    const auto next = std::upper_bound(
        it->second.begin(), it->second.end(), e.start_us,
        [](Micros t, const TraceEvent* span) { return t < span->start_us; });
    if (next == it->second.begin()) return false;
    const TraceEvent& span = **std::prev(next);
    return span.layer == e.layer &&
           e.start_us + e.duration_us <= span.start_us + span.duration_us;
  };

  for (const TraceEvent& e : trace.events) {
    first = std::min(first, e.start_us);
    last = std::max(last, e.start_us + e.duration_us);

    // Flow endpoints are instants, not spans — they carry no durations to
    // aggregate here (critical_path.h consumes them).
    if (e.phase != EventPhase::kComplete) continue;

    const std::int64_t device =
        e.device >= 0 ? e.device : static_cast<std::int64_t>(e.track);
    const std::string_view category(e.category);
    DeviceRow& dev = devices[device];
    dev.device = device;
    dev.spans += 1;
    if (category == "compute") dev.compute_us += e.duration_us;
    if (category == "kernel") dev.gemm_us += e.duration_us;
    if (category == "comm") {
      dev.comm_us += e.duration_us;
      if (e.bytes > 0) dev.bytes_sent += e.bytes;
    }

    const std::string_view span_name(e.name);
    if (span_name == "decode.prefill") {
      report.decode.prefills += 1;
      report.decode.prefill_us += e.duration_us;
    } else if (span_name == "decode.step") {
      const std::int64_t b = e.batch > 0 ? e.batch : 1;
      // Speculative-era spans carry the committed-token count; older traces
      // fall back to one token per lane.
      const std::size_t committed =
          e.tokens >= 0 ? static_cast<std::size_t>(e.tokens)
                        : static_cast<std::size_t>(b);
      report.decode.steps += 1;
      report.decode.tokens += committed;
      report.decode.step_us += e.duration_us;
      if (e.bytes > 0) report.decode.step_bytes += e.bytes;
      DecodeBatchRow& row = batches[b];
      row.batch = b;
      row.steps += 1;
      row.step_us += e.duration_us;
      row.tokens += committed;
      if (e.bytes > 0) row.step_bytes += e.bytes;
      if (e.drafts > 0) {
        report.decode.drafts += static_cast<std::size_t>(e.drafts);
        row.drafts += static_cast<std::size_t>(e.drafts);
        if (e.accepted > 0) {
          report.decode.accepted += static_cast<std::size_t>(e.accepted);
          row.accepted += static_cast<std::size_t>(e.accepted);
        }
      }
    }

    if (e.layer < 0) continue;
    LayerRow& row = layers[{e.layer, device}];
    row.device = device;
    row.layer = e.layer;
    const std::string_view name(e.name);
    if (name == "layer") {
      row.compute_us += e.duration_us;
      if (!e.tag.empty()) row.order = e.tag;
    } else if (name == "gemm") {
      if (inside_layer_span(e)) row.gemm_us += e.duration_us;
    } else if (name == "all_gather") {
      row.all_gather_us += e.duration_us;
      if (e.bytes > 0) {
        row.all_gather_bytes += e.bytes;
        // Quantized spans report the fp32-equivalent in raw_bytes; fp32
        // spans have none, so their encoded size is their raw size.
        row.all_gather_raw_bytes += e.raw_bytes >= 0 ? e.raw_bytes : e.bytes;
      }
    } else if (name == "gather_wait") {
      row.gather_wait_us += e.duration_us;
    } else if (name == "overlap_compute") {
      row.overlap_us += e.duration_us;
    }
  }

  if (!trace.events.empty()) report.wall_us = last - first;
  report.layers.reserve(layers.size());
  for (auto& [key, row] : layers) report.layers.push_back(std::move(row));
  report.devices.reserve(devices.size());
  for (auto& [key, row] : devices) report.devices.push_back(std::move(row));
  report.decode.by_batch.reserve(batches.size());
  for (auto& [key, row] : batches) report.decode.by_batch.push_back(row);
  return report;
}

std::string format_report(const TraceReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "trace: %zu events, wall time %.3f ms\n\n", report.events,
                static_cast<double>(report.wall_us) / 1000.0);
  out += line;

  if (!report.layers.empty()) {
    out +=
        "layer  device  compute_us  gemm_us  all_gather_us  gather_wait_us  "
        "overlap_us  all_gather_bytes  fp32_equiv_bytes  order\n";
    for (const LayerRow& row : report.layers) {
      std::snprintf(
          line, sizeof(line),
          "%5lld  %6lld  %10lld  %7lld  %13lld  %14lld  %10lld  %16lld  "
          "%16lld  %s\n",
          static_cast<long long>(row.layer),
          static_cast<long long>(row.device),
          static_cast<long long>(row.compute_us),
          static_cast<long long>(row.gemm_us),
          static_cast<long long>(row.all_gather_us),
          static_cast<long long>(row.gather_wait_us),
          static_cast<long long>(row.overlap_us),
          static_cast<long long>(row.all_gather_bytes),
          static_cast<long long>(row.all_gather_raw_bytes),
          row.order.empty() ? "-" : row.order.c_str());
      out += line;
    }
    out += "\n";
  }

  out += "device  compute_us  gemm_us  comm_us  bytes_sent  spans\n";
  for (const DeviceRow& row : report.devices) {
    std::snprintf(line, sizeof(line),
                  "%6lld  %10lld  %7lld  %7lld  %10lld  %5zu\n",
                  static_cast<long long>(row.device),
                  static_cast<long long>(row.compute_us),
                  static_cast<long long>(row.gemm_us),
                  static_cast<long long>(row.comm_us),
                  static_cast<long long>(row.bytes_sent), row.spans);
    out += line;
  }

  if (report.decode.steps > 0 || report.decode.prefills > 0) {
    out += "\ndecode  prefill_us  steps  tokens  tok_per_step  tokens_per_s"
           "  bytes_per_token  accept_rate\n";
    char accept[32] = "-";
    if (report.decode.drafts > 0) {
      std::snprintf(accept, sizeof(accept), "%.3f",
                    report.decode.acceptance_rate());
    }
    std::snprintf(line, sizeof(line),
                  "%6zu  %10lld  %5zu  %6zu  %12.2f  %12.1f  %15.0f  %11s\n",
                  report.decode.prefills,
                  static_cast<long long>(report.decode.prefill_us),
                  report.decode.steps, report.decode.tokens,
                  report.decode.tokens_per_step(),
                  report.decode.tokens_per_second(),
                  report.decode.bytes_per_token(), accept);
    out += line;
  }

  if (!report.decode.by_batch.empty()) {
    out += "\nbatch  steps  step_us_mean  step_bytes_mean  tok_per_step"
           "  accept_rate\n";
    for (const DecodeBatchRow& row : report.decode.by_batch) {
      const double n = static_cast<double>(row.steps);
      char accept[32] = "-";
      if (row.drafts > 0) {
        std::snprintf(accept, sizeof(accept), "%.3f",
                      static_cast<double>(row.accepted) /
                          static_cast<double>(row.drafts));
      }
      std::snprintf(line, sizeof(line),
                    "%5lld  %5zu  %12.1f  %15.1f  %12.2f  %11s\n",
                    static_cast<long long>(row.batch), row.steps,
                    n > 0.0 ? static_cast<double>(row.step_us) / n : 0.0,
                    n > 0.0 ? static_cast<double>(row.step_bytes) / n : 0.0,
                    n > 0.0 ? static_cast<double>(row.tokens) / n : 0.0,
                    accept);
      out += line;
    }
  }
  return out;
}

}  // namespace voltage::obs
