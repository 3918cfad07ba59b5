#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace voltage::obs {

namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

thread_local Tracer* t_ambient_tracer = nullptr;
thread_local std::uint64_t t_ambient_trace_id = 0;

// JSON string escaping for the few fields that carry free-form text.
void write_escaped(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out << "\\u00" << kHex[(c >> 4) & 0xF] << kHex[c & 0xF];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

Tracer::Tracer() : id_(next_tracer_id()) {}

Tracer::Buffer& Tracer::local_buffer() {
  // Each thread remembers the buffers it already owns, keyed by the
  // tracer's process-unique id (ids are never reused, so a stale entry for
  // a destroyed tracer can never be confused with a live one). The list is
  // tiny — almost always one entry — so a linear scan beats any map.
  thread_local std::vector<std::pair<std::uint64_t, Buffer*>> cache;
  for (const auto& [id, buffer] : cache) {
    if (id == id_) return *buffer;
  }
  auto owned = std::make_unique<Buffer>();
  Buffer* buffer = owned.get();
  {
    const std::lock_guard lock(mutex_);
    buffers_.push_back(std::move(owned));
  }
  cache.emplace_back(id_, buffer);
  return *buffer;
}

void Tracer::record(TraceEvent event) {
  Buffer& buffer = local_buffer();
  const std::lock_guard lock(buffer.mutex);
  buffer.events.push_back(std::move(event));
}

void Tracer::set_track_name(TrackId track, std::string name) {
  const std::lock_guard lock(mutex_);
  track_names_[track] = std::move(name);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> merged;
  {
    const std::lock_guard lock(mutex_);
    for (const auto& buffer : buffers_) {
      const std::lock_guard buffer_lock(buffer->mutex);
      merged.insert(merged.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  // By start time, a flow's end after the rest of its microsecond: a hop
  // can take under a microsecond, and each start must precede its end.
  const auto key = [](const TraceEvent& e) {
    return std::pair(e.start_us, e.phase == EventPhase::kFlowEnd);
  };
  std::stable_sort(merged.begin(), merged.end(),
                   [&](const TraceEvent& a, const TraceEvent& b) {
                     return key(a) < key(b);
                   });
  return merged;
}

std::size_t Tracer::size() const {
  const std::lock_guard lock(mutex_);
  std::size_t total = 0;
  for (const auto& buffer : buffers_) {
    const std::lock_guard buffer_lock(buffer->mutex);
    total += buffer->events.size();
  }
  return total;
}

void Tracer::clear() {
  const std::lock_guard lock(mutex_);
  for (const auto& buffer : buffers_) {
    const std::lock_guard buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const std::vector<TraceEvent> sorted = events();
  std::map<TrackId, std::string> track_names;
  {
    const std::lock_guard lock(mutex_);
    track_names = track_names_;
  }

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out << ",";
    first = false;
  };
  // Metadata first: Perfetto uses thread_name to label tracks, and the
  // clock_sync record carries the steady↔wall anchor so trace timestamps
  // can be aligned with server log wall-times.
  const ClockAnchor& anchor = clock_anchor();
  comma();
  out << "{\"name\":\"clock_sync\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      << "\"args\":{\"steady_us\":" << anchor.steady_us
      << ",\"wall_unix_us\":" << anchor.wall_unix_us << "}}";
  for (const auto& [track, name] : track_names) {
    comma();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << track << ",\"args\":{\"name\":";
    write_escaped(out, name);
    out << "}}";
  }
  for (const TraceEvent& e : sorted) {
    comma();
    out << "{\"name\":";
    write_escaped(out, e.name);
    out << ",\"cat\":";
    write_escaped(out, e.category);
    if (e.phase == EventPhase::kComplete) {
      out << ",\"ph\":\"X\",\"ts\":" << e.start_us << ",\"dur\":"
          << e.duration_us;
    } else {
      // Flow endpoints: "s" starts the arrow at the sender, "f" with
      // bp:"e" ends it at the receiver bound to the enclosing slice.
      out << ",\"ph\":\"" << (e.phase == EventPhase::kFlowStart ? 's' : 'f')
          << "\"";
      if (e.phase == EventPhase::kFlowEnd) out << ",\"bp\":\"e\"";
      out << ",\"id\":" << e.flow_id << ",\"ts\":" << e.start_us;
    }
    out << ",\"pid\":1,\"tid\":" << e.track << ",\"args\":{";
    bool first_arg = true;
    const auto arg_comma = [&] {
      if (!first_arg) out << ",";
      first_arg = false;
    };
    if (e.device >= 0) {
      arg_comma();
      out << "\"device\":" << e.device;
    }
    if (e.layer >= 0) {
      arg_comma();
      out << "\"layer\":" << e.layer;
    }
    if (e.bytes >= 0) {
      arg_comma();
      out << "\"bytes\":" << e.bytes;
    }
    if (e.raw_bytes >= 0) {
      arg_comma();
      out << "\"raw_bytes\":" << e.raw_bytes;
    }
    if (e.request >= 0) {
      arg_comma();
      out << "\"request\":" << e.request;
    }
    if (e.batch >= 0) {
      arg_comma();
      out << "\"batch\":" << e.batch;
    }
    if (e.tokens >= 0) {
      arg_comma();
      out << "\"tokens\":" << e.tokens;
    }
    if (e.drafts >= 0) {
      arg_comma();
      out << "\"drafts\":" << e.drafts;
    }
    if (e.accepted >= 0) {
      arg_comma();
      out << "\"accepted\":" << e.accepted;
    }
    if (e.trace >= 0) {
      arg_comma();
      out << "\"trace\":" << e.trace;
    }
    if (!e.tag.empty()) {
      arg_comma();
      out << "\"tag\":";
      write_escaped(out, e.tag);
    }
    out << "}}";
  }
  out << "]}";
}

void Tracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("Tracer: cannot open trace file " + path);
  }
  write_chrome_trace(out);
  out.flush();
  if (!out) {
    throw std::runtime_error("Tracer: failed writing trace file " + path);
  }
}

std::uint64_t next_trace_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t thread_trace_id() noexcept { return t_ambient_trace_id; }

std::uint64_t ensure_trace_id() noexcept {
  const std::uint64_t ambient = t_ambient_trace_id;
  return ambient != 0 ? ambient : next_trace_id();
}

void adopt_thread_trace_id(std::uint64_t id) noexcept {
  if (id != 0) t_ambient_trace_id = id;
}

TraceIdScope::TraceIdScope(std::uint64_t id) noexcept
    : previous_(t_ambient_trace_id) {
  t_ambient_trace_id = id;
}

TraceIdScope::~TraceIdScope() { t_ambient_trace_id = previous_; }

void record_flow(Tracer* tracer, EventPhase phase, std::uint64_t flow_id,
                 TrackId track, std::uint64_t trace_id) {
  if (tracer == nullptr) return;
  TraceEvent event;
  event.name = "msg";
  event.category = "flow";
  event.track = track;
  event.start_us = now_us();
  event.trace = static_cast<std::int64_t>(trace_id);
  event.phase = phase;
  event.flow_id = flow_id;
  tracer->record(std::move(event));
}

Tracer* thread_tracer() noexcept { return t_ambient_tracer; }

ThreadTracerScope::ThreadTracerScope(Tracer* tracer) noexcept
    : previous_(t_ambient_tracer) {
  t_ambient_tracer = tracer;
}

ThreadTracerScope::~ThreadTracerScope() { t_ambient_tracer = previous_; }

namespace {
thread_local TrackId t_ambient_track = 0;
thread_local std::int64_t t_ambient_layer = -1;
}  // namespace

TrackId thread_track() noexcept { return t_ambient_track; }

ThreadTrackScope::ThreadTrackScope(TrackId track) noexcept
    : previous_(t_ambient_track) {
  t_ambient_track = track;
}

ThreadTrackScope::~ThreadTrackScope() { t_ambient_track = previous_; }

std::int64_t thread_layer() noexcept { return t_ambient_layer; }

ThreadLayerScope::ThreadLayerScope(std::int64_t layer) noexcept
    : previous_(t_ambient_layer) {
  t_ambient_layer = layer;
}

ThreadLayerScope::~ThreadLayerScope() { t_ambient_layer = previous_; }

}  // namespace voltage::obs
