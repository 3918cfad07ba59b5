#include "net/socket_fabric.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace voltage {

namespace {

static_assert(sizeof(FrameHeader) == kWireFrameBytes,
              "kWireFrameBytes must match the socket frame header");

void write_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::byte*>(data);
  while (len > 0) {
    // MSG_NOSIGNAL: a send racing close()'s shutdown must fail with EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(),
                              "SocketFabric: write");
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

// Returns false on orderly EOF at a frame boundary.
bool read_all(int fd, void* data, std::size_t len) {
  auto* p = static_cast<std::byte*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, p + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(),
                              "SocketFabric: read");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean shutdown between frames
      throw std::runtime_error("SocketFabric: truncated frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads one part of a frame; false once the peer is gone (orderly EOF, or
// torn down mid-frame during shutdown).
bool read_part(int fd, void* data, std::size_t len) noexcept {
  try {
    return read_all(fd, data, len);
  } catch (...) {
    return false;
  }
}

}  // namespace

FrameHeader parse_frame_header(
    std::span<const std::byte, kWireFrameBytes> bytes, DeviceId peer) {
  FrameHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  const auto reject = [peer](const std::string& what) {
    return std::runtime_error("SocketFabric: frame from device " +
                              std::to_string(peer) + " " + what);
  };
  if (header.source != peer) {
    throw reject("claims source " + std::to_string(header.source));
  }
  if (header.length > kMaxFramePayloadBytes) {
    throw reject("announces " + std::to_string(header.length) +
                 " payload bytes, over the frame cap");
  }
  return header;
}

SocketFabric::SocketFabric(std::size_t devices) {
  if (devices == 0) {
    throw std::invalid_argument("SocketFabric: zero devices");
  }
  endpoints_.reserve(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    auto ep = std::make_unique<Endpoint>();
    ep->peer_fd.assign(devices, -1);
    for (std::size_t j = 0; j < devices; ++j) {
      ep->write_mutex.push_back(std::make_unique<std::mutex>());
    }
    endpoints_.push_back(std::move(ep));
  }
  for (std::size_t i = 0; i < devices; ++i) {
    for (std::size_t j = i + 1; j < devices; ++j) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        throw std::system_error(errno, std::generic_category(),
                                "SocketFabric: socketpair");
      }
      endpoints_[i]->peer_fd[j] = fds[0];
      endpoints_[j]->peer_fd[i] = fds[1];
    }
  }
  for (std::size_t i = 0; i < devices; ++i) {
    endpoints_[i]->reader = std::thread([this, i] { reader_loop(i); });
  }
}

SocketFabric::~SocketFabric() {
  // Shut the sockets down so the readers drain and exit, then join.
  shutdown_sockets();
  for (const auto& ep : endpoints_) {
    if (ep->reader.joinable()) ep->reader.join();
  }
  for (const auto& ep : endpoints_) {
    for (const int fd : ep->peer_fd) {
      if (fd >= 0) ::close(fd);
    }
  }
}

void SocketFabric::shutdown_sockets() {
  for (const auto& ep : endpoints_) {
    for (const int fd : ep->peer_fd) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
}

void SocketFabric::close(std::string reason) {
  {
    const std::lock_guard lock(close_mutex_);
    if (closed_.load(std::memory_order_acquire)) return;  // first reason wins
    close_reason_ = std::move(reason);
    closed_.store(true, std::memory_order_release);
  }
  // The poisoning is the event the flight recorder exists for: dump the
  // last-N message history together with the reason before tearing down.
  if (recorder_ != nullptr) {
    std::string what;
    {
      const std::lock_guard lock(close_mutex_);
      what = close_reason_;
    }
    recorder_->auto_dump("SocketFabric closed: " + what);
  }
  // Readers see EOF on the shut-down sockets, mark their endpoints closed
  // and wake every blocked receiver, which then throws with the reason.
  shutdown_sockets();
}

void SocketFabric::throw_closed(const char* verb) const {
  std::string reason;
  {
    const std::lock_guard lock(close_mutex_);
    reason = close_reason_;
  }
  throw TransportClosedError("SocketFabric: transport closed during " +
                             std::string(verb) +
                             (reason.empty() ? "" : ": " + reason));
}

SocketFabric::Endpoint& SocketFabric::endpoint(DeviceId id) {
  if (id >= endpoints_.size()) {
    throw std::out_of_range("SocketFabric: device id");
  }
  return *endpoints_[id];
}

const SocketFabric::Endpoint& SocketFabric::endpoint(DeviceId id) const {
  if (id >= endpoints_.size()) {
    throw std::out_of_range("SocketFabric: device id");
  }
  return *endpoints_[id];
}

void SocketFabric::reader_loop(std::size_t device) {
  Endpoint& ep = *endpoints_[device];
  std::vector<pollfd> fds;
  std::vector<DeviceId> owner;
  for (std::size_t j = 0; j < endpoints_.size(); ++j) {
    if (ep.peer_fd[j] < 0) continue;
    fds.push_back(pollfd{.fd = ep.peer_fd[j], .events = POLLIN, .revents = 0});
    owner.push_back(j);
  }
  std::size_t open = fds.size();
  while (open > 0) {
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (std::size_t idx = 0; idx < fds.size(); ++idx) {
      if (fds[idx].fd < 0 ||
          (fds[idx].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      std::array<std::byte, kWireFrameBytes> raw{};
      if (!read_part(fds[idx].fd, raw.data(), raw.size())) {
        fds[idx].fd = -1;  // peer closed
        --open;
        continue;
      }
      FrameHeader header;
      try {
        header = parse_frame_header(raw, owner[idx]);
      } catch (const std::runtime_error& e) {
        // A hostile or corrupt peer: poison the mesh, naming it.
        close(e.what());
        fds[idx].fd = -1;
        --open;
        continue;
      }
      std::vector<std::byte> body(header.length);
      if (header.length > 0 &&
          !read_part(fds[idx].fd, body.data(), body.size())) {
        fds[idx].fd = -1;
        --open;
        continue;
      }
      Message msg;
      msg.source = header.source;
      msg.destination = device;
      msg.tag = header.tag;
      msg.trace_id = header.trace_id;
      msg.seq = header.seq;
      msg.payload = std::move(body);
      {
        const std::lock_guard lock(ep.mutex);
        ep.stats.messages_received += 1;
        ep.stats.bytes_received += msg.wire_size();
        ep.inbox.push_back(std::move(msg));
      }
      ep.arrived.notify_all();
    }
  }
  {
    const std::lock_guard lock(ep.mutex);
    ep.closed = true;
  }
  ep.arrived.notify_all();
}

void SocketFabric::send(Message message) {
  if (message.source == message.destination) {
    throw std::invalid_argument("SocketFabric: self-send");
  }
  Endpoint& src = endpoint(message.source);
  (void)endpoint(message.destination);  // id validation
  if (closed()) throw_closed("send");
  const int fd = src.peer_fd[message.destination];
  // Trace context: inherit the sender thread's request id unless the caller
  // stamped one already (ChaosTransport couriers deliver from their own
  // thread and pre-stamp at enqueue).
  if (message.trace_id == 0) message.trace_id = obs::thread_trace_id();
  // Stats commit before the bytes hit the wire: once the receiver can
  // observe the message (and unblock a thread that then reads
  // total_stats()), the counters must already include it — otherwise
  // per-step byte accounting sees a straggler send slide into the next
  // measurement window. A send that subsequently fails is still counted;
  // by then the fabric is poisoned and exact totals no longer matter.
  if (metrics_.enabled()) {
    metrics_.messages_sent->add(1);
    metrics_.bytes_sent->add(message.wire_size());
  }
  {
    const std::lock_guard lock(src.mutex);
    src.stats.messages_sent += 1;
    src.stats.bytes_sent += message.wire_size();
    message.seq = ++src.next_seq;
  }
  const FrameHeader header{.source = message.source,
                           .tag = message.tag,
                           .trace_id = message.trace_id,
                           .seq = message.seq,
                           .length = message.payload.size()};
  if (recorder_ != nullptr) {
    recorder_->note_send(message.source, message.destination, message.tag,
                         message.trace_id, message.wire_size());
  }
  // Flow start before the bytes leave, so the arrow's tail can never be
  // stamped after its head on the receiving side.
  if (message.trace_id != 0) {
    obs::record_flow(obs::thread_tracer(), obs::EventPhase::kFlowStart,
                     detail::make_flow_id(uid_, message.source, message.seq),
                     obs::thread_track(), message.trace_id);
  }
  try {
    // View payloads are written straight from the borrowed storage (header
    // chunk then body chunk) — no flattening copy on the send path.
    const std::lock_guard wlock(*src.write_mutex[message.destination]);
    write_all(fd, &header, sizeof(header));
    const auto head = message.payload.head();
    if (!head.empty()) write_all(fd, head.data(), head.size());
    const auto body = message.payload.body();
    if (!body.empty()) write_all(fd, body.data(), body.size());
  } catch (const std::system_error&) {
    // A send that lost the race against close() (EPIPE on the shut-down
    // socket) reports the poisoning, not the raw socket error.
    if (closed()) throw_closed("send");
    throw;
  }
}

Message SocketFabric::recv(DeviceId receiver, DeviceId source, MessageTag tag,
                           const RecvOptions& options) {
  Endpoint& ep = endpoint(receiver);
  std::unique_lock lock(ep.mutex);
  for (;;) {
    const auto it =
        std::find_if(ep.inbox.begin(), ep.inbox.end(), [&](const Message& m) {
          return m.source == source && m.tag == tag;
        });
    if (it != ep.inbox.end()) {
      Message out = std::move(*it);
      ep.inbox.erase(it);
      note_received(out);
      return out;
    }
    if (ep.closed) throw_closed("recv");
    if (options.deadline.has_value()) {
      if (std::chrono::steady_clock::now() >= *options.deadline) {
        throw RecvTimeoutError("SocketFabric: recv deadline exceeded");
      }
      ep.arrived.wait_until(lock, *options.deadline);
    } else {
      ep.arrived.wait(lock);
    }
  }
}

Message SocketFabric::recv_any(DeviceId receiver, MessageTag tag,
                               const RecvOptions& options) {
  Endpoint& ep = endpoint(receiver);
  std::unique_lock lock(ep.mutex);
  for (;;) {
    const auto it =
        std::find_if(ep.inbox.begin(), ep.inbox.end(),
                     [&](const Message& m) { return m.tag == tag; });
    if (it != ep.inbox.end()) {
      Message out = std::move(*it);
      ep.inbox.erase(it);
      note_received(out);
      return out;
    }
    if (ep.closed) throw_closed("recv_any");
    if (options.deadline.has_value()) {
      if (std::chrono::steady_clock::now() >= *options.deadline) {
        throw RecvTimeoutError("SocketFabric: recv_any deadline exceeded");
      }
      ep.arrived.wait_until(lock, *options.deadline);
    } else {
      ep.arrived.wait(lock);
    }
  }
}

TrafficStats SocketFabric::stats(DeviceId device) const {
  const Endpoint& ep = endpoint(device);
  const std::lock_guard lock(ep.mutex);
  return ep.stats;
}

TrafficStats SocketFabric::total_stats() const {
  TrafficStats total;
  for (const auto& ep : endpoints_) {
    const std::lock_guard lock(ep->mutex);
    total.messages_sent += ep->stats.messages_sent;
    total.bytes_sent += ep->stats.bytes_sent;
    total.messages_received += ep->stats.messages_received;
    total.bytes_received += ep->stats.bytes_received;
  }
  return total;
}

void SocketFabric::note_received(const Message& message) const {
  if (metrics_.enabled()) {
    metrics_.messages_received->add(1);
    metrics_.bytes_received->add(message.wire_size());
  }
  if (recorder_ != nullptr) {
    recorder_->note_recv(message.source, message.destination, message.tag,
                         message.trace_id, message.wire_size());
  }
  // Runs on the consuming thread (never the reader thread), so the adopted
  // context and the flow end land on the right track.
  obs::adopt_thread_trace_id(message.trace_id);
  if (message.trace_id != 0) {
    obs::record_flow(obs::thread_tracer(), obs::EventPhase::kFlowEnd,
                     detail::make_flow_id(uid_, message.source, message.seq),
                     obs::thread_track(), message.trace_id);
  }
}

void SocketFabric::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = resolve_transport_counters(metrics);
}

void SocketFabric::set_flight_recorder(obs::FlightRecorder* recorder) {
  recorder_ = recorder;
}

void SocketFabric::reset_stats() {
  for (const auto& ep : endpoints_) {
    const std::lock_guard lock(ep->mutex);
    ep->stats = TrafficStats{};
  }
}

}  // namespace voltage
