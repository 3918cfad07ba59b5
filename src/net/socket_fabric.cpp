#include "net/socket_fabric.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

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

// A round keeps each endpoint's thread and its reader thread runnable.
SocketFabric::SocketFabric(std::size_t devices)
    : MailboxTransport("SocketFabric", devices, 2 * devices) {
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

void SocketFabric::on_close() { shutdown_sockets(); }

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
      deposit(Message{.source = header.source,
                      .destination = device,
                      .tag = header.tag,
                      .trace_id = header.trace_id,
                      .seq = header.seq,
                      .payload = std::move(body)});
    }
  }
  shut(device);
}

void SocketFabric::send(Message message) {
  stamp_send(message);
  Endpoint& src = *endpoints_[message.source];
  const int fd = src.peer_fd[message.destination];
  const FrameHeader header{.source = message.source,
                           .tag = message.tag,
                           .trace_id = message.trace_id,
                           .seq = message.seq,
                           .length = message.payload.size()};
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

}  // namespace voltage
