// SocketFabric: the device mesh over real kernel sockets.
//
// A full mesh of AF_UNIX stream socket pairs connects the devices — every
// byte crosses a genuine socket boundary with framing, partial reads and
// copies, exactly like the paper's multi-VM TCP deployment modulo the wire
// itself. One reader thread per device deposits incoming frames into the
// device's mailbox. Matching, poisoning and counting live in the
// MailboxTransport it shares with the in-memory Fabric, so the two
// transports are drop-in interchangeable.
//
// Frame format: u64 source | u64 tag | u64 trace_id | u64 seq |
// u64 payload_length | payload bytes. trace_id/seq carry the request trace
// context across the wire (see net/message.h) — a real TCP deployment would
// ship the same two words.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "net/mailbox.h"

namespace voltage {

// A frame's fixed header, as it crosses the socket.
struct FrameHeader {
  std::uint64_t source = 0;
  std::uint64_t tag = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t seq = 0;
  std::uint64_t length = 0;  // payload bytes that follow
};

// Largest payload a frame may announce: far above any protocol payload (a
// prefill partition or the pipeline's full activation is a few MiB), far
// below what a reader could allocate on a peer's word.
inline constexpr std::uint64_t kMaxFramePayloadBytes = std::uint64_t{1} << 28;

// Decodes the header of a frame read from the socket to device `peer`.
// Throws std::runtime_error naming the peer unless the source is `peer` and
// the length is at most kMaxFramePayloadBytes.
[[nodiscard]] FrameHeader parse_frame_header(
    std::span<const std::byte, kWireFrameBytes> bytes, DeviceId peer);

class SocketFabric final : public MailboxTransport {
 public:
  // Builds the (devices choose 2) socket mesh and starts reader threads.
  // Throws std::system_error if socketpair(2) fails.
  explicit SocketFabric(std::size_t devices);
  ~SocketFabric() override;

  SocketFabric(const SocketFabric&) = delete;
  SocketFabric& operator=(const SocketFabric&) = delete;

  // Writes one frame to the destination's socket. A send that races
  // close() surfaces TransportClosedError (never SIGPIPE — frames go out
  // with MSG_NOSIGNAL).
  void send(Message message) override;

 private:
  struct Endpoint {
    // peer_fd[j]: this endpoint's socket to device j (-1 for self).
    std::vector<int> peer_fd;
    std::vector<std::unique_ptr<std::mutex>> write_mutex;  // per peer fd
    std::thread reader;
  };

  // Shuts every socket down: readers deposit what is already in flight,
  // then shut their mailboxes at EOF, and blocked receivers throw.
  void on_close() override;
  void reader_loop(std::size_t device);
  void shutdown_sockets();

  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace voltage
