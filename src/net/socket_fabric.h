// SocketFabric: the device mesh over real kernel sockets.
//
// A full mesh of AF_UNIX stream socket pairs connects the devices — every
// byte crosses a genuine socket boundary with framing, partial reads and
// copies, exactly like the paper's multi-VM TCP deployment modulo the wire
// itself. One reader thread per device demultiplexes incoming frames into
// a tagged mailbox with the same matching semantics as the in-memory
// Fabric, so the two transports are drop-in interchangeable.
//
// Frame format: u64 source | u64 tag | u64 trace_id | u64 seq |
// u64 payload_length | payload bytes. trace_id/seq carry the request trace
// context across the wire (see net/message.h) — a real TCP deployment would
// ship the same two words.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.h"

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

class SocketFabric final : public Transport {
 public:
  // Builds the (devices choose 2) socket mesh and starts reader threads.
  // Throws std::system_error if socketpair(2) fails.
  explicit SocketFabric(std::size_t devices);
  ~SocketFabric() override;

  SocketFabric(const SocketFabric&) = delete;
  SocketFabric& operator=(const SocketFabric&) = delete;

  [[nodiscard]] std::size_t devices() const noexcept override {
    return endpoints_.size();
  }

  void send(Message message) override;
  [[nodiscard]] Message recv(DeviceId receiver, DeviceId source,
                             MessageTag tag,
                             const RecvOptions& options = {}) override;
  [[nodiscard]] Message recv_any(DeviceId receiver, MessageTag tag,
                                 const RecvOptions& options = {}) override;

  // Poisons the mesh: shuts every socket down, so readers drain to EOF and
  // every blocked receiver throws TransportClosedError(reason). Sends that
  // race the shutdown surface the same error (never SIGPIPE — frames go out
  // with MSG_NOSIGNAL). Idempotent; first reason wins.
  void close(std::string reason) override;
  [[nodiscard]] bool closed() const noexcept override {
    return closed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] TrafficStats stats(DeviceId device) const override;
  [[nodiscard]] TrafficStats total_stats() const override;
  void reset_stats() override;

  void set_metrics(obs::MetricsRegistry* metrics) override;
  void set_flight_recorder(obs::FlightRecorder* recorder) override;

 private:
  struct Endpoint {
    // peer_fd[j]: this endpoint's socket to device j (-1 for self).
    std::vector<int> peer_fd;
    std::vector<std::unique_ptr<std::mutex>> write_mutex;  // per peer fd
    std::thread reader;

    mutable std::mutex mutex;
    std::condition_variable arrived;
    std::deque<Message> inbox;
    bool closed = false;
    TrafficStats stats;
    // Per-sender message sequence; not reset by reset_stats() (flow ids
    // derived from it must stay unique for the fabric's lifetime).
    std::uint64_t next_seq = 0;
  };

  void reader_loop(std::size_t device);
  Endpoint& endpoint(DeviceId id);
  [[nodiscard]] const Endpoint& endpoint(DeviceId id) const;
  void shutdown_sockets();
  [[noreturn]] void throw_closed(const char* verb) const;
  void note_received(const Message& message) const;

  const std::uint64_t uid_ = detail::next_transport_uid();
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  TransportCounters metrics_;
  obs::FlightRecorder* recorder_ = nullptr;
  std::atomic<bool> closed_{false};
  mutable std::mutex close_mutex_;
  std::string close_reason_;
};

}  // namespace voltage
