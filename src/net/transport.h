// Transport abstraction for the device mesh.
//
// Two implementations ship: the in-memory Fabric (deterministic, zero-copy,
// used by tests and fast benchmarks) and the SocketFabric (a full mesh of
// real kernel sockets — what an actual edge deployment would look like on
// one host). Both are a MailboxTransport (net/mailbox.h), which owns the
// mailboxes, the receive loop, poisoning and the traffic counters; they
// differ only in how a message reaches its destination's mailbox.
// ChaosTransport (net/chaos.h) decorates either one. Collectives and
// runtimes are written against this interface, so the choice is a
// construction-time flag.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "net/message.h"

namespace voltage::obs {
class FlightRecorder;
class MetricsRegistry;
}  // namespace voltage::obs

namespace voltage {

struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
};

// Thrown by send/recv/recv_any once a transport has been poisoned via
// close(). The message carries the close reason, so every thread that was
// blocked on the mesh reports why the mesh died, not just that it did.
class TransportClosedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Thrown by recv/recv_any when RecvOptions::deadline passes before a
// matching message arrives. Distinct from TransportClosedError: the mesh is
// still alive, one peer is just too slow (or wedged).
class RecvTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Per-call receive options. Default-constructed = block forever (the
// pre-failure-model behavior).
struct RecvOptions {
  // Absolute deadline; once it passes without a matching message the recv
  // throws RecvTimeoutError. Absolute (not a relative timeout) so one
  // request-level budget can be threaded through many blocking calls.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  // Deadline `seconds` from now; non-positive means no deadline.
  [[nodiscard]] static RecvOptions within(double seconds) {
    RecvOptions options;
    if (seconds > 0.0) {
      options.deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(seconds));
    }
    return options;
  }
};

class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual std::size_t devices() const noexcept = 0;

  // Delivers to the destination's mailbox; thread-safe; throws on bad ids
  // or self-send, and TransportClosedError after close().
  virtual void send(Message message) = 0;

  // Blocks until a message with this (source, tag) arrives at `receiver`,
  // the options deadline passes (RecvTimeoutError), or the transport is
  // poisoned (TransportClosedError). Messages already queued are always
  // matched first, even on a closed transport.
  [[nodiscard]] virtual Message recv(DeviceId receiver, DeviceId source,
                                     MessageTag tag,
                                     const RecvOptions& options = {}) = 0;

  // Blocks until any message with this tag arrives at `receiver`; same
  // deadline/poisoning semantics as recv.
  [[nodiscard]] virtual Message recv_any(DeviceId receiver, MessageTag tag,
                                         const RecvOptions& options = {}) = 0;

  // Poisons the transport: every blocked and future send/recv/recv_any
  // throws TransportClosedError carrying `reason`. Idempotent — the first
  // reason wins; later calls are no-ops. This is how a failing device
  // unblocks its peers instead of deadlocking the mesh; poisoning is
  // permanent (build a fresh transport to recover).
  virtual void close(std::string reason) = 0;
  [[nodiscard]] virtual bool closed() const noexcept = 0;

  // Cumulative per-device and mesh-wide traffic counters.
  [[nodiscard]] virtual TrafficStats stats(DeviceId device) const = 0;
  [[nodiscard]] virtual TrafficStats total_stats() const = 0;
  virtual void reset_stats() = 0;

  // Attaches a metrics registry: sends and receives increment the
  // "transport.{messages,bytes}_{sent,received}" counters. Pass nullptr to
  // detach. Not synchronized against in-flight traffic — attach before the
  // mesh is busy (construction time).
  virtual void set_metrics(obs::MetricsRegistry* metrics) = 0;

  // Attaches a flight recorder (non-owning; nullptr detaches): sends and
  // receives append to its last-N ring, and close() dumps it with the
  // poison reason, so a containment event carries its recent message
  // history. Same attach-before-traffic contract as set_metrics.
  virtual void set_flight_recorder(obs::FlightRecorder* recorder) = 0;
};

enum class TransportKind : std::uint8_t {
  kInMemory,    // lock-guarded mailboxes, zero syscalls (default)
  kUnixSocket,  // full mesh of real kernel sockets (SocketFabric)
};

[[nodiscard]] std::unique_ptr<Transport> make_transport(TransportKind kind,
                                                        std::size_t devices);

}  // namespace voltage
