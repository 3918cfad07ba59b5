// MailboxTransport: what the in-memory Fabric and the SocketFabric share.
//
// One tagged mailbox per device with one blocking receive loop, poisoning,
// the byte-accurate traffic statistics the communication-volume experiments
// read, and the observability hooks (metrics, flight recorder, trace-context
// flow stamps). A transport built on it adds only how a message reaches its
// destination: it calls stamp_send() before a receiver can see the message,
// and the message lands through deposit() into the destination's mailbox.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/transport.h"

namespace voltage::obs {
class Counter;
}  // namespace voltage::obs

namespace voltage {

class MailboxTransport : public Transport {
 public:
  MailboxTransport(const MailboxTransport&) = delete;
  MailboxTransport& operator=(const MailboxTransport&) = delete;

  [[nodiscard]] std::size_t devices() const noexcept final {
    return mailboxes_.size();
  }

  // Queued messages match before the shut and deadline checks. A receive
  // that misses spins on its mailbox for up to kSpinBudget (core/
  // spin_wait.h), or until its CPU is taken, before it parks, when the
  // transport may spin.
  [[nodiscard]] Message recv(DeviceId receiver, DeviceId source,
                             MessageTag tag,
                             const RecvOptions& options = {}) final;
  [[nodiscard]] Message recv_any(DeviceId receiver, MessageTag tag,
                                 const RecvOptions& options = {}) final;

  // Records the first reason, dumps the flight recorder as
  // "<name> closed: <reason>", then runs on_close(). Later calls are no-ops.
  void close(std::string reason) final;
  [[nodiscard]] bool closed() const noexcept final {
    return closed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] TrafficStats stats(DeviceId device) const final;
  [[nodiscard]] TrafficStats total_stats() const final;
  void reset_stats() final;

  void set_metrics(obs::MetricsRegistry* metrics) final;
  void set_flight_recorder(obs::FlightRecorder* recorder) final;

 protected:
  // `devices` mailboxes, ids 0 .. devices-1. `name` prefixes every error
  // text ("Fabric: device id"). `threads` is how many threads a round on
  // the transport keeps runnable (its endpoints, plus any reader threads):
  // receives spin only if may_spin(threads).
  MailboxTransport(std::string name, std::size_t devices,
                   std::size_t threads);

  // Everything a send does before the message can reach a receiver: throws
  // on self-send (std::invalid_argument), a bad id (std::out_of_range) or a
  // closed transport; stamps the sender thread's trace id unless the caller
  // stamped one (ChaosTransport couriers deliver from their own thread and
  // pre-stamp at enqueue); counts the send; assigns the per-sender sequence
  // number; notes it in the flight recorder; opens the flow arrow. The
  // counters commit here, before the receiver can observe the message and
  // unblock a thread that reads total_stats(), so per-step byte accounting
  // never sees a straggler send slide into the next window. A send that
  // fails after this is still counted; by then the transport is poisoned.
  void stamp_send(Message& message);

  // Counts a stamped message as received at its destination and queues it
  // there. Wakes the destination's receivers only if one is parked.
  void deposit(Message message);

  // No more messages will be waited for at `device`: its receivers take
  // what is queued, then throw TransportClosedError.
  void shut(DeviceId device);

  [[noreturn]] void throw_closed(const char* verb) const;

 private:
  struct Mailbox {
    mutable std::mutex mutex;
    std::condition_variable arrived;
    std::deque<Message> queue;
    bool shut = false;
    // Bumped under the mutex by every deposit and shut, so a receiver that
    // spins unlocked sees that something changed.
    std::atomic<std::uint64_t> events{0};
    // Receivers waiting on `arrived`; a deposit notifies only if nonzero.
    std::size_t parked = 0;
    TrafficStats stats;
    // Per-sender message sequence, assigned at send. Not reset by
    // reset_stats(): flow ids derived from it must stay unique for the
    // transport's lifetime.
    std::uint64_t next_seq = 0;
  };

  // Counter handles resolved once at attach time, so send and receive never
  // touch the registry's name map.
  struct Counters {
    obs::Counter* messages_sent = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* messages_received = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* recv_spin_hits = nullptr;  // message arrived while spinning
    obs::Counter* recv_parks = nullptr;      // receive went to sleep
  };

  // Runs once, from the first close(), after the flight-recorder dump. Must
  // lead to shut() of every mailbox: at once, or after the messages already
  // in flight are deposited.
  virtual void on_close() = 0;

  // The one receive loop: `source` empty matches any sender.
  [[nodiscard]] Message take(DeviceId receiver,
                             std::optional<DeviceId> source, MessageTag tag,
                             const RecvOptions& options, const char* verb);
  // Receive-side metrics, flight recorder, trace-context adoption and the
  // flow end, on the consuming thread.
  void note_received(const Message& message) const;
  [[nodiscard]] std::uint64_t flow_id(const Message& message) const noexcept;
  Mailbox& box(DeviceId id);
  [[nodiscard]] const Mailbox& box(DeviceId id) const;

  const std::string name_;
  // Namespaces flow ids, so two meshes tracing into one Tracer (a server's
  // mesh before and after a rebuild) never collide on (sender, seq).
  const std::uint64_t uid_;
  const bool spin_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  Counters counters_;
  obs::FlightRecorder* recorder_ = nullptr;
  // The reason is set once, before the flag flips.
  std::atomic<bool> closed_{false};
  mutable std::mutex close_mutex_;
  std::string close_reason_;
};

}  // namespace voltage
