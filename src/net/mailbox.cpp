#include "net/mailbox.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/spin_wait.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace voltage {

namespace {

std::uint64_t next_transport_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

MailboxTransport::MailboxTransport(std::string name, std::size_t devices,
                                   std::size_t threads)
    : name_(std::move(name)),
      uid_(next_transport_uid()),
      spin_(may_spin(threads)) {
  if (devices == 0) throw std::invalid_argument(name_ + ": zero devices");
  mailboxes_.reserve(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

MailboxTransport::Mailbox& MailboxTransport::box(DeviceId id) {
  if (id >= mailboxes_.size()) throw std::out_of_range(name_ + ": device id");
  return *mailboxes_[id];
}

const MailboxTransport::Mailbox& MailboxTransport::box(DeviceId id) const {
  if (id >= mailboxes_.size()) throw std::out_of_range(name_ + ": device id");
  return *mailboxes_[id];
}

std::uint64_t MailboxTransport::flow_id(const Message& message) const noexcept {
  return (uid_ << 48) ^ (static_cast<std::uint64_t>(message.source) << 40) ^
         message.seq;
}

void MailboxTransport::throw_closed(const char* verb) const {
  std::string reason;
  {
    const std::lock_guard lock(close_mutex_);
    reason = close_reason_;
  }
  throw TransportClosedError(name_ + ": transport closed during " + verb +
                             (reason.empty() ? "" : ": " + reason));
}

void MailboxTransport::close(std::string reason) {
  {
    const std::lock_guard lock(close_mutex_);
    if (closed_.load(std::memory_order_acquire)) return;  // first reason wins
    close_reason_ = std::move(reason);
    closed_.store(true, std::memory_order_release);
  }
  // The poisoning is the event the flight recorder exists for: dump the
  // last-N message history together with the reason before waking anyone.
  // close_reason_ is written once, by this call, so reading it unlocked
  // here is safe.
  if (recorder_ != nullptr) {
    recorder_->auto_dump(name_ + " closed: " + close_reason_);
  }
  on_close();
}

void MailboxTransport::shut(DeviceId device) {
  Mailbox& mb = box(device);
  // Set under the mailbox mutex: a receiver that checked the flag just
  // before is spinning (the event bump ends its spin), already waiting (the
  // notify wakes it) or still holds the mutex (we block until it waits).
  {
    const std::lock_guard lock(mb.mutex);
    mb.shut = true;
    ++mb.events;
  }
  mb.arrived.notify_all();
}

void MailboxTransport::stamp_send(Message& message) {
  if (message.source == message.destination) {
    throw std::invalid_argument(name_ + ": self-send");
  }
  Mailbox& src = box(message.source);
  (void)box(message.destination);  // id validation
  if (closed()) throw_closed("send");
  if (message.trace_id == 0) message.trace_id = obs::thread_trace_id();
  const std::size_t bytes = message.wire_size();
  if (counters_.messages_sent != nullptr) {
    counters_.messages_sent->add(1);
    counters_.bytes_sent->add(bytes);
  }
  {
    const std::lock_guard lock(src.mutex);
    src.stats.messages_sent += 1;
    src.stats.bytes_sent += bytes;
    message.seq = ++src.next_seq;
  }
  if (recorder_ != nullptr) {
    recorder_->note_send(message.source, message.destination, message.tag,
                         message.trace_id, bytes);
  }
  // Flow start before delivery, so the arrow's tail can never be stamped
  // after its head: a receiver may consume the message the instant it is
  // queued.
  if (message.trace_id != 0) {
    obs::record_flow(obs::thread_tracer(), obs::EventPhase::kFlowStart,
                     flow_id(message), obs::thread_track(), message.trace_id);
  }
}

void MailboxTransport::deposit(Message message) {
  Mailbox& dst = box(message.destination);
  const std::size_t bytes = message.wire_size();
  bool wake = false;
  {
    const std::lock_guard lock(dst.mutex);
    dst.stats.messages_received += 1;
    dst.stats.bytes_received += bytes;
    dst.queue.push_back(std::move(message));
    ++dst.events;
    // A receiver parks under this mutex right after a scan that missed, so
    // one not counted here will find the message when it scans.
    wake = dst.parked > 0;
  }
  // notify_all: two threads may wait on one mailbox for different tags.
  if (wake) dst.arrived.notify_all();
}

void MailboxTransport::note_received(const Message& message) const {
  if (counters_.messages_received != nullptr) {
    counters_.messages_received->add(1);
    counters_.bytes_received->add(message.wire_size());
  }
  if (recorder_ != nullptr) {
    recorder_->note_recv(message.source, message.destination, message.tag,
                         message.trace_id, message.wire_size());
  }
  // The receiver adopts the message's request context — this is how one
  // trace id follows the data across all K device threads — and closes the
  // flow arrow the sender opened.
  obs::adopt_thread_trace_id(message.trace_id);
  if (message.trace_id != 0) {
    obs::record_flow(obs::thread_tracer(), obs::EventPhase::kFlowEnd,
                     flow_id(message), obs::thread_track(), message.trace_id);
  }
}

Message MailboxTransport::take(DeviceId receiver,
                               std::optional<DeviceId> source, MessageTag tag,
                               const RecvOptions& options, const char* verb) {
  using Clock = std::chrono::steady_clock;
  Mailbox& mb = box(receiver);
  // Set at the first miss: a receive spins at most kSpinBudget in total.
  std::optional<Clock::time_point> spin_end;
  bool spun = false;
  bool slept = false;
  std::unique_lock lock(mb.mutex);
  for (;;) {
    const auto it = std::find_if(
        mb.queue.begin(), mb.queue.end(), [&](const Message& m) {
          return m.tag == tag && (!source.has_value() || m.source == *source);
        });
    if (it != mb.queue.end()) {
      Message out = std::move(*it);
      mb.queue.erase(it);
      if (spun && !slept && counters_.recv_spin_hits != nullptr) {
        counters_.recv_spin_hits->add(1);
      }
      note_received(out);
      return out;
    }
    if (mb.shut) throw_closed(verb);
    const Clock::time_point now = Clock::now();
    if (options.deadline.has_value() && now >= *options.deadline) {
      throw RecvTimeoutError(name_ + ": " + verb + " deadline exceeded");
    }
    if (spin_ && !spin_end.has_value()) spin_end = now + kSpinBudget;
    if (spin_ && now < *spin_end) {
      // Spin unlocked until a deposit or shut bumps the event count, then
      // rescan: the message may be another receiver's.
      const std::uint64_t seen = mb.events;
      const Clock::time_point until =
          std::min(*spin_end, options.deadline.value_or(*spin_end));
      lock.unlock();
      if (!spin_until(until, [&] { return mb.events != seen; })) {
        spin_end = Clock::now();  // the CPU is taken: park from here on
      }
      lock.lock();
      spun = true;
      continue;
    }
    if (!slept && counters_.recv_parks != nullptr) {
      counters_.recv_parks->add(1);
    }
    slept = true;
    ++mb.parked;
    if (options.deadline.has_value()) {
      mb.arrived.wait_until(lock, *options.deadline);
    } else {
      mb.arrived.wait(lock);
    }
    --mb.parked;
  }
}

Message MailboxTransport::recv(DeviceId receiver, DeviceId source,
                               MessageTag tag, const RecvOptions& options) {
  return take(receiver, source, tag, options, "recv");
}

Message MailboxTransport::recv_any(DeviceId receiver, MessageTag tag,
                                   const RecvOptions& options) {
  return take(receiver, std::nullopt, tag, options, "recv_any");
}

TrafficStats MailboxTransport::stats(DeviceId device) const {
  const Mailbox& mb = box(device);
  const std::lock_guard lock(mb.mutex);
  return mb.stats;
}

TrafficStats MailboxTransport::total_stats() const {
  TrafficStats total;
  for (const auto& mb : mailboxes_) {
    const std::lock_guard lock(mb->mutex);
    total.messages_sent += mb->stats.messages_sent;
    total.bytes_sent += mb->stats.bytes_sent;
    total.messages_received += mb->stats.messages_received;
    total.bytes_received += mb->stats.bytes_received;
  }
  return total;
}

void MailboxTransport::reset_stats() {
  for (const auto& mb : mailboxes_) {
    const std::lock_guard lock(mb->mutex);
    mb->stats = TrafficStats{};
  }
}

void MailboxTransport::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    counters_ = {};
    return;
  }
  counters_ = Counters{
      .messages_sent = &metrics->counter("transport.messages_sent"),
      .bytes_sent = &metrics->counter("transport.bytes_sent"),
      .messages_received = &metrics->counter("transport.messages_received"),
      .bytes_received = &metrics->counter("transport.bytes_received"),
      .recv_spin_hits = &metrics->counter("transport.recv_spin_hits"),
      .recv_parks = &metrics->counter("transport.recv_parks"),
  };
}

void MailboxTransport::set_flight_recorder(obs::FlightRecorder* recorder) {
  recorder_ = recorder;
}

}  // namespace voltage
