#include "net/chaos.h"

#include <chrono>
#include <exception>
#include <utility>

#include "obs/trace.h"

namespace voltage {

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> inner,
                               ChaosOptions options)
    : inner_(std::move(inner)), options_(options), rng_(options.seed) {
  courier_ = std::thread([this] { courier_loop(); });
}

ChaosTransport::~ChaosTransport() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  pending_cv_.notify_all();
  if (courier_.joinable()) courier_.join();
}

void ChaosTransport::send(Message message) {
  // Stamp the trace context here, on the sending thread: the courier that
  // performs the inner send later runs with no ambient request context.
  if (message.trace_id == 0) message.trace_id = obs::thread_trace_id();
  if (inner_->closed()) {
    // Fail fast instead of queueing onto a poisoned mesh; the inner send
    // throws TransportClosedError carrying the close reason.
    inner_->send(std::move(message));
    return;
  }
  double delay = 0.0;
  bool duplicate = false;
  {
    const std::lock_guard lock(mutex_);
    if (options_.crash.has_value() &&
        message.source == options_.crash->device) {
      if (crash_device_sends_ >= options_.crash->after_sends) {
        stats_.crashed_sends += 1;
        throw TransportClosedError(seeded(
            "ChaosTransport: device " + std::to_string(message.source) +
            " crashed after " + std::to_string(crash_device_sends_) +
            " sends"));
      }
      crash_device_sends_ += 1;
    }
    if (options_.drop_probability > 0.0 &&
        rng_.next_uniform() < options_.drop_probability) {
      stats_.dropped += 1;
      return;  // silently lost; only a recv deadline can notice
    }
    delay = options_.max_delay_seconds * rng_.next_uniform();
    duplicate = options_.duplicate_probability > 0.0 &&
                rng_.next_uniform() < options_.duplicate_probability;
    const auto due =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(delay));
    if (duplicate) {
      stats_.duplicated += 1;
      pending_.push(Pending{.due = due, .seq = next_seq_++, .message = message});
    }
    pending_.push(
        Pending{.due = due, .seq = next_seq_++, .message = std::move(message)});
  }
  pending_cv_.notify_one();
}

std::string ChaosTransport::seeded(std::string text) const {
  const std::string tag =
      " (chaos seed=" + std::to_string(options_.seed) + ")";
  if (!text.ends_with(tag)) text += tag;
  return text;
}

Message ChaosTransport::recv(DeviceId receiver, DeviceId source,
                             MessageTag tag, const RecvOptions& options) {
  try {
    return inner_->recv(receiver, source, tag, options);
  } catch (const RecvTimeoutError& e) {
    throw RecvTimeoutError(seeded(e.what()));
  }
}

Message ChaosTransport::recv_any(DeviceId receiver, MessageTag tag,
                                 const RecvOptions& options) {
  try {
    return inner_->recv_any(receiver, tag, options);
  } catch (const RecvTimeoutError& e) {
    throw RecvTimeoutError(seeded(e.what()));
  }
}

void ChaosTransport::close(std::string reason) {
  inner_->close(seeded(std::move(reason)));
}

void ChaosTransport::courier_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (pending_.empty()) {
      if (stopping_) return;
      pending_cv_.wait(lock);
      continue;
    }
    // Once the transport is stopping, residual delays are meaningless —
    // drain everything immediately so teardown stays prompt.
    if (!stopping_ && pending_.top().due > std::chrono::steady_clock::now()) {
      // By value: wait_until reads the deadline again after relocking, when
      // a concurrent send may have reallocated the queue under top().
      const auto due = pending_.top().due;
      pending_cv_.wait_until(lock, due);
      continue;
    }
    Message message = std::move(const_cast<Pending&>(pending_.top()).message);
    pending_.pop();
    lock.unlock();
    std::exception_ptr error;
    try {
      inner_->send(std::move(message));
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error == nullptr) {
      stats_.delivered += 1;
    } else {
      // Record instead of letting the exception escape the courier thread
      // (which would std::terminate): a delivery onto a poisoned or torn-
      // down transport is an expected fault, not a crash.
      stats_.delivery_errors += 1;
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        last_error_ = e.what();
      } catch (...) {
        last_error_ = "unknown delivery error";
      }
    }
  }
}

ChaosStats ChaosTransport::chaos_stats() const {
  const std::lock_guard lock(mutex_);
  return stats_;
}

std::string ChaosTransport::last_delivery_error() const {
  const std::lock_guard lock(mutex_);
  return last_error_;
}

}  // namespace voltage
