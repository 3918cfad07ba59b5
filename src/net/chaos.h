// ChaosTransport: failure-injection decorator for any Transport.
//
// Real edge networks deliver across links with wildly different delays, and
// real edge devices drop packets, deliver duplicates, and die mid-request.
// The protocols (collectives, Algorithm 2) must be correct purely through
// their (source, tag) matching and must *fail* through the failure-
// containment layer (poisoning + deadlines) — never by hanging. This
// decorator makes both testable:
//
//   - delay: every send is queued with a deterministic pseudo-random delay,
//     which scrambles arrival order across senders and tags;
//   - drop: a message is lost with probability drop_probability (the recv
//     side only notices via a deadline);
//   - duplicate: a message is delivered twice with probability
//     duplicate_probability;
//   - crash-at-send: device crash->device dies after its crash->after_sends'th
//     send — every later send from it throws TransportClosedError, exactly
//     what a runtime device thread sees when its host process dies.
//
// One courier thread drains a due-time priority queue; delivery errors are
// recorded in stats (never std::terminate), and no thread handles accumulate.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "tensor/rng.h"

namespace voltage {

struct ChaosOptions {
  // Delivery delay is uniform in [0, max_delay].
  double max_delay_seconds = 1e-3;
  std::uint64_t seed = 1;
  // Per-message fault probabilities (independent draws, in [0, 1]).
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  // Crash-at-send fault: after `after_sends` successful sends, every further
  // send from `device` throws TransportClosedError — the device went dark.
  struct Crash {
    DeviceId device = 0;
    std::uint64_t after_sends = 0;
  };
  std::optional<Crash> crash{};
};

// Fault accounting, for tests that assert the injected faults actually fired.
struct ChaosStats {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t crashed_sends = 0;
  // Deliveries whose inner send threw (e.g. transport poisoned while the
  // message was in flight); the last error text is kept for diagnostics.
  std::uint64_t delivery_errors = 0;
};

class ChaosTransport final : public Transport {
 public:
  ChaosTransport(std::unique_ptr<Transport> inner, ChaosOptions options);
  // Drains all in-flight deliveries (immediately, ignoring residual delays),
  // then stops the courier.
  ~ChaosTransport() override;

  [[nodiscard]] std::size_t devices() const noexcept override {
    return inner_->devices();
  }
  void send(Message message) override;
  // Receives, close reasons and crash errors name the seed (" (chaos
  // seed=N)"), so a failure seen in a log replays from it.
  [[nodiscard]] Message recv(DeviceId receiver, DeviceId source,
                             MessageTag tag,
                             const RecvOptions& options = {}) override;
  [[nodiscard]] Message recv_any(DeviceId receiver, MessageTag tag,
                                 const RecvOptions& options = {}) override;
  void close(std::string reason) override;
  [[nodiscard]] bool closed() const noexcept override {
    return inner_->closed();
  }
  [[nodiscard]] TrafficStats stats(DeviceId device) const override {
    return inner_->stats(device);
  }
  [[nodiscard]] TrafficStats total_stats() const override {
    return inner_->total_stats();
  }
  void reset_stats() override { inner_->reset_stats(); }
  void set_metrics(obs::MetricsRegistry* metrics) override {
    inner_->set_metrics(metrics);
  }
  void set_flight_recorder(obs::FlightRecorder* recorder) override {
    inner_->set_flight_recorder(recorder);
  }

  [[nodiscard]] ChaosStats chaos_stats() const;
  // Last delivery error text ("" when none) — see ChaosStats.delivery_errors.
  [[nodiscard]] std::string last_delivery_error() const;

 private:
  struct Pending {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq = 0;  // FIFO tie-break for equal due times
    Message message;
  };
  struct PendingLater {
    bool operator()(const Pending& a, const Pending& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };

  void courier_loop();
  // `text` ending in this transport's seed tag.
  [[nodiscard]] std::string seeded(std::string text) const;

  std::unique_ptr<Transport> inner_;
  ChaosOptions options_;
  mutable std::mutex mutex_;  // guards everything below
  std::condition_variable pending_cv_;
  std::priority_queue<Pending, std::vector<Pending>, PendingLater> pending_;
  Rng rng_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t crash_device_sends_ = 0;
  ChaosStats stats_;
  std::string last_error_;
  bool stopping_ = false;
  std::thread courier_;
};

}  // namespace voltage
