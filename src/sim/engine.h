// Minimal discrete-event simulation engine: a virtual clock and an ordered
// event queue. Events scheduled for the same instant fire in scheduling
// order, so simulations are fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace voltage::sim {

using SimTime = double;  // virtual seconds

class Engine {
 public:
  // Schedules `fn` at absolute virtual time `t`; throws if t is in the past.
  void schedule(SimTime t, std::function<void()> fn);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }

  // Fires the next event; returns false when the queue is empty.
  bool step();
  // Runs until no events remain.
  void run();

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;  // tie-breaker: FIFO among simultaneous events
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace voltage::sim
