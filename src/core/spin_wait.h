// Spin-then-park: how long a blocking wait on the step path polls before it
// parks its thread, and when it may poll at all. Waking a parked thread
// costs about 10 us per hop on a KVM vCPU; a polling one sees the message in
// under 1 us. Polling pays only while the thread it waits for runs too, so a
// wait spins only when every thread of its round can have a CPU, and each
// poll gives its CPU to any other thread that is ready to run there.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstddef>

namespace voltage {

// How long one wait polls, in total, before it parks. It covers the
// terminal's wait for a step's final rows (0.4-0.5 ms at context 1000),
// which sits on every decode step's critical path; DESIGN "Device mesh"
// records the sweep it was chosen from.
inline constexpr std::chrono::microseconds kSpinBudget{1000};

// CPUs this process may run on (sched_getaffinity); 1 if it cannot tell.
[[nodiscard]] std::size_t usable_cpus() noexcept;

// Whether a wait whose round needs `threads` runnable threads may spin:
// only when each of them can have a CPU of its own, and never on one CPU.
[[nodiscard]] bool may_spin(std::size_t threads) noexcept;

// A yield that kept a spinning thread off its CPU longer than this means
// another thread had work there; the wait parks instead (spin_until).
inline constexpr std::chrono::microseconds kCpuTaken{20};

// Polls `ready` until it holds or `until` passes, and yields the CPU
// between polls: may_spin sees only this process's rounds, not a server's
// clients, a load generator or other processes, and a poll that kept the
// CPU would hold them off until the budget or the scheduler's time slice
// ran out. With nothing else ready there, sched_yield returns at once
// (about 0.3 us on a KVM vCPU). Returns false, early, once one yield kept
// the thread off its CPU for more than kCpuTaken: the CPU is
// oversubscribed right now, so the caller parks for the rest of its wait.
template <typename Ready>
bool spin_until(std::chrono::steady_clock::time_point until, Ready&& ready) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point last = Clock::now();
  while (!ready()) {
    const Clock::time_point now = Clock::now();
    if (now >= until) return true;
    if (now - last > kCpuTaken) return false;
    last = now;
    sched_yield();
  }
  return true;
}

}  // namespace voltage
