#include "core/spin_wait.h"

#include <sched.h>

namespace voltage {

std::size_t usable_cpus() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int cpus = CPU_COUNT(&set);
  return cpus > 0 ? static_cast<std::size_t>(cpus) : 1;
}

bool may_spin(std::size_t threads) noexcept {
  const std::size_t cpus = usable_cpus();
  return cpus > 1 && threads <= cpus;
}

}  // namespace voltage
