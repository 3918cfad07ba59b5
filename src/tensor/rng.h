// Deterministic random number generation for weight initialization and
// synthetic workloads. A fixed, owned generator (splitmix64) guarantees
// identical tensors across platforms and runs, which the correctness tests
// (distributed output == single-device output) rely on.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace voltage {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  // Uniform in [0, 2^64).
  std::uint64_t next_u64() noexcept;
  // Uniform in [0, 1).
  float next_uniform() noexcept;
  // Standard normal via Box-Muller.
  float next_normal() noexcept;
  // Uniform integer in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  // rows x cols tensor with N(0, stddev^2) entries.
  Tensor normal_tensor(std::size_t rows, std::size_t cols, float stddev);
  // rows x cols tensor uniform in [lo, hi).
  Tensor uniform_tensor(std::size_t rows, std::size_t cols, float lo, float hi);

 private:
  std::uint64_t state_;
  bool have_spare_ = false;
  float spare_ = 0.0F;
};

}  // namespace voltage
