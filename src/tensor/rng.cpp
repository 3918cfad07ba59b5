#include "tensor/rng.h"

#include <cmath>
#include <numbers>

namespace voltage {

std::uint64_t Rng::next_u64() noexcept {
  // splitmix64: tiny, fast, well distributed, fully deterministic.
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

float Rng::next_uniform() noexcept {
  // 24 top bits -> [0, 1) exactly representable in float.
  return static_cast<float>(next_u64() >> 40) * 0x1.0p-24F;
}

float Rng::next_normal() noexcept {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  float u1 = next_uniform();
  const float u2 = next_uniform();
  if (u1 < 1e-12F) u1 = 1e-12F;
  const float mag = std::sqrt(-2.0F * std::log(u1));
  const float angle = 2.0F * std::numbers::pi_v<float> * u2;
  spare_ = mag * std::sin(angle);
  have_spare_ = true;
  return mag * std::cos(angle);
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  return bound == 0 ? 0 : next_u64() % bound;
}

Tensor Rng::normal_tensor(std::size_t rows, std::size_t cols, float stddev) {
  Tensor t(rows, cols);
  for (float& v : t.flat()) v = next_normal() * stddev;
  return t;
}

PackedMatrix Rng::normal_packed(std::size_t rows, std::size_t cols,
                                float stddev) {
  return PackedMatrix(rows, cols, [&] { return next_normal() * stddev; });
}

Tensor Rng::uniform_tensor(std::size_t rows, std::size_t cols, float lo,
                           float hi) {
  Tensor t(rows, cols);
  for (float& v : t.flat()) v = lo + (hi - lo) * next_uniform();
  return t;
}

}  // namespace voltage
