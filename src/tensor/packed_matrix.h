// A weight matrix stored once, as the GEMM's pre-packed B panels.
//
// Every device multiplies its rows by the same W_O, W1, W2 and head weights
// on every request and every decode step. Stored row-major, each of those
// GEMMs would re-pack the weight into NR-wide panels (gemm.h); a
// PackedMatrix holds the k x n matrix only in that panel layout, for the
// dispatched ISA's NR, so matmul(x, w) reads the panels in place. The object
// owns its panels: nothing is cached or looked up elsewhere, and no
// row-major copy is kept beside them.
//
// Values are written once, at construction, in row-major order, so a
// matrix filled from a generator holds exactly the values a row-major
// Tensor filled from the same generator would (Rng::normal_packed draws in
// normal_tensor's order). Cold consumers — int8 quantization, shard cutting
// — read them back through unpack() and the slices.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace voltage {

class PackedMatrix {
 public:
  PackedMatrix() = default;

  // rows x cols matrix whose element (r, c) is the (r * cols + c)-th call of
  // `next`: row 0 left to right, then row 1, and so on. Panels are `nr`
  // columns wide; matmul needs detail::gemm_panel_width(), and other widths
  // serve the kernel tests of narrower ISAs.
  template <class Next>
  PackedMatrix(std::size_t rows, std::size_t cols, Next&& next,
               std::size_t nr = detail::gemm_panel_width())
      : rows_(rows),
        cols_(cols),
        nr_(nr),
        storage_(rows * panel_cols() + kLineFloats - 1, 0.0F),
        offset_(line_offset(storage_.data())) {
    const std::size_t ldp = panel_cols();
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t pc = r - r % detail::kGemmKc;
      const std::size_t kc = std::min(detail::kGemmKc, rows - pc);
      float* const row = storage_.data() + offset_ + pc * ldp + (r - pc) * nr;
      for (std::size_t c0 = 0; c0 < cols; c0 += nr) {
        float* const dst = row + c0 * kc;
        const std::size_t width = std::min(nr, cols - c0);
        for (std::size_t j = 0; j < width; ++j) dst[j] = next();
      }
    }
  }

  // Packs a row-major matrix.
  explicit PackedMatrix(const Tensor& w,
                        std::size_t nr = detail::gemm_panel_width());

  // A copy aligns its own storage, which may sit at another offset.
  PackedMatrix(const PackedMatrix& other);
  PackedMatrix& operator=(const PackedMatrix& other);
  PackedMatrix(PackedMatrix&&) noexcept = default;
  PackedMatrix& operator=(PackedMatrix&&) noexcept = default;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  // Logical element count (rows x cols); the panels add zero padding up to
  // a whole panel width.
  [[nodiscard]] std::size_t size() const noexcept { return rows_ * cols_; }
  [[nodiscard]] std::size_t panel_width() const noexcept { return nr_; }
  // The first panel, on a 64-byte boundary.
  [[nodiscard]] const float* panels() const noexcept {
    return storage_.data() + offset_;
  }

  // The row-major matrix.
  [[nodiscard]] Tensor unpack() const;
  // Rows [begin, end) / columns [begin, end), packed at the same width.
  [[nodiscard]] PackedMatrix slice_rows(std::size_t begin,
                                        std::size_t end) const;
  [[nodiscard]] PackedMatrix slice_cols(std::size_t begin,
                                        std::size_t end) const;

 private:
  // The panels start on a cache line, so no vector load of a panel row
  // splits one: misaligned by 16 bytes, the one-row GEMV ran 1.9x slower.
  // The line is found by hand in plainly allocated storage. With glibc's
  // aligned allocation instead, a model rebuilt every serving episode left
  // the heap fragmented: serve_mixed's peak RSS climbed from 17 MB to
  // 36-57 MB over a 30 s run.
  static constexpr std::size_t kLineFloats = 64 / sizeof(float);
  static std::size_t line_offset(const float* p) noexcept {
    const auto misaligned = reinterpret_cast<std::uintptr_t>(p) % 64;
    return misaligned == 0 ? 0 : (64 - misaligned) / sizeof(float);
  }

  // Element (r, c).
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const noexcept;
  [[nodiscard]] std::size_t panel_cols() const noexcept {
    return (cols_ + nr_ - 1) / nr_ * nr_;
  }
  // Rows [r0, r1) x columns [c0, c1), packed at the same width.
  [[nodiscard]] PackedMatrix block(std::size_t r0, std::size_t r1,
                                   std::size_t c0, std::size_t c1) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t nr_ = 1;
  std::vector<float> storage_;  // the panels, from offset_ on
  std::size_t offset_ = 0;
};

}  // namespace voltage
