#include "tensor/packed_matrix.h"

#include <stdexcept>

namespace voltage {

PackedMatrix::PackedMatrix(const Tensor& w, std::size_t nr)
    : PackedMatrix(
          w.rows(), w.cols(), [v = w.data()]() mutable { return *v++; }, nr) {}

PackedMatrix::PackedMatrix(const PackedMatrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      nr_(other.nr_),
      storage_(other.storage_.size(), 0.0F),
      offset_(line_offset(storage_.data())) {
  std::copy_n(other.panels(), rows_ * panel_cols(), storage_.data() + offset_);
}

PackedMatrix& PackedMatrix::operator=(const PackedMatrix& other) {
  if (this != &other) *this = PackedMatrix(other);
  return *this;
}

float PackedMatrix::operator()(std::size_t r, std::size_t c) const noexcept {
  const std::size_t pc = r - r % detail::kGemmKc;
  const std::size_t kc = std::min(detail::kGemmKc, rows_ - pc);
  return panels()[pc * panel_cols() + (c - c % nr_) * kc + (r - pc) * nr_ +
                  c % nr_];
}

Tensor PackedMatrix::unpack() const {
  Tensor out(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(r, c) = (*this)(r, c);
  }
  return out;
}

PackedMatrix PackedMatrix::slice_rows(std::size_t begin,
                                      std::size_t end) const {
  if (begin > end || end > rows_) {
    throw std::out_of_range("PackedMatrix::slice_rows: bad range");
  }
  return block(begin, end, 0, cols_);
}

PackedMatrix PackedMatrix::slice_cols(std::size_t begin,
                                      std::size_t end) const {
  if (begin > end || end > cols_) {
    throw std::out_of_range("PackedMatrix::slice_cols: bad range");
  }
  return block(0, rows_, begin, end);
}

PackedMatrix PackedMatrix::block(std::size_t r0, std::size_t r1,
                                 std::size_t c0, std::size_t c1) const {
  std::size_t r = r0;
  std::size_t c = c0;
  return PackedMatrix(
      r1 - r0, c1 - c0,
      [&] {
        const float v = (*this)(r, c);
        if (++c == c1) {
          c = c0;
          ++r;
        }
        return v;
      },
      nr_);
}

}  // namespace voltage
