// Kernels over Tensor. Every GEMM reports its MAC count into
// voltage::flops so the paper's Γ(·) complexity analysis can be verified
// against executed work.
#pragma once

#include "tensor/packed_matrix.h"
#include "tensor/tensor.h"

namespace voltage {

enum class Trans : std::uint8_t { kNo, kYes };

// C = op(A) * op(B) where op is optional transposition.
// Shapes must conform; throws std::invalid_argument otherwise.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b,
                            Trans ta = Trans::kNo, Trans tb = Trans::kNo);

// C = A * W for a pre-packed weight W: the result, MAC count and gemm trace
// span of matmul(a, w.unpack()), without packing W on every call. Throws
// std::invalid_argument when the shapes do not conform or W was packed for
// another ISA's panel width.
[[nodiscard]] Tensor matmul(const Tensor& a, const PackedMatrix& w);

// Elementwise sum / difference; shapes must match.
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
void add_inplace(Tensor& a, const Tensor& b);
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);

// Adds a 1 x cols bias row to every row of x.
void add_bias_inplace(Tensor& x, const Tensor& bias);

[[nodiscard]] Tensor scale(const Tensor& a, float s);
void scale_inplace(Tensor& a, float s);

// Row-wise softmax; `pre_scale` is applied to logits first
// (the attention 1/sqrt(F_H) factor).
[[nodiscard]] Tensor softmax_rows(const Tensor& x, float pre_scale = 1.0F);

// Row-wise layer normalization with learned gain/bias (1 x cols each).
[[nodiscard]] Tensor layernorm_rows(const Tensor& x, const Tensor& gamma,
                                    const Tensor& beta, float eps = 1e-5F);

[[nodiscard]] Tensor relu(const Tensor& x);
// tanh-approximation GELU as used by BERT/GPT-2.
[[nodiscard]] Tensor gelu(const Tensor& x);

// Horizontal concatenation: all inputs share the row count.
[[nodiscard]] Tensor concat_cols(std::span<const Tensor> parts);
// Vertical concatenation: all inputs share the column count.
[[nodiscard]] Tensor concat_rows(std::span<const Tensor> parts);

// Mean over rows -> 1 x cols (used by classification pooling).
[[nodiscard]] Tensor mean_rows(const Tensor& x);

// Index of the maximum element in a 1 x C tensor.
[[nodiscard]] std::size_t argmax_row(const Tensor& x, std::size_t row);

}  // namespace voltage
