#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "core/thread_pool.h"
#include "obs/trace.h"
#include "tensor/flops.h"
#include "tensor/gemm.h"

namespace voltage {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

const char* gemm_variant(Trans ta, Trans tb) {
  if (ta == Trans::kNo) return tb == Trans::kNo ? "nn" : "nt";
  return tb == Trans::kNo ? "tn" : "tt";
}

// Allocates the m x n result c and runs kernel(c, r0, r1) over row ranges
// of it, each filling rows [r0, r1) from the k-deep product: the gemm span,
// the row split and the MAC count every matmul shares.
template <class Kernel>
Tensor run_gemm(const char* variant, std::size_t m, std::size_t k,
                std::size_t n, Kernel kernel) {
  Tensor c(m, n);
  if (m != 0 && n != 0 && k != 0) {
    // Kernel-time attribution: when a tracer is ambient (device threads, the
    // serving terminal), each GEMM reports its variant and shape so
    // trace_report can split layer time into kernel time.
    obs::TraceSpan span(obs::thread_tracer(), "gemm", "kernel",
                        obs::thread_track());
    if (span.enabled()) {
      span.layer(obs::thread_layer());
      span.tag(std::string(variant) + " " + std::to_string(m) + "x" +
               std::to_string(k) + "x" + std::to_string(n));
    }
    // Row-panel parallelism: every chunk owns whole C rows, so each row's FP
    // summation order — and therefore the result — is bitwise identical at
    // any intra-op thread count. The grain keeps tasks above ~256k MACs so
    // small GEMMs never pay pool latency.
    constexpr std::uint64_t kMacsPerTask = 1ULL << 18;
    const std::uint64_t row_macs = static_cast<std::uint64_t>(k) * n;
    const std::size_t grain = static_cast<std::size_t>(
        std::max<std::uint64_t>(detail::kGemmMr, kMacsPerTask / row_macs));
    parallel_for(0, m, grain, [&](std::size_t r0, std::size_t r1) {
      kernel(c.data(), r0, r1);
    });
  }
  flops::add_matmul_macs(static_cast<std::uint64_t>(m) * k * n);
  return c;
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, Trans ta, Trans tb) {
  const std::size_t m = ta == Trans::kNo ? a.rows() : a.cols();
  const std::size_t ka = ta == Trans::kNo ? a.cols() : a.rows();
  const std::size_t kb = tb == Trans::kNo ? b.rows() : b.cols();
  const std::size_t n = tb == Trans::kNo ? b.cols() : b.rows();
  require(ka == kb, "matmul: inner dimensions do not conform");
  const bool trans_a = ta == Trans::kYes;
  const bool trans_b = tb == Trans::kYes;
  return run_gemm(gemm_variant(ta, tb), m, ka, n,
                  [&](float* c, std::size_t r0, std::size_t r1) {
                    detail::gemm_blocked(a.data(), trans_a, b.data(), trans_b,
                                         c, m, r0, r1, ka, n);
                  });
}

Tensor matmul(const Tensor& a, const PackedMatrix& w) {
  require(a.cols() == w.rows(), "matmul: inner dimensions do not conform");
  require(w.panel_width() == detail::gemm_panel_width(),
          "matmul: weight packed for another panel width");
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = w.cols();
  return run_gemm("nn", m, k, n,
                  [&](float* c, std::size_t r0, std::size_t r1) {
                    detail::gemm_packed(a.data(), w.panels(), c, m, r0, r1, k,
                                        n);
                  });
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  add_inplace(out, b);
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  require(a.same_shape(b), "add: shape mismatch");
  auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) fa[i] += fb[i];
  flops::add_elementwise(fa.size());
}

Tensor sub(const Tensor& a, const Tensor& b) {
  require(a.same_shape(b), "sub: shape mismatch");
  Tensor out = a;
  auto fo = out.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fo.size(); ++i) fo[i] -= fb[i];
  flops::add_elementwise(fo.size());
  return out;
}

void add_bias_inplace(Tensor& x, const Tensor& bias) {
  require(bias.rows() == 1 && bias.cols() == x.cols(),
          "add_bias: bias must be 1 x cols");
  for (std::size_t r = 0; r < x.rows(); ++r) {
    auto row = x.row(r);
    const auto b = bias.row(0);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] += b[c];
  }
  flops::add_elementwise(x.size());
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  scale_inplace(out, s);
  return out;
}

void scale_inplace(Tensor& a, float s) {
  for (float& v : a.flat()) v *= s;
  flops::add_elementwise(a.size());
}

Tensor softmax_rows(const Tensor& x, float pre_scale) {
  Tensor out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto in = x.row(r);
    auto o = out.row(r);
    for (std::size_t c = 0; c < in.size(); ++c) o[c] = in[c] * pre_scale;
    const float maxv = detail::max(o.data(), o.size());
    for (float& v : o) v -= maxv;
    detail::exp(o.data(), o.data(), o.size());
    float sum = 0.0F;
    for (const float v : o) sum += v;
    const float inv = 1.0F / sum;
    for (float& v : o) v *= inv;
  }
  flops::add_elementwise(4 * x.size());
  return out;
}

Tensor layernorm_rows(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                      float eps) {
  require(gamma.rows() == 1 && gamma.cols() == x.cols(),
          "layernorm: gamma must be 1 x cols");
  require(beta.rows() == 1 && beta.cols() == x.cols(),
          "layernorm: beta must be 1 x cols");
  Tensor out(x.rows(), x.cols());
  const auto g = gamma.row(0);
  const auto b = beta.row(0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto in = x.row(r);
    auto o = out.row(r);
    float mean = 0.0F;
    for (const float v : in) mean += v;
    mean /= static_cast<float>(in.size());
    float var = 0.0F;
    for (const float v : in) var += (v - mean) * (v - mean);
    var /= static_cast<float>(in.size());
    const float inv_std = 1.0F / std::sqrt(var + eps);
    for (std::size_t c = 0; c < in.size(); ++c) {
      o[c] = (in[c] - mean) * inv_std * g[c] + b[c];
    }
  }
  flops::add_elementwise(5 * x.size());
  return out;
}

Tensor relu(const Tensor& x) {
  Tensor out = x;
  for (float& v : out.flat()) v = std::max(v, 0.0F);
  flops::add_elementwise(x.size());
  return out;
}

Tensor gelu(const Tensor& x) {
  Tensor out(x.rows(), x.cols());
  detail::gelu(x.data(), out.data(), x.size());
  flops::add_elementwise(8 * x.size());
  return out;
}

Tensor concat_cols(std::span<const Tensor> parts) {
  require(!parts.empty(), "concat_cols: no parts");
  const std::size_t rows = parts.front().rows();
  std::size_t cols = 0;
  for (const Tensor& p : parts) {
    require(p.rows() == rows, "concat_cols: row mismatch");
    cols += p.cols();
  }
  Tensor out(rows, cols);
  std::size_t offset = 0;
  for (const Tensor& p : parts) {
    for (std::size_t r = 0; r < rows; ++r) {
      const auto src = p.row(r);
      std::copy(src.begin(), src.end(), out.row(r).data() + offset);
    }
    offset += p.cols();
  }
  return out;
}

Tensor concat_rows(std::span<const Tensor> parts) {
  require(!parts.empty(), "concat_rows: no parts");
  const std::size_t cols = parts.front().cols();
  std::size_t rows = 0;
  for (const Tensor& p : parts) {
    require(p.cols() == cols, "concat_rows: column mismatch");
    rows += p.rows();
  }
  Tensor out(rows, cols);
  std::size_t offset = 0;
  for (const Tensor& p : parts) {
    out.set_rows(offset, p);
    offset += p.rows();
  }
  return out;
}

Tensor mean_rows(const Tensor& x) {
  require(x.rows() > 0, "mean_rows: empty tensor");
  Tensor out(1, x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto in = x.row(r);
    auto o = out.row(0);
    for (std::size_t c = 0; c < in.size(); ++c) o[c] += in[c];
  }
  scale_inplace(out, 1.0F / static_cast<float>(x.rows()));
  return out;
}

std::size_t argmax_row(const Tensor& x, std::size_t row) {
  const auto r = x.row(row);
  return static_cast<std::size_t>(
      std::distance(r.begin(), std::max_element(r.begin(), r.end())));
}

}  // namespace voltage
