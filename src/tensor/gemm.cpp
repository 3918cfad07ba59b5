// Runtime ISA dispatch for the blocked GEMM. The kernel and the naive
// reference always come from the same translation unit, so the compiler's
// FP-contraction choice (mul+add on baseline, fused FMA under -mfma) applies
// to both identically and the bitwise contract in gemm.h holds on every ISA.
#include "tensor/gemm.h"

#include <array>

namespace voltage::detail {

// Each instantiation of gemm_impl.inc describes itself.
namespace base {
GemmVariant variant() noexcept;
}  // namespace base

#if defined(__x86_64__) || defined(_M_X64)
namespace avx2 {
GemmVariant variant() noexcept;
}  // namespace avx2
namespace avx512 {
GemmVariant variant() noexcept;
}  // namespace avx512
#endif

namespace {

struct Variants {
  std::array<GemmVariant, 3> list{};
  std::size_t count = 0;
};

Variants probe() noexcept {
  Variants v;
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
    v.list[v.count++] = avx512::variant();
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    v.list[v.count++] = avx2::variant();
  }
#endif
  v.list[v.count++] = base::variant();
  return v;
}

const Variants& variants() noexcept {
  static const Variants v = probe();
  return v;
}

const GemmVariant& dispatch() noexcept { return variants().list[0]; }

}  // namespace

void gemm_blocked(const float* a, bool trans_a, const float* b, bool trans_b,
                  float* c, std::size_t m, std::size_t i0, std::size_t i1,
                  std::size_t k, std::size_t n) {
  dispatch().blocked(a, trans_a, b, trans_b, c, m, i0, i1, k, n);
}

void gemm_nn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n) {
  gemm_blocked(a, false, b, false, c, m, 0, m, k, n);
}

void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n) {
  gemm_blocked(a, false, b, true, c, m, 0, m, k, n);
}

void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n) {
  gemm_blocked(a, true, b, false, c, m, 0, m, k, n);
}

void gemm_tt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n) {
  gemm_blocked(a, true, b, true, c, m, 0, m, k, n);
}

void gemv(const float* a, const float* b, std::size_t ldb, bool trans_b,
          float* c, std::size_t k, std::size_t n) {
  dispatch().gemv(a, b, ldb, trans_b, c, k, n);
}

void gelu(const float* x, float* y, std::size_t n) { dispatch().gelu(x, y, n); }

void exp(const float* x, float* y, std::size_t n) { dispatch().exp(x, y, n); }

void gemm_reference(const float* a, bool trans_a, const float* b, bool trans_b,
                    float* c, std::size_t m, std::size_t k, std::size_t n) {
  dispatch().reference(a, trans_a, b, trans_b, c, m, k, n);
}

std::span<const GemmVariant> gemm_variants() noexcept {
  const Variants& v = variants();
  return {v.list.data(), v.count};
}

const char* gemm_kernel_arch() noexcept { return dispatch().arch; }

}  // namespace voltage::detail
