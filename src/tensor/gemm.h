// Cache-blocked, register-tiled GEMM kernels with operand packing.
//
// All kernels compute C += op(A) · B on float data. A and C are row-major,
// and the transposed variants read A or B through its packing routine —
// matmul never materializes a transposed copy of A or B. B comes in one of
// two layouts: row-major (op(B) = B or B^T), packed per call into NR-wide
// column panels; or pre-packed, already stored as exactly those panels
// (a PackedMatrix weight, see tensor/packed_matrix.h), which the blocked
// loop reads in place.
//
// The implementation (gemm_impl.inc) is compiled three times: baseline ISA
// (gemm_base.cpp, 4x8 tile), AVX2+FMA (gemm_avx2.cpp, 6x16 ymm tile, 8-lane
// GEMV), and AVX-512 (gemm_avx512.cpp, 8x32 zmm tile, 16-lane GEMV). The
// entry points below dispatch once per process on __builtin_cpu_supports,
// always pairing the kernel with the reference from the *same* TU so both
// share one FP-contraction choice.
//
// Bitwise contract (load-bearing; tests/gemm_test.cpp enforces it):
//   * Every output element accumulates its k products in strictly increasing
//     k order, starting from the existing C value. The micro-kernel tile is
//     loaded from C, accumulated in registers, and stored back once per
//     k-block, so the per-element FP chain is identical to the naive
//     i-j-k reference loop compiled alongside it — whichever layout B has.
//   * Parallel callers split the *row* dimension only (see ops.cpp); each
//     row's chain lives entirely inside one chunk, so results are bitwise
//     identical at any intra-op thread count, and a row-slice of a larger
//     GEMM equals the same rows of the full GEMM — the distributed-vs-single
//     device equivalence the runtime tests rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace voltage::detail {

// Baseline register tile (the AVX2 path uses 6x16). kGemmMr doubles as the
// minimum row-split quantum for threaded callers.
inline constexpr std::size_t kGemmMr = 4;
inline constexpr std::size_t kGemmNr = 8;

// Cache blocking: the packed B panel (kKc x NR) stays L1-resident across the
// ir sweep; the packed A block (kMc x kKc) targets L2; kNc bounds the
// packed-B workspace. kKc also fixes the pre-packed layout (see
// gemm_packed), on every ISA.
inline constexpr std::size_t kGemmKc = 256;
inline constexpr std::size_t kGemmMc = 128;
inline constexpr std::size_t kGemmNc = 1024;

// C[i0:i1, :] += op(A)[i0:i1, :] · op(B). The row range selects output rows,
// so callers can split m across threads without touching the contract above.
// `m` is always the full op(A) row count (it fixes the stored strides);
// A is stored m x k when !trans_a, k x m when trans_a; likewise B is
// k x n / n x k. C is the full m x n matrix with row stride n.
void gemm_blocked(const float* a, bool trans_a, const float* b, bool trans_b,
                  float* c, std::size_t m, std::size_t i0, std::size_t i1,
                  std::size_t k, std::size_t n);

// C[i0:i1, :] += A[i0:i1, :] · B for A stored m x k and B pre-packed: the
// k x n matrix stored as the panels the blocked loop would pack per call on
// the dispatched ISA. Rows [pc, pc + kc) of B (pc a multiple of kGemmKc, kc
// = min(kGemmKc, k - pc)) form one block of round_up(n, NR) / NR panels,
// each kc x NR, p-major (panel[p * NR + j]), columns past n zero; the panel
// of block pc starting at column j sits at pc * round_up(n, NR) + j * kc.
// A one-row range runs a GEMV over the panels, bitwise equal to gemv().
void gemm_packed(const float* a, const float* b_panels, float* c,
                 std::size_t m, std::size_t i0, std::size_t i1, std::size_t k,
                 std::size_t n);

// NR, the panel width gemm_packed expects on the dispatched ISA.
std::size_t gemm_panel_width() noexcept;

// Process-wide count of per-call B packs (one per column block and k block
// of a GEMM whose B is row-major). GEMMs on pre-packed panels never bump it.
std::uint64_t pack_b_count() noexcept;
// Bumps pack_b_count(); called by every ISA's packing routine.
void count_pack_b() noexcept;

// Dedicated entry points per operand layout (whole problem, single thread).
void gemm_nn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n);
void gemm_nt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n);
void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n);
void gemm_tt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n);

// Single-row GEMV: c[0:n] += a[0:k] · op(B), where op(B) is B stored
// k x n or, when trans_b, the transpose of B stored n x k — either way with
// row stride `ldb`, so B may be a column window of a wider matrix (one
// head's K columns of a KV page). Same bitwise contract as the GEMM: each
// c[j] accumulates its k products in increasing k order through the same
// fused operation, so the result equals row 0 of gemm_reference on a packed
// copy of that window, and a sum split into consecutive k-ranges (one call
// per KV page) equals the unsplit call.
void gemv(const float* a, const float* b, std::size_t ldb, bool trans_b,
          float* c, std::size_t k, std::size_t n);

// Elementwise kernels, y[i] = f(x[i]) for i < n; y may alias x. Each
// vectorizes across elements and runs its ragged tail through the same
// masked vector operations, and each is bitwise equal to a scalar
// reference built from the same multiply-accumulate in the same TU.
//   gelu: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))), tanh as a
//         clamped rational minimax fit; within 4e-6 of the exact formula
//         on [-12, 12].
//   exp:  e^x by range reduction and a polynomial; within 4 ulp of e^x on
//         [-87, 0]. e^-inf = +0, e^+inf = +inf, NaN stays NaN.
//   max:  the largest of x[0:n] as the chain m = std::max(m, x[i]) from
//         m = -inf returns it: a NaN never wins, -inf when n == 0, and of
//         equal zeros the first one, so its sign matches too.
void gelu(const float* x, float* y, std::size_t n);
void exp(const float* x, float* y, std::size_t n);
float max(const float* x, std::size_t n);

// Naive i-j-k triple loop, one accumulator per element in strictly
// increasing k order — the bitwise reference the tiled kernels must match.
// Dispatched to the same TU as the kernels above.
void gemm_reference(const float* a, bool trans_a, const float* b, bool trans_b,
                    float* c, std::size_t m, std::size_t k, std::size_t n);

// One compiled ISA instantiation of the kernels above; its references come
// from the same TU.
struct GemmVariant {
  const char* arch;  // "avx512", "avx2", or "base"
  std::size_t mr;    // register tile rows
  std::size_t nr;    // register tile columns: the B panel width
  void (*blocked)(const float* a, bool trans_a, const float* b, bool trans_b,
                  float* c, std::size_t m, std::size_t i0, std::size_t i1,
                  std::size_t k, std::size_t n);
  void (*packed)(const float* a, const float* b_panels, float* c,
                 std::size_t m, std::size_t i0, std::size_t i1, std::size_t k,
                 std::size_t n);
  void (*gemv)(const float* a, const float* b, std::size_t ldb, bool trans_b,
               float* c, std::size_t k, std::size_t n);
  void (*reference)(const float* a, bool trans_a, const float* b,
                    bool trans_b, float* c, std::size_t m, std::size_t k,
                    std::size_t n);
  void (*gelu)(const float* x, float* y, std::size_t n);
  void (*gelu_reference)(const float* x, float* y, std::size_t n);
  void (*exp)(const float* x, float* y, std::size_t n);
  void (*exp_reference)(const float* x, float* y, std::size_t n);
  float (*max)(const float* x, std::size_t n);
};

// Every variant compiled into this binary that the host CPU can execute,
// widest ISA first. The entry points above dispatch to the first.
std::span<const GemmVariant> gemm_variants() noexcept;

// ISA variant the dispatcher selected: "avx512", "avx2", or "base".
const char* gemm_kernel_arch() noexcept;

}  // namespace voltage::detail
