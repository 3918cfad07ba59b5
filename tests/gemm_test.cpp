// Bitwise contracts of the blocked GEMM substrate (src/tensor/gemm.h):
// every kernel variant must equal the naive i-j-k reference exactly, with B
// row-major or pre-packed (and each elementwise kernel its scalar
// reference, within stated accuracy of double precision; the row max the
// std::max chain), results must not change with the intra-op thread
// budget, transposed operands must never be materialized, and the
// distributed runtime must reproduce single-device inference bit for bit
// under the naive attention order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/thread_pool.h"
#include "runtime/voltage_runtime.h"
#include "tensor/flops.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/packed_matrix.h"
#include "tensor/rng.h"
#include "transformer/tokenizer.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

void expect_bitwise(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        a.rows() * a.cols() * sizeof(float)),
            0);
}

struct Shape {
  std::size_t m, k, n;
};

// Mixes tile-aligned shapes with shapes that exercise every edge path:
// m/n/k not divisible by any micro-tile or cache-block size, degenerate
// single-row/column cases, and k spanning multiple KC blocks. The last row
// is 1-row GEMVs with n >= 8, so they fill whole AVX2/AVX-512 lanes: the
// decoder's q·W_K^T, a reordered query over P=173 rows and a naive one over
// 37 (mini-gpt2: F=128, F_H=32), then a long k across several vector
// blocks. All but q·W_K^T end in a masked tail.
const std::vector<Shape>& test_shapes() {
  static const std::vector<Shape> shapes = {
      {1, 1, 1},     {2, 3, 4},      {5, 7, 9},      {8, 8, 8},
      {13, 1, 31},   {1, 257, 1},    {33, 17, 29},   {64, 64, 64},
      {65, 300, 33}, {100, 48, 129}, {128, 256, 96}, {141, 260, 70},
      {1, 32, 128},  {1, 128, 173},  {1, 32, 37},    {1, 300, 200},
  };
  return shapes;
}

// Every variant this host can execute, not just the dispatched one, so an
// AVX-512 host also checks the AVX2 and baseline kernels.
TEST(GemmKernels, MatchNaiveReferenceBitwiseForAllVariantsAndShapes) {
  ASSERT_FALSE(detail::gemm_variants().empty());
  for (const detail::GemmVariant& variant : detail::gemm_variants()) {
    SCOPED_TRACE(variant.arch);
    Rng rng(42);
    for (const Shape& s : test_shapes()) {
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          // Stored layouts: A is m x k (or k x m when transposed), likewise
          // B.
          const Tensor a = ta ? rng.normal_tensor(s.k, s.m, 1.0F)
                              : rng.normal_tensor(s.m, s.k, 1.0F);
          const Tensor b = tb ? rng.normal_tensor(s.n, s.k, 1.0F)
                              : rng.normal_tensor(s.k, s.n, 1.0F);
          // Both sides accumulate onto the same nonzero C.
          const Tensor c0 = rng.normal_tensor(s.m, s.n, 1.0F);
          Tensor c_kernel = c0;
          Tensor c_ref = c0;
          variant.blocked(a.data(), ta, b.data(), tb, c_kernel.data(), s.m, 0,
                          s.m, s.k, s.n);
          variant.reference(a.data(), ta, b.data(), tb, c_ref.data(), s.m,
                            s.k, s.n);
          expect_bitwise(c_kernel, c_ref);
        }
      }
    }
  }
}

TEST(GemmKernels, DispatchRunsTheWidestExecutableVariant) {
  EXPECT_STREQ(detail::gemm_variants().front().arch,
               detail::gemm_kernel_arch());
  EXPECT_STREQ(detail::gemm_variants().back().arch, "base");
}

// detail::gemv over a column window of a wider matrix (row stride ldb > the
// window's width), as the decoder scores one head's K columns of a KV page:
// equal to the reference on a packed copy of the window, and a k-sum split
// at page boundaries equals the unsplit call.
TEST(GemmKernels, StridedGemvMatchesReferenceOnEveryVariant) {
  constexpr std::size_t kLd = 256;  // stored row width
  constexpr std::size_t kCol = 96;  // window's first column
  for (const detail::GemmVariant& variant : detail::gemm_variants()) {
    SCOPED_TRACE(variant.arch);
    Rng rng(5);
    for (const Shape& s : {Shape{1, 32, 37}, Shape{1, 16, 32},
                           Shape{1, 128, 17}, Shape{1, 23, 9}}) {
      for (const bool tb : {false, true}) {
        // The window is k x n (n x k when transposed) inside rows of kLd.
        const std::size_t rows = tb ? s.n : s.k;
        const std::size_t cols = tb ? s.k : s.n;
        const Tensor wide = rng.normal_tensor(rows, kLd, 1.0F);
        Tensor window(rows, cols);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t c = 0; c < cols; ++c) {
            window(r, c) = wide(r, kCol + c);
          }
        }
        const Tensor a = rng.normal_tensor(1, s.k, 1.0F);
        const Tensor c0 = rng.normal_tensor(1, s.n, 1.0F);
        Tensor c_ref = c0;
        variant.reference(a.data(), false, window.data(), tb, c_ref.data(), 1,
                          s.k, s.n);
        Tensor c_gemv = c0;
        variant.gemv(a.data(), wide.data() + kCol, kLd, tb, c_gemv.data(), s.k,
                     s.n);
        expect_bitwise(c_gemv, c_ref);
        if (tb) continue;
        // Plain form split into consecutive k-ranges (KV pages).
        Tensor c_paged = c0;
        for (std::size_t p0 = 0; p0 < s.k; p0 += 5) {
          const std::size_t kp = std::min<std::size_t>(5, s.k - p0);
          variant.gemv(a.data() + p0, wide.data() + p0 * kLd + kCol, kLd,
                       false, c_paged.data(), kp, s.n);
        }
        expect_bitwise(c_paged, c_ref);
      }
    }
  }
  // The dispatched entry point is the first variant.
  Rng rng(6);
  const Tensor a = rng.normal_tensor(1, 32, 1.0F);
  const Tensor b = rng.normal_tensor(40, kLd, 1.0F);
  Tensor c_entry(1, 40);
  Tensor c_first(1, 40);
  detail::gemv(a.data(), b.data(), kLd, true, c_entry.data(), 32, 40);
  detail::gemm_variants().front().gemv(a.data(), b.data(), kLd, true,
                                       c_first.data(), 32, 40);
  expect_bitwise(c_entry, c_first);
}

TEST(GemmKernels, DedicatedEntryPointsMatchReference) {
  Rng rng(7);
  const std::size_t m = 37, k = 53, n = 29;
  const Tensor a = rng.normal_tensor(m, k, 1.0F);
  const Tensor at = rng.normal_tensor(k, m, 1.0F);
  const Tensor b = rng.normal_tensor(k, n, 1.0F);
  const Tensor bt = rng.normal_tensor(n, k, 1.0F);

  const auto check = [&](const Tensor& sa, bool ta, const Tensor& sb, bool tb,
                         auto kernel) {
    Tensor c_kernel(m, n);
    Tensor c_ref(m, n);
    kernel(sa.data(), sb.data(), c_kernel.data(), m, k, n);
    detail::gemm_reference(sa.data(), ta, sb.data(), tb, c_ref.data(), m, k,
                           n);
    expect_bitwise(c_kernel, c_ref);
  };
  check(a, false, b, false, detail::gemm_nn);
  check(a, false, bt, true, detail::gemm_nt);
  check(at, true, b, false, detail::gemm_tn);
  check(at, true, bt, true, detail::gemm_tt);
}

TEST(GemmKernels, RowRangeSplitsReproduceTheFullResult) {
  Rng rng(11);
  const std::size_t m = 67, k = 40, n = 51;
  const Tensor a = rng.normal_tensor(m, k, 1.0F);
  const Tensor b = rng.normal_tensor(k, n, 1.0F);
  Tensor full(m, n);
  detail::gemm_blocked(a.data(), false, b.data(), false, full.data(), m, 0, m,
                       k, n);

  // Uneven split points, including a single-row chunk.
  Tensor split(m, n);
  const std::size_t cuts[] = {0, 5, 6, 40, m};
  for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
    detail::gemm_blocked(a.data(), false, b.data(), false, split.data(), m,
                         cuts[c], cuts[c + 1], k, n);
  }
  expect_bitwise(full, split);
}

TEST(GemmKernels, MatmulIsBitwiseIdenticalAcrossIntraOpBudgets) {
  Rng rng(13);
  for (const Shape& s : {Shape{37, 23, 41}, Shape{130, 64, 50}}) {
    const Tensor a = rng.normal_tensor(s.m, s.k, 1.0F);
    const Tensor b = rng.normal_tensor(s.k, s.n, 1.0F);
    std::vector<Tensor> results;
    for (const std::size_t threads : {1U, 2U, 4U}) {
      const IntraOpScope scope(threads);
      results.push_back(matmul(a, b));
    }
    expect_bitwise(results[0], results[1]);
    expect_bitwise(results[0], results[2]);
  }
}

TEST(GemmKernels, TransposedMatmulNeverMaterializesACopy) {
  Rng rng(17);
  const Tensor a = rng.normal_tensor(45, 33, 1.0F);
  const Tensor b = rng.normal_tensor(51, 33, 1.0F);     // op(b)^T is 33 x 51
  const Tensor at = rng.normal_tensor(33, 45, 1.0F);    // op(at)^T is 45 x 33
  const Tensor c = rng.normal_tensor(33, 20, 1.0F);
  const std::uint64_t before = Tensor::transpose_copy_count();
  (void)matmul(a, b, Trans::kNo, Trans::kYes);    // NT: 45x33 · 33x51
  (void)matmul(at, b, Trans::kYes, Trans::kYes);  // TT: 45x33 · 33x51
  (void)matmul(at, c, Trans::kYes, Trans::kNo);   // TN: 45x33 · 33x20
  EXPECT_EQ(Tensor::transpose_copy_count(), before);
  // The counter itself is live: an explicit transpose still registers.
  (void)a.transposed();
  EXPECT_EQ(Tensor::transpose_copy_count(), before + 1);
}

TEST(GemmKernels, MacAccountingIsExactUnderThreading) {
  Rng rng(19);
  const std::size_t m = 96, k = 64, n = 80;
  const Tensor a = rng.normal_tensor(m, k, 1.0F);
  const Tensor b = rng.normal_tensor(k, n, 1.0F);
  const IntraOpScope scope(4);
  const flops::Scope counter;
  (void)matmul(a, b);
  EXPECT_EQ(counter.macs(), static_cast<std::uint64_t>(m) * k * n);
}

TEST(GemmKernels, DispatchReportsAKnownArch) {
  const std::string_view arch = detail::gemm_kernel_arch();
  EXPECT_TRUE(arch == "avx512" || arch == "avx2" || arch == "base") << arch;
}

// --- Pre-packed B (PackedMatrix) ------------------------------------------

// Every m, k, n around the variant's register tile and the k block: one row
// (the panel GEMV), the tile height +-1, a 53-row edge partition; one k
// row, a k block +-1 and three blocks; one column, a panel +-1 and
// distilbert's FFN width. The packed GEMM, the per-call-packed GEMM and the
// reference all accumulate onto the same nonzero C. Rows are independent,
// so each m runs on the first m rows of one 53-row problem.
TEST(PackedGemm, MatchesPerCallPackAndReferenceAtRaggedShapes) {
  constexpr std::size_t kc = detail::kGemmKc;
  constexpr std::size_t kRows = 53;
  for (const detail::GemmVariant& variant : detail::gemm_variants()) {
    SCOPED_TRACE(variant.arch);
    Rng rng(41);
    for (const std::size_t k : {std::size_t{1}, kc - 1, kc, kc + 1,
                                std::size_t{768}}) {
      for (const std::size_t n : {std::size_t{1}, variant.nr - 1,
                                  variant.nr + 1, std::size_t{3072}}) {
        const Tensor a = rng.normal_tensor(kRows, k, 1.0F);
        const Tensor w = rng.normal_tensor(k, n, 1.0F);
        const PackedMatrix packed(w, variant.nr);
        const Tensor c0 = rng.normal_tensor(kRows, n, 1.0F);
        // The reference reads W through its stored transpose: the same
        // chains, with a contiguous inner loop.
        const Tensor wt = w.transposed();
        Tensor c_ref = c0;
        variant.reference(a.data(), false, wt.data(), true, c_ref.data(),
                          kRows, k, n);
        for (const std::size_t m : {std::size_t{1}, std::size_t{2},
                                    variant.mr - 1, variant.mr + 1, kRows}) {
          SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                       std::to_string(n));
          Tensor c_packed = c0.slice_rows(0, m);
          variant.packed(a.data(), packed.panels(), c_packed.data(), m, 0, m,
                         k, n);
          Tensor c_call = c0.slice_rows(0, m);
          variant.blocked(a.data(), false, w.data(), false, c_call.data(), m,
                          0, m, k, n);
          expect_bitwise(c_packed, c_ref.slice_rows(0, m));
          expect_bitwise(c_call, c_ref.slice_rows(0, m));
        }
      }
    }
  }
}

// The panel GEMV (a one-row range on packed B) equals the row-major GEMV,
// across k blocks, whole multi-panel passes and ragged last panels.
TEST(PackedGemm, OneRowPanelGemvEqualsGemvOnEveryVariant) {
  for (const detail::GemmVariant& variant : detail::gemm_variants()) {
    SCOPED_TRACE(variant.arch);
    Rng rng(43);
    for (const Shape& s : {Shape{1, 1, 1}, Shape{1, 32, 37},
                           Shape{1, 128, 128}, Shape{1, 128, 1024},
                           Shape{1, 257, 33}, Shape{1, 300, 200},
                           Shape{1, 768, 3072}}) {
      const Tensor a = rng.normal_tensor(1, s.k, 1.0F);
      const Tensor w = rng.normal_tensor(s.k, s.n, 1.0F);
      const PackedMatrix packed(w, variant.nr);
      const Tensor c0 = rng.normal_tensor(1, s.n, 1.0F);
      Tensor c_gemv = c0;
      variant.gemv(a.data(), w.data(), s.n, false, c_gemv.data(), s.k, s.n);
      Tensor c_panels = c0;
      variant.packed(a.data(), packed.panels(), c_panels.data(), 1, 0, 1, s.k,
                     s.n);
      expect_bitwise(c_panels, c_gemv);
    }
  }
}

// Row-range splits (one a single row, so the panel GEMV) reproduce the full
// packed GEMM, and matmul on a PackedMatrix equals matmul on the row-major
// weight at every intra-op budget, with the same MAC count.
TEST(PackedGemm, RowSplitsAndIntraOpBudgetsReproduceTheFullResult) {
  Rng rng(45);
  const std::size_t m = 67, k = 300, n = 51;
  const Tensor a = rng.normal_tensor(m, k, 1.0F);
  const Tensor w = rng.normal_tensor(k, n, 1.0F);
  for (const detail::GemmVariant& variant : detail::gemm_variants()) {
    SCOPED_TRACE(variant.arch);
    const PackedMatrix packed(w, variant.nr);
    Tensor full(m, n);
    variant.packed(a.data(), packed.panels(), full.data(), m, 0, m, k, n);
    Tensor split(m, n);
    const std::size_t cuts[] = {0, 5, 6, 40, m};
    for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
      variant.packed(a.data(), packed.panels(), split.data(), m, cuts[c],
                     cuts[c + 1], k, n);
    }
    expect_bitwise(split, full);
  }
  const PackedMatrix packed(w);
  const Tensor expected = matmul(a, w);
  for (const std::size_t threads : {1U, 2U, 4U}) {
    const IntraOpScope scope(threads);
    const flops::Scope counter;
    expect_bitwise(matmul(a, packed), expected);
    EXPECT_EQ(counter.macs(), static_cast<std::uint64_t>(m) * k * n);
  }
  EXPECT_THROW((void)matmul(rng.normal_tensor(2, k + 1, 1.0F), packed),
               std::invalid_argument);
}

// A packed weight drawn from Rng(s) holds normal_tensor's values from
// Rng(s), and leaves the generator where normal_tensor does. Packing at any
// variant's width, unpacking and slicing are exact.
TEST(PackedMatrix, FilledFromRngUnpacksToNormalTensor) {
  for (const Shape& s : {Shape{1, 1, 1}, Shape{0, 33, 17}, Shape{0, 257, 70},
                         Shape{0, 513, 3}}) {
    Rng packed_rng(s.k);
    Rng tensor_rng(s.k);
    const PackedMatrix packed = packed_rng.normal_packed(s.k, s.n, 0.5F);
    const Tensor expected = tensor_rng.normal_tensor(s.k, s.n, 0.5F);
    EXPECT_EQ(packed.rows(), s.k);
    EXPECT_EQ(packed.cols(), s.n);
    EXPECT_EQ(packed.size(), s.k * s.n);
    expect_bitwise(packed.unpack(), expected);
    EXPECT_EQ(packed_rng.next_u64(), tensor_rng.next_u64());
    for (const detail::GemmVariant& variant : detail::gemm_variants()) {
      SCOPED_TRACE(variant.arch);
      const PackedMatrix at_width(expected, variant.nr);
      EXPECT_EQ(at_width.panel_width(), variant.nr);
      expect_bitwise(at_width.unpack(), expected);
      const std::size_t r0 = s.k / 3;
      const std::size_t c0 = s.n / 2;
      expect_bitwise(at_width.slice_rows(r0, s.k).unpack(),
                     expected.slice_rows(r0, s.k));
      expect_bitwise(at_width.slice_cols(c0, s.n).unpack(),
                     expected.slice_cols(c0, s.n));
    }
  }
}

// The panels start on a 64-byte line in every matrix, also in copies and
// slices made after heap traffic has shifted where blocks land, and a copy
// or copy-assignment holds the same values.
TEST(PackedMatrix, PanelsStartOnACacheLineInCopiesAndSlices) {
  const auto on_line = [](const PackedMatrix& m) {
    return reinterpret_cast<std::uintptr_t>(m.panels()) % 64 == 0;
  };
  Rng rng(49);
  const Tensor w = rng.normal_tensor(70, 37, 1.0F);
  const PackedMatrix packed(w);
  std::vector<std::vector<float>> shifts;
  for (std::size_t bytes = 4; bytes <= 64; bytes += 4) {
    shifts.emplace_back(bytes / sizeof(float));
    const PackedMatrix copy(packed);
    PackedMatrix assigned;
    assigned = packed;
    const PackedMatrix slice = packed.slice_cols(3, 30);
    EXPECT_TRUE(on_line(copy) && on_line(assigned) && on_line(slice));
    expect_bitwise(copy.unpack(), w);
    expect_bitwise(assigned.unpack(), w);
  }
  EXPECT_TRUE(on_line(packed));
}

// --- Elementwise kernels (tanh-GELU, exp) ---------------------------------

using Elementwise = void (*)(const float* x, float* y, std::size_t n);

struct ElementwiseCase {
  const char* name;
  Elementwise kernel;
  Elementwise reference;
  float lo, hi;  // input range of the random sweep
};

std::vector<ElementwiseCase> elementwise_cases(
    const detail::GemmVariant& variant) {
  return {{"gelu", variant.gelu, variant.gelu_reference, -12.0F, 12.0F},
          {"exp", variant.exp, variant.exp_reference, -120.0F, 95.0F}};
}

// Every length 0..67 at every offset 0..15 from a 64-byte boundary, so each
// vector width sees full vectors, a masked tail and unaligned loads. Output
// slots before the offset and past the end keep their sentinel, and the
// in-place call equals the out-of-place one.
TEST(ElementwiseKernels, MatchTheirReferenceBitwiseAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 67;
  constexpr std::size_t kOffsets = 16;
  constexpr float kSentinel = 12345.0F;
  for (const detail::GemmVariant& variant : detail::gemm_variants()) {
    for (const ElementwiseCase& c : elementwise_cases(variant)) {
      SCOPED_TRACE(std::string(variant.arch) + " " + c.name);
      Rng rng(31);
      const Tensor input = rng.uniform_tensor(1, kMaxLen + kOffsets, c.lo,
                                              c.hi);
      alignas(64) float x[kMaxLen + kOffsets + 16];
      alignas(64) float y[kMaxLen + kOffsets + 16];
      alignas(64) float ref[kMaxLen + kOffsets + 16];
      for (std::size_t off = 0; off < kOffsets; ++off) {
        for (std::size_t n = 0; n <= kMaxLen; ++n) {
          std::copy_n(input.data(), kMaxLen + kOffsets, x);
          std::fill(std::begin(y), std::end(y), kSentinel);
          std::fill(std::begin(ref), std::end(ref), kSentinel);
          c.kernel(x + off, y + off, n);
          c.reference(x + off, ref + off, n);
          ASSERT_EQ(std::memcmp(y, ref, sizeof(y)), 0)
              << "n=" << n << " offset=" << off;
          c.kernel(x + off, x + off, n);
          ASSERT_EQ(std::memcmp(x + off, y + off, n * sizeof(float)), 0)
              << "in place, n=" << n << " offset=" << off;
        }
      }
    }
  }
}

// NaN in gives NaN out, signed zeros keep their sign, and +-inf behave as
// the std::tanh / std::exp forms did: GELU(+inf) = +inf, GELU(-inf) = NaN
// (-inf * 0), e^+inf = +inf, e^-inf = +0. Each special value sits in a full
// vector and in the masked tail.
TEST(ElementwiseKernels, SpecialValuesOnEveryVariant) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> specials = {nan, 0.0F, -0.0F, inf, -inf};
  for (const detail::GemmVariant& variant : detail::gemm_variants()) {
    for (const ElementwiseCase& c : elementwise_cases(variant)) {
      for (const Elementwise f : {c.kernel, c.reference}) {
        SCOPED_TRACE(std::string(variant.arch) + " " + c.name);
        for (const std::size_t at : {0U, 7U, 16U, 19U}) {
          std::vector<float> x(20, 0.5F);
          std::vector<float> y(20);
          for (const float v : specials) {
            x[at] = v;
            f(x.data(), y.data(), x.size());
            const float out = y[at];
            SCOPED_TRACE("input " + std::to_string(v) + " at " +
                         std::to_string(at));
            if (std::isnan(v)) {
              EXPECT_TRUE(std::isnan(out));
            } else if (v == 0.0F && std::string_view(c.name) == "gelu") {
              EXPECT_EQ(out, 0.0F);
              EXPECT_EQ(std::signbit(out), std::signbit(v));
            } else if (v == 0.0F) {
              EXPECT_EQ(out, 1.0F);
            } else if (v > 0.0F) {
              EXPECT_EQ(out, inf);
            } else if (std::string_view(c.name) == "gelu") {
              EXPECT_TRUE(std::isnan(out));
            } else {
              EXPECT_EQ(out, 0.0F);
              EXPECT_FALSE(std::signbit(out));
            }
          }
        }
      }
    }
  }
}

// Spacing of floats at |v|, the unit of the exp bound.
double float_ulp(double v) {
  const float f = static_cast<float>(std::fabs(v));
  return static_cast<double>(
             std::nextafter(f, std::numeric_limits<float>::infinity())) -
         static_cast<double>(f);
}

// Accuracy against double precision on a 1e-5 grid: GELU within 4e-6 of
// the exact tanh form over [-12, 12], e^x within 4 ulp over [-87, 0] (the
// range softmax arguments live in; below it e^x is subnormal).
TEST(ElementwiseKernels, AccurateAgainstDoublePrecisionOnEveryVariant) {
  std::vector<float> gx;
  for (long i = -1200000; i <= 1200000; ++i) {
    gx.push_back(static_cast<float>(static_cast<double>(i) * 1e-5));
  }
  std::vector<float> ex;
  for (long i = -8700000; i <= 0; ++i) {
    ex.push_back(static_cast<float>(static_cast<double>(i) * 1e-5));
  }
  for (const detail::GemmVariant& variant : detail::gemm_variants()) {
    SCOPED_TRACE(variant.arch);
    std::vector<float> y(gx.size());
    variant.gelu(gx.data(), y.data(), gx.size());
    double gelu_err = 0.0;
    for (std::size_t i = 0; i < gx.size(); ++i) {
      const double v = gx[i];
      const double exact =
          0.5 * v *
          (1.0 + std::tanh(0.7978845608028654 * (v + 0.044715 * v * v * v)));
      gelu_err = std::max(gelu_err, std::fabs(y[i] - exact));
    }
    EXPECT_LT(gelu_err, 4e-6);
    y.resize(ex.size());
    variant.exp(ex.data(), y.data(), ex.size());
    double exp_ulps = 0.0;
    for (std::size_t i = 0; i < ex.size(); ++i) {
      const double exact = std::exp(static_cast<double>(ex[i]));
      exp_ulps = std::max(exp_ulps, std::fabs(y[i] - exact) / float_ulp(exact));
    }
    EXPECT_LE(exp_ulps, 4.0);
  }
}

// --- Row max ---------------------------------------------------------------

float max_chain(const std::vector<float>& x) {
  float m = -std::numeric_limits<float>::infinity();
  for (const float v : x) m = std::max(m, v);
  return m;
}

void expect_same_bits(float a, float b) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(float)), 0) << a << " vs " << b;
}

// The vector max returns what the sequential std::max chain does, bit for
// bit: NaNs never win (an all-NaN row gives -inf, as does an empty one),
// -inf and the -1e30 causal mask compare as values, and of equal zeros the
// first one's sign. Each special value sits at vector and tail positions of
// rows that end in full vectors or in a masked tail.
TEST(RowMaxKernel, MatchesTheStdMaxChainWithSpecialValuesOnEveryVariant) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {nan, 0.0F, -0.0F, -inf, -1e30F, 1.5F};
  for (const detail::GemmVariant& variant : detail::gemm_variants()) {
    SCOPED_TRACE(variant.arch);
    expect_same_bits(variant.max(nullptr, 0), -inf);
    Rng rng(47);
    for (const std::size_t n : {1U, 5U, 16U, 17U, 31U, 64U, 67U, 130U}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const Tensor base = rng.uniform_tensor(1, n, -3.0F, -1.0F);
      std::vector<std::size_t> positions;
      for (const std::size_t at : {0U, 7U, 15U, 16U, 63U, 64U, 129U}) {
        if (at < n) positions.push_back(at);
      }
      positions.push_back(n - 1);
      const auto check = [&](const std::vector<float>& x) {
        expect_same_bits(variant.max(x.data(), x.size()), max_chain(x));
      };
      std::vector<float> x(base.flat().begin(), base.flat().end());
      for (const float v : specials) {
        for (const std::size_t at : positions) {
          std::vector<float> y = x;
          y[at] = v;
          check(y);
        }
      }
      // Both zero signs in either order: the first zero is the max. And a
      // NaN before or after the max, also later in the same lane chain,
      // never displaces it.
      for (const std::size_t first : positions) {
        for (const std::size_t second : positions) {
          if (first == second) continue;
          std::vector<float> y = x;
          y[first] = -0.0F;
          y[second] = 0.0F;
          check(y);
          std::swap(y[first], y[second]);
          check(y);
          y[first] = 5.0F;
          y[second] = nan;
          check(y);
        }
      }
      // A causally masked tail, then all NaN and all -inf.
      for (std::size_t masked = 1; masked <= n; masked += 3) {
        std::vector<float> y = x;
        std::fill(y.end() - static_cast<std::ptrdiff_t>(masked), y.end(),
                  -1e30F);
        check(y);
      }
      check(std::vector<float>(n, nan));
      check(std::vector<float>(n, -inf));
    }
  }
}

// gelu and softmax_rows are row-independent: each row of a [3 x 37] tensor
// with causal -inf entries equals the same row computed alone, although
// the rows start at different vector lanes. The entry points dispatch to
// the first variant.
TEST(ElementwiseKernels, RowsEqualTheSameRowsAloneAndEntriesDispatchFirst) {
  Rng rng(9);
  Tensor x = rng.normal_tensor(3, 37, 3.0F);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 34 + r; c < x.cols(); ++c) {
      x(r, c) = -std::numeric_limits<float>::infinity();
    }
  }
  const Tensor g = gelu(x);
  const Tensor s = softmax_rows(x, 0.125F);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const Tensor row = x.slice_rows(r, r + 1);
    expect_bitwise(gelu(row), g.slice_rows(r, r + 1));
    expect_bitwise(softmax_rows(row, 0.125F), s.slice_rows(r, r + 1));
  }

  const detail::GemmVariant& first = detail::gemm_variants().front();
  const Tensor in = rng.uniform_tensor(1, 53, -20.0F, 5.0F);
  Tensor entry(1, 53);
  Tensor direct(1, 53);
  detail::gelu(in.data(), entry.data(), in.size());
  first.gelu(in.data(), direct.data(), in.size());
  expect_bitwise(entry, direct);
  detail::exp(in.data(), entry.data(), in.size());
  first.exp(in.data(), direct.data(), in.size());
  expect_bitwise(entry, direct);
  EXPECT_EQ(detail::max(in.data(), in.size()), first.max(in.data(), in.size()));
}

TEST(GemmDeterminism, ModelForwardBitwiseIdenticalAcrossIntraOpBudgets) {
  for (const ModelSpec& spec : {mini_bert_spec(), mini_gpt2_spec()}) {
    const TransformerModel model = make_model(spec);
    const auto tokens = random_tokens(24, model.spec().vocab_size, 7);
    std::vector<Tensor> logits;
    for (const std::size_t threads : {1U, 2U, 4U}) {
      const IntraOpScope scope(threads);
      logits.push_back(model.infer(tokens));
    }
    expect_bitwise(logits[0], logits[1]);
    expect_bitwise(logits[0], logits[2]);
  }
}

// Stronger than the runtime_test tolerance checks: under the naive attention
// order the distributed computation performs exactly the same per-row FP
// chains as the single-device baseline, so K devices must reproduce it bit
// for bit (row-splitting a GEMM never changes any row's summation order).
TEST(GemmDeterminism, DistributedInferenceBitwiseMatchesSingleDevice) {
  const TransformerModel model = make_model(mini_bert_spec());
  const auto tokens = random_tokens(30, model.spec().vocab_size, 23);
  const Tensor expected = model.infer(tokens);
  for (const std::size_t k : {2U, 3U}) {
    VoltageRuntime runtime(model, PartitionScheme::even(k),
                           OrderPolicy::kAlwaysNaive);
    const Tensor logits = runtime.infer(tokens);
    expect_bitwise(logits, expected);
  }
}

}  // namespace
}  // namespace voltage
