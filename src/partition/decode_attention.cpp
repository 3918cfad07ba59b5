#include "partition/decode_attention.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "tensor/flops.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace voltage {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

}  // namespace

KvBlockPool::KvBlockPool(std::size_t block_floats, std::size_t max_blocks)
    : block_floats_(block_floats), max_blocks_(max_blocks) {
  if (block_floats_ == 0) {
    throw std::invalid_argument("KvBlockPool: zero block size");
  }
}

std::size_t KvBlockPool::allocate() {
  if (!free_.empty()) {
    const std::size_t block = free_.back();
    free_.pop_back();
    ++in_use_;
    return block;
  }
  if (max_blocks_ != 0 && blocks_.size() >= max_blocks_) {
    throw std::length_error("KvBlockPool: out of blocks");
  }
  blocks_.push_back(std::make_unique<float[]>(block_floats_));
  ++in_use_;
  return blocks_.size() - 1;
}

void KvBlockPool::release(std::size_t block) {
  if (block >= blocks_.size()) {
    throw std::out_of_range("KvBlockPool: bad block id");
  }
  free_.push_back(block);
  --in_use_;
}

DecodeLayerCache::DecodeLayerCache(DecodeLayerCache&& other) noexcept {
  *this = std::move(other);
}

DecodeLayerCache& DecodeLayerCache::operator=(
    DecodeLayerCache&& other) noexcept {
  if (this == &other) return *this;
  release();
  rows_ = other.rows_;
  heads_ = other.heads_;
  head_dim_ = other.head_dim_;
  hidden_ = other.hidden_;
  stride_ = other.stride_;
  rows_per_block_ = other.rows_per_block_;
  pool_ = other.pool_;
  blocks_ = std::move(other.blocks_);
  other.pool_ = nullptr;
  other.blocks_.clear();
  other.rows_ = 0;
  return *this;
}

void DecodeLayerCache::release() noexcept {
  if (pool_ != nullptr) {
    for (const std::size_t block : blocks_) pool_->release(block);
  }
  blocks_.clear();
  rows_ = 0;
  pool_ = nullptr;
}

void DecodeLayerCache::init(const LayerConfig& config, KvBlockPool& pool) {
  release();
  heads_ = config.heads;
  head_dim_ = config.head_dim;
  hidden_ = config.hidden;
  stride_ = 2 * heads_ * head_dim_;
  if (pool.block_floats() < stride_) {
    throw std::invalid_argument(
        "DecodeLayerCache: pool blocks narrower than one position row");
  }
  pool_ = &pool;
  rows_per_block_ = pool_->block_floats() / stride_;
}

float* DecodeLayerCache::append_row() {
  if (rows_ == blocks_.size() * rows_per_block_) {
    blocks_.push_back(pool_->allocate());
  }
  float* const row = pool_->data(blocks_[rows_ / rows_per_block_]) +
                     (rows_ % rows_per_block_) * stride_;
  ++rows_;
  return row;
}

void DecodeLayerCache::append(const Tensor& block, const AttentionWeights& w) {
  if (block.rows() == 0) return;
  if (block.cols() != hidden_) {
    throw std::invalid_argument("DecodeLayerCache: block width mismatch");
  }
  if (pool_ == nullptr) {
    throw std::logic_error("DecodeLayerCache: append before init");
  }
  // Project per head exactly as the monolithic path would, then scatter
  // each position's [K_0..K_{H-1} | V_0..V_{H-1}] row into its page.
  const std::size_t fh = head_dim_;
  std::vector<Tensor> k_new;
  std::vector<Tensor> v_new;
  k_new.reserve(heads_);
  v_new.reserve(heads_);
  for (std::size_t h = 0; h < heads_; ++h) {
    k_new.push_back(matmul(block, w.heads[h].wk));  // m x F_H
    v_new.push_back(matmul(block, w.heads[h].wv));
  }
  for (std::size_t j = 0; j < block.rows(); ++j) {
    float* const row = append_row();
    for (std::size_t h = 0; h < heads_; ++h) {
      std::copy_n(k_new[h].row(j).data(), fh, row + h * fh);
      std::copy_n(v_new[h].row(j).data(), fh, row + (heads_ + h) * fh);
    }
  }
}

void DecodeLayerCache::truncate(std::size_t n) {
  if (n == 0) return;
  if (n > rows_) {
    throw std::out_of_range("DecodeLayerCache: truncate past the beginning");
  }
  rows_ -= n;
  const std::size_t needed =
      (rows_ + rows_per_block_ - 1) / rows_per_block_;
  while (blocks_.size() > needed) {
    pool_->release(blocks_.back());
    blocks_.pop_back();
  }
}

namespace {

// The decode kernel over R command rows. The query projections are
// cache-independent, so the constructor runs one [R x F_H] GEMM per head
// for every row; attend() then reduces one row against one cache.
class PartialKernel {
 public:
  PartialKernel(const Tensor& x_rows, const AttentionWeights& w,
                const LayerConfig& config)
      : heads_(config.heads),
        fh_(config.head_dim),
        inv_sqrt_(1.0F / std::sqrt(static_cast<float>(config.head_dim))) {
    q_.reserve(heads_);
    for (std::size_t h = 0; h < heads_; ++h) {
      q_.push_back(matmul(x_rows, w.heads[h].wq));
    }
  }

  // Row j's per-head partials over every resident position of `cache`,
  // written into packed row j (left the merge identity when it holds none):
  // scores = (x W_Q) K^T / sqrt(F_H) over head h's K columns, then the
  // exp-weighted sum of its V columns.
  void attend(std::size_t j, const DecodeLayerCache& cache, Tensor& packed) {
    const std::size_t p = cache.rows();
    if (p == 0) return;
    weights_.resize(p);
    for (std::size_t h = 0; h < heads_; ++h) {
      float* const out = packed.row(j).data() + h * (fh_ + 2);
      const float* const query = q_[h].row(j).data();
      const std::size_t key_col = h * fh_;
      const std::size_t value_col = (heads_ + h) * fh_;
      // Scores: one transposed GEMV per page, one output per resident row.
      std::fill(weights_.begin(), weights_.end(), 0.0F);
      cache.for_each_page(
          [&](const float* rows, std::size_t first, std::size_t count) {
            detail::gemv(query, rows + key_col, cache.stride(), true,
                         weights_.data() + first, fh_, count);
          });
      for (float& s : weights_) s *= inv_sqrt_;
      const float m = detail::max(weights_.data(), p);
      for (float& s : weights_) s -= m;
      detail::exp(weights_.data(), weights_.data(), p);
      float denom = 0.0F;
      for (const float s : weights_) denom += s;
      // Weighted sum: one plain GEMV per page of its exp weights; pages run
      // oldest first, so every column sums in increasing position order.
      cache.for_each_page(
          [&](const float* rows, std::size_t first, std::size_t count) {
            detail::gemv(weights_.data() + first, rows + value_col,
                         cache.stride(), false, out + 2, count, fh_);
          });
      out[0] = m;
      out[1] = denom;
    }
    flops::add_matmul_macs(static_cast<std::uint64_t>(2) * heads_ * fh_ * p);
  }

 private:
  std::size_t heads_;
  std::size_t fh_;
  float inv_sqrt_;
  std::vector<Tensor> q_;       // R x F_H per head
  std::vector<float> weights_;  // one row's scores, then its exp weights
};

}  // namespace

Tensor decode_partial_attention(const Tensor& x_row,
                                const DecodeLayerCache& cache,
                                const AttentionWeights& w,
                                const LayerConfig& config) {
  if (x_row.rows() != 1 || x_row.cols() != config.hidden) {
    throw std::invalid_argument("decode_partial_attention: need one F-row");
  }
  Tensor packed = softmax_partial_identity(1, config.heads, config.head_dim);
  PartialKernel(x_row, w, config).attend(0, cache, packed);
  return packed;
}

Tensor decode_windows_partial_attention(const Tensor& x_rows,
                                        std::span<const DecodeWindowRef> windows,
                                        const AttentionWeights& w,
                                        const LayerConfig& config) {
  const std::size_t rows = x_rows.rows();
  if (rows == 0 || x_rows.cols() != config.hidden) {
    throw std::invalid_argument(
        "decode_windows_partial_attention: need [R x F] rows");
  }
  for (const DecodeWindowRef& win : windows) {
    if (win.begin >= win.end || win.end > rows || win.owned == nullptr ||
        win.cache == nullptr || win.owned->size() != win.end - win.begin) {
      throw std::invalid_argument(
          "decode_windows_partial_attention: malformed window");
    }
  }
  Tensor packed = softmax_partial_identity(rows, config.heads, config.head_dim);
  PartialKernel kernel(x_rows, w, config);
  for (const DecodeWindowRef& win : windows) {
    for (std::size_t j = win.begin; j < win.end; ++j) {
      // Append-before-attend, in window order: this device's earlier window
      // rows are already resident when row j scores, later ones are not —
      // the causal structure of the window without an explicit mask.
      if ((*win.owned)[j - win.begin]) {
        win.cache->append(x_rows.slice_rows(j, j + 1), w);
      }
      kernel.attend(j, *win.cache, packed);
    }
  }
  return packed;
}

Tensor softmax_partial_identity(std::size_t rows, std::size_t heads,
                                std::size_t head_dim) {
  Tensor packed(rows, softmax_partial_cols(heads, head_dim));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t h = 0; h < heads; ++h) {
      packed(r, h * (head_dim + 2)) = kNegInf;
    }
  }
  return packed;
}

void softmax_merge_inplace(Tensor& acc, const Tensor& incoming,
                           std::size_t heads, std::size_t head_dim) {
  if (!acc.same_shape(incoming) ||
      acc.cols() != softmax_partial_cols(heads, head_dim)) {
    throw std::invalid_argument("softmax_merge: partial shape mismatch");
  }
  const std::size_t stride = head_dim + 2;
  for (std::size_t r = 0; r < acc.rows(); ++r) {
    float* a = acc.row(r).data();
    const float* b = incoming.row(r).data();
    for (std::size_t h = 0; h < heads; ++h, a += stride, b += stride) {
      // Empty partials (denominator 0) are the merge identity; skipping them
      // also keeps exp(-inf - -inf) = NaN out of the all-empty corner.
      if (b[1] == 0.0F) continue;
      if (a[1] == 0.0F) {
        for (std::size_t c = 0; c < stride; ++c) a[c] = b[c];
        continue;
      }
      const float m = std::max(a[0], b[0]);
      const float ea = std::exp(a[0] - m);
      const float eb = std::exp(b[0] - m);
      a[0] = m;
      a[1] = a[1] * ea + b[1] * eb;
      for (std::size_t c = 2; c < stride; ++c) {
        a[c] = a[c] * ea + b[c] * eb;
      }
    }
  }
}

Tensor softmax_merge_concat(const Tensor& merged, std::size_t heads,
                            std::size_t fh) {
  if (merged.cols() != softmax_partial_cols(heads, fh)) {
    throw std::invalid_argument("softmax_merge_finalize: width mismatch");
  }
  Tensor concat(merged.rows(), heads * fh);
  for (std::size_t r = 0; r < merged.rows(); ++r) {
    const float* in = merged.row(r).data();
    float* out = concat.row(r).data();
    for (std::size_t h = 0; h < heads; ++h) {
      const float* triple = in + h * (fh + 2);
      if (triple[1] == 0.0F) {
        throw std::invalid_argument(
            "softmax_merge_finalize: empty merged partial (no device "
            "attended any position)");
      }
      const float inv_denom = 1.0F / triple[1];
      for (std::size_t c = 0; c < fh; ++c) {
        out[h * fh + c] = triple[2 + c] * inv_denom;
      }
    }
  }
  return concat;
}

Tensor softmax_merge_finalize(const Tensor& merged, const AttentionWeights& w,
                              const LayerConfig& config) {
  Tensor out =
      matmul(softmax_merge_concat(merged, config.heads, config.head_dim),
             w.wo);
  add_bias_inplace(out, w.bo);
  return out;
}

}  // namespace voltage
