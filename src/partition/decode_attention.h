// Partition-resident KV state and the O(P) partial-attention decode kernel.
//
// In the distributed decode regime (DistributedDecoder) every device
// permanently holds the attention state of *its own* positions — the caches
// are never gathered. Each position is cached as its per-head keys and
// values, K = x W_K and V = x W_V (2 H F_H floats per position), whatever
// order Theorem 2 picked for the prefill. Each decode step scores the new
// token's query against the resident rows only and reduces them to
// per-head online-softmax partials (max, denominator, weighted value) that
// an exact log-sum-exp merge (collective/softmax_merge.h) combines across
// devices.
//
// Storage is paged: every cache draws fixed-size blocks from a KvBlockPool
// (one pool per device, shared by all of that device's (layer, slot)
// caches), so concurrent sequences share one physical arena and a completed
// or evicted request returns its blocks to the free list instead of
// stranding capacity — the vLLM PagedAttention layout, applied to the
// paper's position partition.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "tensor/tensor.h"
#include "transformer/config.h"
#include "transformer/weights.h"

namespace voltage {

// Packed wire layout of online-softmax partials: one row per query, and for
// head h the columns [h*(F_H+2), (h+1)*(F_H+2)) hold
//   [max, denominator, weighted_value_0 .. weighted_value_{F_H-1}].
// An empty partial (device owns no positions) is {-inf, 0, 0...} and is the
// identity of the merge.
[[nodiscard]] constexpr std::size_t softmax_partial_cols(
    std::size_t heads, std::size_t head_dim) noexcept {
  return heads * (head_dim + 2);
}

// Positions per pool block.
inline constexpr std::size_t kKvBlockPositions = 16;

// Floats per pool block for caches of this layer shape: kKvBlockPositions
// rows of [K_0 .. K_{H-1} | V_0 .. V_{H-1}].
[[nodiscard]] constexpr std::size_t kv_block_floats(
    const LayerConfig& config) noexcept {
  return kKvBlockPositions * 2 * config.heads * config.head_dim;
}

// Fixed-size block arena for partition-resident KV state. allocate() hands
// out block ids backed by stable storage (blocks never move, so row pointers
// taken inside a block stay valid); release() returns a block to the free
// list for reuse by any later sequence. `max_blocks` caps the arena
// (0 = unbounded): exhaustion throws std::length_error, which on a decoder
// worker poisons the mesh like any other device failure — admission control
// (InferenceServer::Options::max_batch) is what keeps a correctly sized
// deployment away from that edge. Single-threaded by design: each decode
// worker owns one pool.
class KvBlockPool {
 public:
  explicit KvBlockPool(std::size_t block_floats, std::size_t max_blocks = 0);

  [[nodiscard]] std::size_t allocate();
  void release(std::size_t block);

  [[nodiscard]] float* data(std::size_t block) noexcept {
    return blocks_[block].get();
  }
  [[nodiscard]] const float* data(std::size_t block) const noexcept {
    return blocks_[block].get();
  }

  [[nodiscard]] std::size_t block_floats() const noexcept {
    return block_floats_;
  }
  [[nodiscard]] std::size_t max_blocks() const noexcept { return max_blocks_; }
  // Blocks currently held by caches / ever materialized (the high-water
  // footprint: freed blocks stay in the arena for reuse).
  [[nodiscard]] std::size_t blocks_in_use() const noexcept { return in_use_; }
  [[nodiscard]] std::size_t blocks_allocated() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return blocks_.size() * block_floats_ * sizeof(float);
  }

 private:
  std::size_t block_floats_;
  std::size_t max_blocks_;
  std::vector<std::unique_ptr<float[]>> blocks_;  // stable addresses
  std::vector<std::size_t> free_;                 // ids ready for reuse
  std::size_t in_use_ = 0;
};

// Per-(device, layer, sequence) resident cache. Rows grow monotonically as
// the device is assigned new positions; storage grows in whole pool blocks,
// so appending a token is O(F) — never an O(T) reallocation-copy per step.
class DecodeLayerCache {
 public:
  DecodeLayerCache() = default;
  ~DecodeLayerCache() { release(); }
  DecodeLayerCache(const DecodeLayerCache&) = delete;
  DecodeLayerCache& operator=(const DecodeLayerCache&) = delete;
  DecodeLayerCache(DecodeLayerCache&& other) noexcept;
  DecodeLayerCache& operator=(DecodeLayerCache&& other) noexcept;

  // Clears the cache for a new sequence of this layer shape, drawing
  // storage from `pool`, which must outlive the cache's blocks.
  void init(const LayerConfig& config, KvBlockPool& pool);

  // Returns every held block to the pool; the cache is empty afterwards
  // (init() again before reuse).
  void release() noexcept;

  // Appends `block` ([m x F] layer-input rows, oldest first) as their K/V
  // projections.
  void append(const Tensor& block, const AttentionWeights& w);

  // Rolls back the newest `n` positions — the speculative-decode rejection
  // path: a verify window appends draft rows optimistically and truncates
  // the rejected tail. Blocks emptied by the rollback return to the pool;
  // surviving rows are untouched (a later append overwrites the stale floats
  // in the partially-filled tail block). Throws std::out_of_range when n
  // exceeds the resident row count.
  void truncate(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  // Logical resident bytes (rows x stride() floats); the physical
  // footprint is page-granular — blocks() * the pool's block size.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return rows_ * stride_ * sizeof(float);
  }
  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_.size(); }
  // Floats from one position row to the next inside a page: each row packs
  // [K_0 .. K_{H-1} | V_0 .. V_{H-1}] (2 H F_H).
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }

  // Visits the resident rows page by page, oldest first: fn(rows, first,
  // count) once per pool block, where the block holds positions
  // [first, first + count) and `rows` points at position `first`'s row.
  // Kernels read each page in place; within a page, rows are stride()
  // floats apart.
  template <class Fn>
  void for_each_page(Fn&& fn) const {
    for (std::size_t b = 0, first = 0; first < rows_;
         ++b, first += rows_per_block_) {
      const float* const rows = pool_->data(blocks_[b]);
      fn(rows, first, std::min(rows_per_block_, rows_ - first));
    }
  }

 private:
  [[nodiscard]] float* append_row();

  std::size_t rows_ = 0;
  std::size_t heads_ = 0;
  std::size_t head_dim_ = 0;
  std::size_t hidden_ = 0;
  std::size_t stride_ = 0;          // floats per position row
  std::size_t rows_per_block_ = 0;  // positions per pool block
  KvBlockPool* pool_ = nullptr;
  std::vector<std::size_t> blocks_;  // pool block ids, append order
};

// Partial attention of the new token's query row `x_row` ([1 x F], the
// layer input) against the resident cache: packed
// [1 x softmax_partial_cols(H, F_H)] per-head (max, denom, weighted-value)
// triples over the cached positions only. All cached positions are in the
// new token's causal past (its own row, if resident here, was appended
// first), so no mask is applied.
[[nodiscard]] Tensor decode_partial_attention(const Tensor& x_row,
                                              const DecodeLayerCache& cache,
                                              const AttentionWeights& w,
                                              const LayerConfig& config);

// One verify window of a multi-window batch: command rows [begin, end) of
// the step belong to this window's sequence; owned[j] marks the rows this
// device appends to `cache` (in window order, before the row attends).
// Rows are processed strictly in window order, so the append sequencing IS
// the intra-window causal mask: row j scores against the resident past plus
// exactly the device's window positions < j (and itself when owned), never
// a later draft. Unioned across devices via the merge, row j therefore
// attends to positions 0..base+j — bitwise the same partial the sequential
// single-token path would have produced after committing rows 0..j-1. The
// rejected tail is undone with truncate().
struct DecodeWindowRef {
  std::size_t begin = 0;
  std::size_t end = 0;
  const std::vector<bool>* owned = nullptr;
  DecodeLayerCache* cache = nullptr;
};

// Partial attention for every window of a step at once ([R x F] command
// rows -> [R x softmax_partial_cols]). The query-side projections are
// cache-independent, so one [R x .] GEMM per head covers all windows —
// replacing R single-row GEMVs, the dominant per-row cost of batched
// decode — while each row then attends its own cache in window order. Row
// slices of a GEMM are bitwise equal to the per-row calls, so each packed
// row is identical to what one call per row would have produced. Per row
// and head, the scores are one transposed detail::gemv per KV page and the
// weighted value one plain detail::gemv per page of exp weights, so every
// element sums its positions in increasing order, whatever the page size.
[[nodiscard]] Tensor decode_windows_partial_attention(
    const Tensor& x_rows, std::span<const DecodeWindowRef> windows,
    const AttentionWeights& w, const LayerConfig& config);

// Exact log-sum-exp merge of `incoming` into `acc` (both packed partials of
// identical shape, any row count — row r of every operand belongs to the
// same query/request): per head, m = max(m_a, m_b), d = d_a e^{m_a - m} +
// d_b e^{m_b - m}, o likewise. Mathematically identical to a monolithic
// softmax over the union of the two position sets; empty partials are
// absorbed without effect.
void softmax_merge_inplace(Tensor& acc, const Tensor& incoming,
                           std::size_t heads, std::size_t head_dim);

// The merge identity: [rows x softmax_partial_cols] of {-inf, 0, 0...}.
[[nodiscard]] Tensor softmax_partial_identity(std::size_t rows,
                                              std::size_t heads,
                                              std::size_t head_dim);

// Fully merged partials -> per-head attention rows [R x H*F_H]: each
// head's weighted value divided by its denominator, heads concatenated.
// Throws if any head's denominator is zero (no device attended anything).
// The projection half of softmax_merge_finalize, split out so alternative
// weight formats (the int8 stack) can apply their own W_O.
[[nodiscard]] Tensor softmax_merge_concat(const Tensor& merged,
                                          std::size_t heads,
                                          std::size_t head_dim);

// Fully merged partials -> attention output rows [R x F]:
// per head o / d, heads concatenated, projected through W_O and b_O.
[[nodiscard]] Tensor softmax_merge_finalize(const Tensor& merged,
                                            const AttentionWeights& w,
                                            const LayerConfig& config);

}  // namespace voltage
