// Distributed KV-cache decoding: O(T) token steps over the device mesh.
//
// VoltageRuntime accelerates the *prefill*; regenerating every token through
// it costs O(T^2) compute and a full (K-1)NF/K gather per layer per token.
// This decoder keeps the paper's position partition but makes the attention
// state partition-resident: one distributed prefill fills per-device caches
// (each device permanently holds its own positions' per-head K/V, whichever
// order Theorem 2 picked for the prefill) and each decode step ships only
//   - one K-wide broadcast of the new token rows ([B x F], one embedded row
//     per in-flight sequence), and
//   - per layer, one softmax-merge all-reduce of per-head
//     (max, denominator, weighted-value) triples — 2(K-1) messages of
//     B*H*(F_H+2) floats (collective/softmax_merge.h).
// Every device then finishes the layer (residual, LayerNorms, FFN) on the
// B rows redundantly, so the layer output never needs to be gathered:
// per-step wire volume is O(K*B*F + L*K*B*H*F_H), independent of the
// context length T — and the *message count* is independent of B, which is
// what makes iteration-level batching pay on a latency-bound mesh.
//
// Multi-sequence serving (continuous batching): the decoder hosts
// independent sequences in numbered slots. prime_slot() runs a distributed
// prefill into a fresh slot, step_batch() advances any subset of the live
// slots by one token in a single command/broadcast/merge round, and
// release_slot() returns the slot's KV blocks to each device's shared
// KvBlockPool. Per-slot state is fully isolated (own caches, own round-robin
// position ownership), every collective folds in fixed rank order, and the
// post-attention tail is row-independent, so a batched step is bitwise
// identical to stepping each sequence alone. The single-sequence
// prime()/step()/extend() API is slot 0 throughout.
//
// Speculative decoding: step_speculative() widens each lane from one token
// to a verify window (one committed token + k drafts from a Drafter). The
// window rides the same wire round — one command broadcast carrying all
// rows, one k-row softmax merge per layer, one final send — so k draft
// positions are verified for the message cost of a single token; greedy
// longest-prefix acceptance then commits the matched tokens and every
// device truncates the rejected rows from its caches. Output is guaranteed
// token-identical to sequential greedy decode (DESIGN.md "Speculative
// decoding").
//
// Device k = device k of the decoder's DeviceMesh (runtime/mesh.h), which
// it may share with a VoltageRuntime; each call broadcasts one command and
// posts one job per device, which receives that command from the wire and
// serves it against the device's resident caches — state only that
// device's jobs touch, so it outlives every call. The calling thread is the
// terminal device K, running embedding and the LM head. New decode
// positions are assigned round-robin per slot so cache growth stays
// balanced. Failure containment is the mesh's: the first failing party
// poisons the transport and the terminal rethrows the root cause; the
// decoder (and every slot on it) is dead afterwards — build a new one on a
// new mesh.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/quant_codec.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/decode_attention.h"
#include "partition/order.h"
#include "partition/scheme.h"
#include "quant/quantized_stack.h"
#include "runtime/mesh.h"
#include "transformer/model.h"

namespace voltage {

// Index of one in-flight sequence on a DistributedDecoder.
using SlotId = std::size_t;

// One lane of a batched decode step: append `token` to `slot` and return its
// next-token logits row.
struct SlotToken {
  SlotId slot = 0;
  TokenId token = 0;
};

// One lane of a speculative verify round (step_speculative): commit `token`
// to `slot` and verify the `drafts` — a guessed greedy continuation from a
// Drafter (runtime/drafter.h) — in the same collective round-trip. Empty
// drafts make the lane an ordinary single-token step.
struct SlotWindow {
  SlotId slot = 0;
  TokenId token = 0;
  std::span<const TokenId> drafts;
};

// What one lane's verify round committed.
struct LaneCommit {
  std::size_t accepted = 0;     // drafts the target model agreed with
  std::size_t drafted = 0;      // drafts actually verified (window may trim)
  std::vector<TokenId> tokens;  // accepted + 1 greedy tokens, in order
  Tensor logits;                // [1 x vocab] — produced tokens.back()
};

// One decoder command as a worker reads it off the wire (the column layout
// is in distributed_decoder.cpp). Prime and release commands have one row
// naming the slot; a step command has one row per window position.
struct DecodeCommand {
  enum class Op : std::uint8_t { kPrime = 1, kStep = 2, kRelease = 5 };
  struct Row {
    SlotId slot = 0;
    std::size_t position = 0;  // step: the row's position; prime: length
    TokenId token = 0;
    bool committed = true;  // step: false for a draft row
  };
  Op op = Op::kPrime;
  bool int8 = false;
  double timeout_seconds = 0.0;
  std::size_t prompt_len = 0;  // prime
  std::vector<Row> rows;
};

// Validates and decodes the control columns of a command for a worker whose
// slot s holds a prompt of prompt_lens[s] positions (0 = free slot). Every
// integer column must be finite and integral and the deadline in
// [0, 1e9] seconds; the opcode must be known, a prime slot at most
// prompt_lens.size(), a prompt length in [1, max_positions], a step slot
// live and its position in [prompt length, max_positions). Throws
// std::runtime_error otherwise.
[[nodiscard]] DecodeCommand parse_decode_command(
    const Tensor& cmd, std::span<const std::size_t> prompt_lens,
    std::size_t max_positions);

class DistributedDecoder {
 public:
  // Requires a causal LM; `scheme.devices()` workers plus the terminal.
  DistributedDecoder(const TransformerModel& model, PartitionScheme scheme,
                     OrderPolicy policy = OrderPolicy::kAdaptive,
                     TransportKind transport = TransportKind::kInMemory);

  // Bring-your-own transport (e.g. a ChaosTransport for fault-injection
  // tests). Must have devices() == scheme devices + 1 (the terminal).
  DistributedDecoder(const TransformerModel& model, PartitionScheme scheme,
                     OrderPolicy policy, std::unique_ptr<Transport> transport);

  // Runs on `mesh`, which may be shared (e.g. with a VoltageRuntime) and
  // must have scheme.devices() devices.
  DistributedDecoder(const TransformerModel& model, PartitionScheme scheme,
                     OrderPolicy policy, std::shared_ptr<DeviceMesh> mesh);

  // Waits for the jobs still finishing a call: they touch this decoder's
  // per-device state.
  ~DistributedDecoder() { mesh_->drain(); }

  DistributedDecoder(const DistributedDecoder&) = delete;
  DistributedDecoder& operator=(const DistributedDecoder&) = delete;

  // --- Single-sequence API (slot 0) ----------------------------------------

  // Distributed prefill: runs the prompt through the partitioned stack once,
  // leaving every device's caches resident, and returns next-token logits
  // [1 x vocab]. Calling prime() again starts over: every live slot is
  // released and the prompt becomes slot 0.
  [[nodiscard]] Tensor prime(std::span<const TokenId> prompt);

  // Appends one token to slot 0 and returns next-token logits; per-step wire
  // bytes are independent of the context length.
  [[nodiscard]] Tensor step(TokenId token);

  // Appends several committed tokens (e.g. an extended prompt) without
  // re-running the prefill; returns the logits after the last one. The
  // single-device counterpart is IncrementalDecoder::extend.
  [[nodiscard]] Tensor extend(std::span<const TokenId> tokens);

  [[nodiscard]] std::size_t position() const noexcept {
    return slots_.empty() ? 0 : slots_[0].position;
  }

  // --- Multi-sequence API (continuous batching) ----------------------------

  struct PrimedSlot {
    SlotId slot = 0;
    Tensor logits;  // [1 x vocab] next-token logits after the prompt
  };

  // Distributed prefill of a new sequence into the lowest free slot (slot
  // ids are recycled after release_slot). Existing slots are untouched: the
  // new sequence's caches draw fresh blocks from each device's pool.
  [[nodiscard]] PrimedSlot prime_slot(std::span<const TokenId> prompt);

  // One iteration-level batched decode step: appends batch[r].token to
  // batch[r].slot for every lane and returns [B x vocab] logits, row r for
  // lane r. All lanes advance in one command broadcast and one softmax-merge
  // round per layer; each lane's result is bitwise identical to stepping its
  // slot alone. Lanes must name distinct, primed slots.
  [[nodiscard]] Tensor step_batch(std::span<const SlotToken> batch);

  // One speculative verify round: for every lane, commits lanes[w].token,
  // verifies its drafts against the target model's own greedy choices, and
  // commits the longest matching prefix plus the model's one bonus token —
  // all lanes, all draft positions, in a single command broadcast and one
  // softmax-merge round per layer, the *same message count as a single
  // token*. Rejected draft positions are rolled out of every device's KV
  // cache before the call returns, so the decoder state afterwards is
  // exactly "the committed tokens were stepped one by one": the returned
  // token stream is token-identical (and the logits bitwise identical) to
  // sequential greedy decode, whatever the drafter proposed. Speculative
  // and draftless lanes mix freely in one round. Drafts are trimmed to the
  // slot's remaining context window; lanes must name distinct, primed slots
  // with at least one position of window left.
  [[nodiscard]] std::vector<LaneCommit> step_speculative(
      std::span<const SlotWindow> lanes);

  // Frees the slot: every device returns its KV blocks to the pool and the
  // slot id becomes reusable. The mesh stays live for the other slots.
  void release_slot(SlotId slot);

  [[nodiscard]] std::size_t slot_position(SlotId slot) const;
  [[nodiscard]] bool slot_active(SlotId slot) const noexcept {
    return slot < slots_.size() && slots_[slot].active;
  }
  [[nodiscard]] std::size_t active_slots() const noexcept {
    std::size_t n = 0;
    for (const SlotMeta& s : slots_) n += s.active ? 1 : 0;
    return n;
  }

  // --------------------------------------------------------------------------

  // Byte-accurate traffic since construction (worker ids 0..K-1, terminal
  // id K).
  [[nodiscard]] const Transport& fabric() const noexcept {
    return mesh_->transport();
  }
  [[nodiscard]] DeviceId terminal_id() const noexcept {
    return scheme_.devices();
  }
  [[nodiscard]] const PartitionScheme& scheme() const noexcept {
    return scheme_;
  }

  // Attaches a span tracer to the mesh (nullptr detaches). The terminal
  // emits "decode.prefill" / "decode.step" spans carrying the token index,
  // the batch size and the step's total wire bytes; workers emit per-layer
  // compute and softmax-merge comm spans on their own tracks. Each call's
  // jobs run under the tracer attached when the call was made.
  //
  // prime()/step() return on the terminal's critical path, while workers
  // off that path may still be finishing the call's jobs (their last
  // collective receives, the acceptance pass). set_tracer waits for those
  // jobs, so the previous tracer may be destroyed once it returns; an
  // attached tracer must stay alive until it is detached or the decoder is
  // destroyed. Every arrow of a request is only guaranteed matched on the
  // trace after that point — export then if you intend to --validate.
  void set_tracer(obs::Tracer* tracer) { mesh_->set_tracer(tracer); }

  // Attaches transport.* counters plus the "decode.tokens" counter.
  void set_metrics(obs::MetricsRegistry* metrics);

  // Per-request receive budget in seconds (default 0: wait forever),
  // threaded through every blocking receive of a prime/step.
  void set_recv_timeout(double seconds) noexcept {
    recv_timeout_seconds_ = seconds;
  }

  // Caps each worker's KvBlockPool at `blocks` blocks (0 = unbounded;
  // default). A block holds kKvBlockPositions K/V positions of one (slot,
  // layer) cache, so a cap of B blocks holds 16 * B positions at most.
  // Effective from the pool's creation at the worker's first prefill, so
  // set it before the first prime. A device that runs out of blocks fails
  // its command with std::length_error and poisons the mesh like any other
  // device failure — size the cap (or the admission policy above) so
  // steady-state serving never hits it.
  void set_kv_block_limit(std::size_t blocks) noexcept {
    kv_block_limit_ = blocks;
  }

  // Precision::kInt8 switches the hot paths to the quantized plane: prefill
  // layer compute runs the int8 stack (quant/quantized_stack.h) and its
  // per-layer all-gathers plus each step's token-row broadcast travel as
  // int8 + per-row scales (net/quant_codec.h), ~4x fewer wire bytes.
  // Attention state stays fp32 (caches, online-softmax merge triples, the
  // final row), so the exact log-sum-exp merge is untouched. Quantizes the
  // model once on first use. Same call contract as set_recv_timeout: call
  // between requests from the calling thread; takes effect from the next
  // prime()/step() (each command carries the precision, so mixing is safe —
  // the caches are fp32 under both planes). Per-row activation scales keep
  // the quantized tail row-independent, so batched int8 steps stay bitwise
  // identical to sequential int8 steps.
  void set_precision(Precision precision);
  [[nodiscard]] Precision precision() const noexcept { return precision_; }

 private:
  // Terminal-side view of a slot; the workers mirror it with the caches.
  struct SlotMeta {
    bool active = false;
    std::size_t position = 0;    // committed positions
    std::size_t prompt_len = 0;  // fixes the round-robin owner phase
  };

  // One device's resident state, touched only by that device's jobs.
  struct DeviceState {
    // One KV arena shared by every (slot, layer) cache: a released
    // sequence's blocks are immediately reusable by the next one. Created
    // at the first prefill so set_kv_block_limit can run after
    // construction.
    std::unique_ptr<KvBlockPool> pool;
    std::vector<std::size_t> prompt_lens;  // per slot; 0 = free
    std::vector<std::vector<DecodeLayerCache>> caches;  // [slot][layer]
  };

  // One verify/step round as the terminal sees it: window w commits the
  // first `committed` of its tokens unconditionally and verifies the rest
  // as drafts. step_batch, extend and step_speculative are all this round
  // with different window shapes.
  struct WindowSpec {
    SlotId slot = 0;
    std::vector<TokenId> tokens;  // committed prefix, then drafts
    std::size_t committed = 1;
  };
  struct WindowRound {
    Tensor logits;                       // [R x vocab], command-row aligned
    std::vector<std::size_t> row_begin;  // per window: its first row
    std::vector<std::size_t> accepted;   // per window: drafts accepted
  };
  [[nodiscard]] WindowRound run_window_round(
      std::span<const WindowSpec> windows);

  // Posts the job that serves the command just broadcast, once its first
  // broadcast is on the wire.
  void post_command();
  // Worker side: one command, served by device i.
  void serve_command(std::size_t i, const QuantizedStack* qstack,
                     std::size_t kv_block_limit);
  void prime_device(std::size_t i, const DecodeCommand& cmd,
                    const RecvOptions& options, const QuantizedStack* int8,
                    std::size_t kv_block_limit);
  void step_device(std::size_t i, const DecodeCommand& cmd, const Tensor& raw,
                   const RecvOptions& options, const QuantizedStack* int8);

  // Throws once a call has failed the mesh: the decoder is dead.
  void ensure_alive() const;

  const TransformerModel& model_;
  PartitionScheme scheme_;
  OrderPolicy policy_;

  obs::Counter* decode_tokens_ = nullptr;
  std::size_t kv_block_limit_ = 0;     // 0 = unbounded
  double recv_timeout_seconds_ = 0.0;  // <= 0: no deadline
  Precision precision_ = Precision::kFp32;
  // Built lazily by set_precision(kInt8); each call's jobs get the pointer
  // when they are posted.
  std::unique_ptr<QuantizedStack> qstack_;

  std::vector<SlotMeta> slots_;  // terminal's view, indexed by SlotId

  std::vector<DeviceState> devices_;  // [device]
  std::shared_ptr<DeviceMesh> mesh_;
};

}  // namespace voltage
