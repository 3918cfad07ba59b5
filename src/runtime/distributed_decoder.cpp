#include "runtime/distributed_decoder.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "collective/collectives.h"
#include "collective/softmax_merge.h"
#include "runtime/voltage_runtime.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "transformer/ffn.h"

namespace voltage {

namespace {

// Command protocol: the terminal broadcasts one [R x kCmdCols] (or, for an
// fp32 step, [R x kCmdCols+F] with each row's embedded token row appended)
// tensor per call — R is 1 for everything except a step round, where each
// row is one window position of one lane: consecutive rows naming the same
// slot form that slot's verify window (committed prefix first, then
// drafts), so a batched step, an extend and a speculative verify are all
// the same wire shape. Floats carry the fields exactly — positions,
// opcodes, slot and token ids are small integers, far below 2^24. Column 2
// flags the int8 plane for this command; an int8 step keeps the command at
// kCmdCols and ships the token rows as one separate quantized [R x F]
// broadcast on kTagToken (per-row scales don't mix with opcodes).
constexpr std::size_t kCmdCols = 7;  // {opcode, arg, int8_flag, timeout_s,
                                     //  slot, token, committed}
// Opcodes: prime (arg = prompt length; col 4 = slot), step (per row: arg =
// position, col 4 = slot, col 5 = token id, col 6 = 1 if the row is
// pre-committed, 0 for a draft) and release (col 4 = slot: free its KV
// blocks).
constexpr auto kOpPrime = static_cast<float>(DecodeCommand::Op::kPrime);
constexpr auto kOpStep = static_cast<float>(DecodeCommand::Op::kStep);
constexpr auto kOpRelease = static_cast<float>(DecodeCommand::Op::kRelease);

// Tag layout. Commands and the int8 step token rows live on fixed tags; a
// prime runs the Algorithm-2 prefill on its tags (voltage_runtime.h) and a
// step's final rows reuse its final tag; each layer gets a pair of merge
// tags (softmax_merge uses tag and tag+1). Reusing tags across steps is
// safe: transport matching is FIFO per (source, tag).
constexpr MessageTag kTagCmd = 1;
constexpr MessageTag kTagToken = 5;
constexpr MessageTag kTagMergeBase = 4096;

// Deadline column, in seconds (0 = none): capped well below where a
// steady_clock deadline would overflow.
constexpr double kMaxDeadlineSeconds = 1e9;
float deadline_column(double seconds) {
  return static_cast<float>(std::clamp(seconds, 0.0, kMaxDeadlineSeconds));
}

// Greedy longest-prefix acceptance: the number of leading drafts j (of
// `drafts`) whose token draft(j) is the argmax of logits row first + j.
template <typename Draft>
std::size_t accept_drafts(const Tensor& logits, std::size_t first,
                          std::size_t drafts, Draft draft) {
  std::size_t accepted = 0;
  while (accepted < drafts &&
         static_cast<TokenId>(argmax_row(logits, first + accepted)) ==
             draft(accepted)) {
    ++accepted;
  }
  return accepted;
}

// Control-column reader: the column must hold a finite integer in
// [0, limit], else the command is malformed.
std::size_t integral(const Tensor& cmd, std::size_t row, std::size_t col,
                     double limit) {
  const double v = cmd(row, col);
  if (!std::isfinite(v) || v != std::floor(v) || v < 0.0 || v > limit) {
    throw std::runtime_error("DistributedDecoder: malformed command column " +
                             std::to_string(col));
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

DecodeCommand parse_decode_command(const Tensor& cmd,
                                   std::span<const std::size_t> prompt_lens,
                                   std::size_t max_positions) {
  if (cmd.rows() < 1 || cmd.cols() < kCmdCols) {
    throw std::runtime_error("DistributedDecoder: malformed command");
  }
  const double timeout = cmd(0, 3);
  if (!(timeout >= 0.0 && timeout <= kMaxDeadlineSeconds)) {
    throw std::runtime_error("DistributedDecoder: malformed command deadline");
  }
  const std::size_t op = integral(cmd, 0, 0, 255);
  DecodeCommand out{.op = static_cast<DecodeCommand::Op>(op),
                    .int8 = integral(cmd, 0, 2, 1) != 0,
                    .timeout_seconds = timeout,
                    .prompt_len = 0,
                    .rows = std::vector<DecodeCommand::Row>(cmd.rows())};
  const auto slots = static_cast<double>(prompt_lens.size());
  for (std::size_t r = 0; r < cmd.rows(); ++r) {
    if (integral(cmd, r, 0, 255) != op ||
        integral(cmd, r, 2, 1) != (out.int8 ? 1U : 0U) ||
        cmd(r, 3) != timeout) {
      throw std::runtime_error("DistributedDecoder: mixed command rows");
    }
    // A prime may open one slot past the worker's last.
    out.rows[r] = DecodeCommand::Row{
        .slot = integral(cmd, r, 4, slots),
        .position = integral(cmd, r, 1, static_cast<double>(max_positions)),
        .token = static_cast<TokenId>(integral(cmd, r, 5, 1 << 24)),
        .committed = integral(cmd, r, 6, 1) != 0};
  }
  const DecodeCommand::Row& first = out.rows.front();
  switch (out.op) {
    case DecodeCommand::Op::kPrime:
      out.prompt_len = first.position;
      if (cmd.rows() != 1 || out.prompt_len == 0) {
        throw std::runtime_error("DistributedDecoder: malformed prime");
      }
      return out;
    case DecodeCommand::Op::kRelease:
      if (cmd.rows() != 1 || first.slot == prompt_lens.size()) {
        throw std::runtime_error("DistributedDecoder: malformed release");
      }
      return out;
    case DecodeCommand::Op::kStep:
      for (const DecodeCommand::Row& row : out.rows) {
        if (row.slot == prompt_lens.size() || prompt_lens[row.slot] == 0) {
          throw std::runtime_error("DistributedDecoder: step before prime");
        }
        if (row.position < prompt_lens[row.slot] ||
            row.position >= max_positions) {
          throw std::runtime_error(
              "DistributedDecoder: step position outside the window");
        }
      }
      return out;
  }
  throw std::runtime_error("DistributedDecoder: unknown opcode");
}

DistributedDecoder::DistributedDecoder(const TransformerModel& model,
                                       PartitionScheme scheme,
                                       OrderPolicy policy,
                                       TransportKind transport)
    : DistributedDecoder(model, scheme, policy,
                         make_transport(transport, scheme.devices() + 1)) {}

DistributedDecoder::DistributedDecoder(const TransformerModel& model,
                                       PartitionScheme scheme,
                                       OrderPolicy policy,
                                       std::unique_ptr<Transport> transport)
    : DistributedDecoder(model, scheme, policy,
                         std::make_shared<DeviceMesh>(std::move(transport),
                                                      scheme.devices())) {}

DistributedDecoder::DistributedDecoder(const TransformerModel& model,
                                       PartitionScheme scheme,
                                       OrderPolicy policy,
                                       std::shared_ptr<DeviceMesh> mesh)
    : model_(model),
      scheme_(std::move(scheme)),
      policy_(policy),
      devices_(scheme_.devices()),
      mesh_(std::move(mesh)) {
  if (model_.spec().kind != ModelKind::kCausalLm) {
    throw std::invalid_argument("DistributedDecoder: needs a causal LM");
  }
  if (mesh_->devices() != scheme_.devices()) {
    throw std::invalid_argument(
        "DistributedDecoder: mesh and scheme device counts differ");
  }
}

void DistributedDecoder::ensure_alive() const {
  if (mesh_->failed()) {
    throw std::logic_error(
        "DistributedDecoder: mesh failed; build a new decoder");
  }
}

void DistributedDecoder::set_precision(Precision precision) {
  if (precision == Precision::kInt8 && qstack_ == nullptr) {
    qstack_ = std::make_unique<QuantizedStack>(model_);
  }
  precision_ = precision;
}

void DistributedDecoder::set_metrics(obs::MetricsRegistry* metrics) {
  mesh_->transport().set_metrics(metrics);
  decode_tokens_ = metrics == nullptr ? nullptr
                                      : &metrics->counter("decode.tokens");
}

std::size_t DistributedDecoder::slot_position(SlotId slot) const {
  if (!slot_active(slot)) {
    throw std::out_of_range("DistributedDecoder: inactive slot");
  }
  return slots_[slot].position;
}

// ---------------------------------------------------------------------------
// Worker side

void DistributedDecoder::serve_command(std::size_t i,
                                       const QuantizedStack* qstack,
                                       std::size_t kv_block_limit) {
  DeviceState& state = devices_[i];
  Tensor raw(0, 0);
  broadcast(mesh_->transport(), mesh_->everyone(), i, mesh_->devices(), raw,
            kTagCmd);
  const DecodeCommand cmd = parse_decode_command(
      raw, state.prompt_lens, model_.spec().max_positions);
  // Per-request deadline, fixed by the terminal at call entry and shared
  // by every blocking receive this command triggers.
  const RecvOptions options = RecvOptions::within(cmd.timeout_seconds);
  if (cmd.int8 && qstack == nullptr) {
    throw std::logic_error(
        "DistributedDecoder: int8 command without a quantized stack");
  }
  const QuantizedStack* const int8 = cmd.int8 ? qstack : nullptr;
  if (cmd.op == DecodeCommand::Op::kPrime) {
    prime_device(i, cmd, options, int8, kv_block_limit);
  } else if (cmd.op == DecodeCommand::Op::kStep) {
    step_device(i, cmd, raw, options, int8);
  } else {
    const SlotId slot = cmd.rows.front().slot;
    for (DecodeLayerCache& cache : state.caches[slot]) cache.release();
    state.prompt_lens[slot] = 0;
  }
}

void DistributedDecoder::prime_device(std::size_t i, const DecodeCommand& cmd,
                                      const RecvOptions& options,
                                      const QuantizedStack* int8,
                                      std::size_t kv_block_limit) {
  DeviceState& state = devices_[i];
  const std::size_t n = cmd.prompt_len;
  const SlotId slot = cmd.rows.front().slot;
  const auto layers = model_.layers();
  if (state.pool == nullptr) {
    state.pool = std::make_unique<KvBlockPool>(
        kv_block_floats(model_.spec().layer), kv_block_limit);
  }
  if (slot == state.prompt_lens.size()) {
    state.prompt_lens.push_back(0);
    state.caches.emplace_back();
  }
  std::vector<DecodeLayerCache>& caches = state.caches[slot];
  caches.resize(layers.size());
  state.prompt_lens[slot] = n;
  // Algorithm 2 prefill with two decode twists: every layer banks the K/V
  // of this device's input rows into its resident cache, whichever order
  // the layer ran, and only the owner of row n-1 sends that single row (the
  // LM head reads nothing else).
  prefill_device(
      *mesh_, model_,
      PrefillPlan{
          .ranges = std::vector<std::vector<Range>>(layers.size(),
                                                    scheme_.ranges(n)),
          .policy = policy_,
          .int8 = int8,
          .options = options,
          .on_layer =
              [&](std::size_t l, const Tensor& input, Range own) {
                caches[l].init(layers[l].config(), *state.pool);
                if (!own.empty()) {
                  caches[l].append(input.slice_rows(own.begin, own.end),
                                   layers[l].weights().attention);
                }
              },
          .last_row_only = true},
      i);
}

void DistributedDecoder::step_device(std::size_t i, const DecodeCommand& cmd,
                                     const Tensor& raw,
                                     const RecvOptions& options,
                                     const QuantizedStack* int8) {
  const std::size_t k = scheme_.devices();
  const auto layers = model_.layers();
  const std::size_t f = model_.spec().layer.hidden;
  const std::size_t rows_total = cmd.rows.size();
  obs::Tracer* const tracer = obs::thread_tracer();
  Transport& transport = mesh_->transport();
  DeviceState& state = devices_[i];
  Tensor x(rows_total, f);
  if (int8 != nullptr) {
    // The token rows follow the command as one quantized [R x F] broadcast;
    // every worker dequantizes the same payload, so x is identical on all
    // ranks (the redundant-tail invariant below depends on this). Per-row
    // scales make each dequantized row independent of its batch-mates.
    if (raw.cols() != kCmdCols) {
      throw std::runtime_error("DistributedDecoder: malformed step command");
    }
    Tensor rows(0, 0);
    broadcast(transport, mesh_->everyone(), i, k, rows, kTagToken, options);
    if (rows.rows() != rows_total || rows.cols() != f) {
      throw std::runtime_error("DistributedDecoder: malformed token rows");
    }
    x = std::move(rows);
  } else {
    if (raw.cols() != kCmdCols + f) {
      throw std::runtime_error("DistributedDecoder: malformed step command");
    }
    for (std::size_t r = 0; r < rows_total; ++r) {
      std::copy_n(raw.row(r).data() + kCmdCols, f, x.row(r).data());
    }
  }
  // Group the command rows into per-slot verify windows (consecutive rows
  // naming the same slot) and resolve every row before computing: each
  // window names a primed slot, and each row's owner is round-robin *within
  // that slot* — exactly the assignment a sequential run of the slot would
  // make, which is what keeps per-slot cache contents (and thus the math)
  // identical under batching and speculation.
  struct WorkerWindow {
    std::size_t begin = 0;      // first command row
    std::size_t end = 0;        // one past the last
    std::size_t committed = 0;  // leading pre-committed rows
    SlotId slot = 0;
    std::vector<bool> owned;  // per row: this device holds its position
  };
  std::vector<WorkerWindow> windows;
  for (std::size_t r = 0; r < rows_total; ++r) {
    const DecodeCommand::Row& row = cmd.rows[r];
    if (windows.empty() || windows.back().slot != row.slot) {
      if (!row.committed) {
        throw std::runtime_error(
            "DistributedDecoder: window starts with a draft row");
      }
      windows.push_back(WorkerWindow{
          .begin = r, .end = r, .committed = 0, .slot = row.slot, .owned = {}});
    } else if (row.committed &&
               windows.back().committed != windows.back().owned.size()) {
      throw std::runtime_error(
          "DistributedDecoder: committed row after a draft row");
    }
    WorkerWindow& w = windows.back();
    w.end = r + 1;
    if (row.committed) ++w.committed;
    w.owned.push_back((row.position - state.prompt_lens[row.slot]) % k == i);
  }
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const obs::ThreadLayerScope layer_scope(static_cast<std::int64_t>(l));
    const LayerConfig& config = layers[l].config();
    const LayerWeights& w = layers[l].weights();
    Tensor partials(0, 0);
    {
      obs::TraceSpan span(tracer, "decode_attention", "compute",
                          static_cast<obs::TrackId>(i));
      span.device(static_cast<std::int64_t>(i))
          .layer(static_cast<std::int64_t>(l))
          .batch(static_cast<std::int64_t>(rows_total));
      // One batched attention call covers every window: the query-side
      // projections are hoisted into per-head [R x .] GEMMs, while each
      // owned row is still appended *before* it attends, in window order —
      // rows see themselves and the window's earlier positions, never a
      // later draft (the intra-window causal mask, by construction).
      std::vector<DecodeWindowRef> refs;
      refs.reserve(windows.size());
      for (const WorkerWindow& win : windows) {
        refs.push_back(DecodeWindowRef{.begin = win.begin,
                                       .end = win.end,
                                       .owned = &win.owned,
                                       .cache = &state.caches[win.slot][l]});
      }
      partials = decode_windows_partial_attention(
          x, std::span<const DecodeWindowRef>(refs.data(), refs.size()),
          w.attention, config);
    }
    // One merge round for every window position of every lane: row r of
    // every rank's partial is command row r, and the root folds each row in
    // the same fixed rank order a single-lane step uses — k draft positions
    // ride the message count of one token.
    const Tensor merged = all_reduce_softmax_merge(
        transport, mesh_->workers(), i, l % k, partials, config.heads,
        config.head_dim, kTagMergeBase + 2 * l, options);
    // Post-attention tail on the R rows, redundantly on every device — all
    // ranks leave the layer with bitwise-identical x, so the layer output
    // is never gathered. Every tail op (merge-finalize GEMM, residual,
    // LayerNorm, FFN) is bitwise row-independent, so each row equals a
    // sequential step of its slot; the int8 tail keeps the invariant via
    // per-row activation scales.
    obs::TraceSpan span(tracer, "decode_tail", "compute",
                        static_cast<obs::TrackId>(i));
    span.device(static_cast<std::int64_t>(i))
        .layer(static_cast<std::int64_t>(l))
        .batch(static_cast<std::int64_t>(rows_total));
    if (int8 != nullptr) {
      x = int8->decode_step_tail(l, merged, x);
    } else {
      Tensor attn = softmax_merge_finalize(merged, w.attention, config);
      add_inplace(attn, x);
      const Tensor y =
          layernorm_rows(attn, w.ln_attention.gamma, w.ln_attention.beta);
      Tensor ff = ffn_forward(y, w.ffn, config.activation);
      add_inplace(ff, y);
      x = layernorm_rows(ff, w.ln_ffn.gamma, w.ln_ffn.beta);
    }
  }
  // Every worker holds the identical final rows; rank 0 reports them first
  // so the terminal's LM head overlaps with the workers' acceptance pass.
  const auto final_rows = std::make_shared<const Tensor>(std::move(x));
  if (i == 0) {
    Payload payload = tensor_payload_view(final_rows);
    obs::TraceSpan span(tracer, "send_final", "comm",
                        static_cast<obs::TrackId>(i));
    span.device(static_cast<std::int64_t>(i))
        .batch(static_cast<std::int64_t>(rows_total))
        .bytes(static_cast<std::int64_t>(payload.size() + kWireFrameBytes));
    transport.send(Message{.source = i,
                           .destination = terminal_id(),
                           .tag = kTagPrefillFinal,
                           .payload = std::move(payload)});
  }
  // Greedy longest-prefix acceptance, redundantly on every rank: the LM
  // head is row-independent (postprocess_rows row r is bitwise equal to
  // postprocess on that row alone), so all ranks — and the terminal — derive
  // the *same* accepted count from the same final rows, with zero extra
  // wire traffic. Each rank then truncates the rejected tail rows it owns
  // from its own caches, restoring exactly the sequential-decode state.
  for (const WorkerWindow& win : windows) {
    const std::size_t width = win.end - win.begin;
    if (win.committed == width) continue;  // no drafts to judge
    obs::TraceSpan span(tracer, "spec_commit", "compute",
                        static_cast<obs::TrackId>(i));
    span.device(static_cast<std::int64_t>(i));
    const Tensor logits = model_.postprocess_rows(final_rows->slice_rows(
        win.begin + win.committed - 1, win.end - 1));
    const std::size_t accepted =
        accept_drafts(logits, 0, width - win.committed, [&](std::size_t j) {
          return cmd.rows[win.begin + win.committed + j].token;
        });
    span.accepted(static_cast<std::int64_t>(accepted));
    std::size_t drop_owned = 0;
    for (std::size_t j = win.committed + accepted; j < width; ++j) {
      drop_owned += win.owned[j] ? 1 : 0;
    }
    if (drop_owned == 0) continue;
    for (DecodeLayerCache& cache : state.caches[win.slot]) {
      cache.truncate(drop_owned);
    }
  }
}

// ---------------------------------------------------------------------------
// Terminal side

void DistributedDecoder::post_command() {
  mesh_->post(
      [this, qstack = qstack_.get(), limit = kv_block_limit_](std::size_t i) {
        serve_command(i, qstack, limit);
      });
}

Tensor DistributedDecoder::prime(std::span<const TokenId> prompt) {
  ensure_alive();
  if (prompt.empty()) {
    throw std::invalid_argument("DistributedDecoder: empty prompt");
  }
  if (prompt.size() > model_.spec().max_positions) {
    throw std::length_error("DistributedDecoder: prompt exceeds the window");
  }
  // Starting over: free every live slot so the prompt lands in slot 0 with
  // the whole KV arena available.
  for (SlotId s = 0; s < slots_.size(); ++s) {
    if (slots_[s].active) release_slot(s);
  }
  return prime_slot(prompt).logits;
}

DistributedDecoder::PrimedSlot DistributedDecoder::prime_slot(
    std::span<const TokenId> prompt) {
  ensure_alive();
  if (prompt.empty()) {
    throw std::invalid_argument("DistributedDecoder: empty prompt");
  }
  if (prompt.size() > model_.spec().max_positions) {
    throw std::length_error("DistributedDecoder: prompt exceeds the window");
  }
  // Lowest free slot; ids recycle after release so the command field and
  // worker-side vectors stay small.
  SlotId slot = slots_.size();
  for (SlotId s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].active) {
      slot = s;
      break;
    }
  }
  if (slot == slots_.size()) slots_.emplace_back();
  const std::size_t k = scheme_.devices();
  // Embed before touching the mesh: a bad token id throws here without
  // poisoning anything.
  Tensor features = model_.preprocess(prompt);
  // The command broadcast carries the call's trace id to every worker.
  return mesh_->call([&] {
    Transport& transport = mesh_->transport();
    const RecvOptions options = RecvOptions::within(recv_timeout_seconds_);
    const std::uint64_t bytes_before = transport.total_stats().bytes_sent;
    obs::TraceSpan span(mesh_->tracer(), "decode.prefill", "serve",
                        static_cast<obs::TrackId>(terminal_id()));
    span.device(static_cast<std::int64_t>(terminal_id()))
        .request(static_cast<std::int64_t>(prompt.size()));
    Tensor cmd(1, kCmdCols);
    cmd(0, 0) = kOpPrime;
    cmd(0, 1) = static_cast<float>(prompt.size());
    cmd(0, 2) = precision_ == Precision::kInt8 ? 1.0F : 0.0F;
    cmd(0, 3) = deadline_column(recv_timeout_seconds_);
    cmd(0, 4) = static_cast<float>(slot);
    broadcast(transport, mesh_->everyone(), k, k, cmd, kTagCmd, options);
    post_command();
    broadcast(transport, mesh_->everyone(), k, k, features,
              kTagPrefillFeatures, options);
    const Tensor last_row = tensor_from_payload(
        transport.recv_any(terminal_id(), kTagPrefillFinal, options).payload);
    slots_[slot] = SlotMeta{.active = true,
                            .position = prompt.size(),
                            .prompt_len = prompt.size()};
    span.bytes(static_cast<std::int64_t>(transport.total_stats().bytes_sent -
                                         bytes_before));
    obs::TraceSpan head(mesh_->tracer(), "postprocess", "compute",
                        static_cast<obs::TrackId>(terminal_id()));
    head.device(static_cast<std::int64_t>(terminal_id()));
    return PrimedSlot{.slot = slot, .logits = model_.postprocess(last_row)};
  });
}

Tensor DistributedDecoder::step(TokenId token) {
  const SlotToken lane{.slot = 0, .token = token};
  return step_batch(std::span<const SlotToken>(&lane, 1));
}

DistributedDecoder::WindowRound DistributedDecoder::run_window_round(
    std::span<const WindowSpec> windows) {
  ensure_alive();
  if (windows.empty()) {
    throw std::invalid_argument("DistributedDecoder: empty batch");
  }
  // Validate every window before touching the mesh: a bad slot or an
  // exhausted context window throws without poisoning anything. Drafts
  // were already trimmed to the remaining window by the caller, so any
  // overflow here is a committed-token overflow.
  std::size_t rows_total = 0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const WindowSpec& win = windows[w];
    if (!slot_active(win.slot)) {
      throw std::logic_error("DistributedDecoder: prime() before step()");
    }
    if (win.committed < 1 || win.committed > win.tokens.size()) {
      throw std::invalid_argument("DistributedDecoder: malformed window");
    }
    if (slots_[win.slot].position + win.tokens.size() >
        model_.spec().max_positions) {
      throw std::length_error("DistributedDecoder: context window exhausted");
    }
    for (std::size_t q = 0; q < w; ++q) {
      if (windows[q].slot == win.slot) {
        throw std::invalid_argument(
            "DistributedDecoder: duplicate slot in batch");
      }
    }
    rows_total += win.tokens.size();
  }
  const std::size_t k = scheme_.devices();
  const std::size_t f = model_.spec().layer.hidden;
  // Embed every window row at its own position before touching the mesh —
  // a bad token id (draft or committed) throws here, mesh untouched.
  Tensor rows(rows_total, f);
  std::vector<std::size_t> row_begin(windows.size());
  {
    std::size_t r = 0;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      row_begin[w] = r;
      const Tensor block = model_.preprocess_at(
          std::span<const TokenId>(windows[w].tokens),
          slots_[windows[w].slot].position);
      for (std::size_t j = 0; j < block.rows(); ++j, ++r) {
        std::copy_n(block.row(j).data(), f, rows.row(r).data());
      }
    }
  }
  return mesh_->call([&] {
    Transport& transport = mesh_->transport();
    const RecvOptions options = RecvOptions::within(recv_timeout_seconds_);
    const std::uint64_t bytes_before = transport.total_stats().bytes_sent;
    obs::TraceSpan span(mesh_->tracer(), "decode.step", "serve",
                        static_cast<obs::TrackId>(terminal_id()));
    span.device(static_cast<std::int64_t>(terminal_id()))
        .request(static_cast<std::int64_t>(slots_[windows[0].slot].position))
        .batch(static_cast<std::int64_t>(windows.size()));
    // fp32 step command with the embedded rows inlined: one broadcast
    // carries both the per-row control words and the O(R*F) activation
    // payload. The int8 plane keeps the command minimal and ships the rows
    // as one quantized broadcast — R*F bytes plus R scales instead of 4RF.
    // Either way the round's *message count* is that of a single-token
    // step: the draft rows ride broadcasts and merges that happen anyway.
    const bool int8 = precision_ == Precision::kInt8;
    Tensor cmd(rows_total, int8 ? kCmdCols : kCmdCols + f);
    {
      std::size_t r = 0;
      for (const WindowSpec& win : windows) {
        for (std::size_t j = 0; j < win.tokens.size(); ++j, ++r) {
          cmd(r, 0) = kOpStep;
          cmd(r, 1) = static_cast<float>(slots_[win.slot].position + j);
          cmd(r, 2) = int8 ? 1.0F : 0.0F;
          cmd(r, 3) = deadline_column(recv_timeout_seconds_);
          cmd(r, 4) = static_cast<float>(win.slot);
          cmd(r, 5) = static_cast<float>(win.tokens[j]);
          cmd(r, 6) = j < win.committed ? 1.0F : 0.0F;
          if (!int8) {
            std::copy_n(rows.row(r).data(), f, cmd.row(r).data() + kCmdCols);
          }
        }
      }
    }
    broadcast(transport, mesh_->everyone(), k, k, cmd, kTagCmd, options);
    post_command();
    if (int8) {
      broadcast(transport, mesh_->everyone(), k, k, rows, kTagToken, options,
                Precision::kInt8);
    }
    const Tensor last_rows = tensor_from_payload(
        transport.recv(terminal_id(), DeviceId{0}, kTagPrefillFinal, options)
            .payload);
    if (last_rows.rows() != rows_total) {
      throw std::runtime_error("DistributedDecoder: malformed final rows");
    }
    Tensor logits(0, 0);
    {
      obs::TraceSpan head(mesh_->tracer(), "postprocess", "compute",
                          static_cast<obs::TrackId>(terminal_id()));
      head.device(static_cast<std::int64_t>(terminal_id()))
          .batch(static_cast<std::int64_t>(rows_total));
      logits = model_.postprocess_rows(last_rows);
    }
    WindowRound round{.logits = std::move(logits),
                      .row_begin = std::move(row_begin),
                      .accepted = std::vector<std::size_t>(windows.size(), 0)};
    // Greedy longest-prefix acceptance — the same pass every worker runs on
    // the identical final rows (postprocess_rows is row-independent), so
    // terminal and workers agree on the commit frontier without another
    // round-trip.
    std::size_t committed_total = 0;
    std::size_t drafts_total = 0;
    std::size_t accepted_total = 0;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const WindowSpec& win = windows[w];
      const std::size_t drafts = win.tokens.size() - win.committed;
      const std::size_t accepted = accept_drafts(
          round.logits, round.row_begin[w] + win.committed - 1, drafts,
          [&](std::size_t j) { return win.tokens[win.committed + j]; });
      round.accepted[w] = accepted;
      slots_[win.slot].position += win.committed + accepted;
      committed_total += win.committed + accepted;
      drafts_total += drafts;
      accepted_total += accepted;
    }
    if (decode_tokens_ != nullptr) {
      decode_tokens_->add(static_cast<std::uint64_t>(committed_total));
    }
    span.tokens(static_cast<std::int64_t>(committed_total))
        .drafts(static_cast<std::int64_t>(drafts_total))
        .accepted(static_cast<std::int64_t>(accepted_total))
        .bytes(static_cast<std::int64_t>(transport.total_stats().bytes_sent -
                                         bytes_before));
    return round;
  });
}

Tensor DistributedDecoder::step_batch(std::span<const SlotToken> batch) {
  std::vector<WindowSpec> windows(batch.size());
  for (std::size_t r = 0; r < batch.size(); ++r) {
    windows[r] = WindowSpec{.slot = batch[r].slot,
                            .tokens = {batch[r].token},
                            .committed = 1};
  }
  // Single-row windows: command row r IS lane r, so the round's logits are
  // already the [B x vocab] contract (row-aligned, bitwise identical to
  // stepping each slot alone).
  return run_window_round(windows).logits;
}

std::vector<LaneCommit> DistributedDecoder::step_speculative(
    std::span<const SlotWindow> lanes) {
  ensure_alive();
  std::vector<WindowSpec> windows(lanes.size());
  for (std::size_t w = 0; w < lanes.size(); ++w) {
    const SlotWindow& lane = lanes[w];
    if (!slot_active(lane.slot)) {
      throw std::logic_error("DistributedDecoder: prime() before step()");
    }
    const std::size_t position = slots_[lane.slot].position;
    if (position + 1 > model_.spec().max_positions) {
      throw std::length_error("DistributedDecoder: context window exhausted");
    }
    // Trim the drafts to the remaining context window: a draft that could
    // never be committed is not worth verifying.
    const std::size_t room = model_.spec().max_positions - position - 1;
    const std::size_t drafted = std::min(lane.drafts.size(), room);
    WindowSpec& win = windows[w];
    win.slot = lane.slot;
    win.committed = 1;
    win.tokens.reserve(1 + drafted);
    win.tokens.push_back(lane.token);
    win.tokens.insert(win.tokens.end(), lane.drafts.begin(),
                      lane.drafts.begin() + static_cast<std::ptrdiff_t>(
                                                drafted));
  }
  WindowRound round = run_window_round(windows);
  std::vector<LaneCommit> commits(lanes.size());
  for (std::size_t w = 0; w < lanes.size(); ++w) {
    LaneCommit& commit = commits[w];
    commit.accepted = round.accepted[w];
    commit.drafted = windows[w].tokens.size() - 1;
    // Greedy output: the model's own choice after every committed input —
    // the accepted drafts re-derived (bitwise, from the real logits) plus
    // the "bonus" token after the last accepted position.
    commit.tokens.reserve(commit.accepted + 1);
    for (std::size_t j = 0; j <= commit.accepted; ++j) {
      commit.tokens.push_back(static_cast<TokenId>(
          argmax_row(round.logits, round.row_begin[w] + j)));
    }
    const std::size_t last = round.row_begin[w] + commit.accepted;
    commit.logits = round.logits.slice_rows(last, last + 1);
  }
  return commits;
}

void DistributedDecoder::release_slot(SlotId slot) {
  ensure_alive();
  if (!slot_active(slot)) {
    throw std::out_of_range("DistributedDecoder: inactive slot");
  }
  mesh_->call([&] {
    Tensor cmd(1, kCmdCols);
    cmd(0, 0) = kOpRelease;
    cmd(0, 2) = precision_ == Precision::kInt8 ? 1.0F : 0.0F;
    cmd(0, 3) = deadline_column(recv_timeout_seconds_);
    cmd(0, 4) = static_cast<float>(slot);
    const std::size_t k = scheme_.devices();
    broadcast(mesh_->transport(), mesh_->everyone(), k, k, cmd, kTagCmd);
    post_command();
    slots_[slot] = SlotMeta{};
  });
}

Tensor DistributedDecoder::extend(std::span<const TokenId> tokens) {
  ensure_alive();
  if (tokens.empty()) {
    throw std::invalid_argument("DistributedDecoder: empty extension");
  }
  // One all-committed window: every token is appended in a single wire
  // round (the caches grow exactly as if each token had been step()ed) and
  // the last row's logits come back — N committed tokens, one round-trip.
  const std::vector<WindowSpec> windows{
      WindowSpec{.slot = 0,
                 .tokens = {tokens.begin(), tokens.end()},
                 .committed = tokens.size()}};
  WindowRound round = run_window_round(windows);
  return round.logits.slice_rows(round.logits.rows() - 1,
                                 round.logits.rows());
}

}  // namespace voltage
