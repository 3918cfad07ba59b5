// Randomized property sweeps: the system's core invariants checked across
// randomly drawn geometries, partitions, schemes and payloads. Each TEST_P
// instance derives everything deterministically from its seed, so failures
// reproduce exactly.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "collective/collectives.h"
#include "net/quant_codec.h"
#include "net/socket_fabric.h"
#include "partition/flop_model.h"
#include "quant/quantized_tensor.h"
#include "partition/partitioned_layer.h"
#include "partition/scheme.h"
#include "runtime/distributed_decoder.h"
#include "runtime/voltage_runtime.h"
#include "sim/netsim.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"
#include "transformer/layer.h"
#include "transformer/tokenizer.h"
#include "transformer/weights.h"
#include "transformer/zoo.h"

namespace voltage {
namespace {

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng_{GetParam()};

  LayerConfig random_config(bool allow_causal = true) {
    const std::size_t heads = 1ULL << (1 + rng_.next_below(3));   // 2/4/8
    const std::size_t head_dim = 1ULL << (2 + rng_.next_below(3));  // 4/8/16
    return LayerConfig{
        .hidden = heads * head_dim,
        .heads = heads,
        .head_dim = head_dim,
        .ffn_dim = heads * head_dim * (1 + rng_.next_below(4)),
        .activation =
            rng_.next_below(2) == 0 ? Activation::kGelu : Activation::kRelu,
        .causal = allow_causal && rng_.next_below(2) == 0,
    };
  }

  Range random_range(std::size_t n) {
    const std::size_t a = rng_.next_below(n);
    const std::size_t b = rng_.next_below(n) + 1;
    return a < b ? Range{a, b} : Range{b - 1, a + 1};
  }
};

TEST_P(Fuzz, PartitionedLayerMatchesFullRows) {
  const LayerConfig cfg = random_config();
  const LayerWeights w = init_layer_weights(cfg, rng_);
  const TransformerLayer layer(cfg, w);
  const std::size_t n = 8 + rng_.next_below(24);
  const Tensor x = rng_.normal_tensor(n, cfg.hidden, 1.0F);
  const Tensor full = layer.forward(x);
  for (int trial = 0; trial < 4; ++trial) {
    const Range p = random_range(n);
    const OrderPolicy policy = static_cast<OrderPolicy>(rng_.next_below(3));
    const Tensor part = partitioned_layer_forward(layer, x, p, policy);
    EXPECT_TRUE(allclose(part, full.slice_rows(p.begin, p.end), 1e-3F))
        << "seed=" << GetParam() << " range=[" << p.begin << "," << p.end
        << ") H=" << cfg.heads << " F_H=" << cfg.head_dim
        << " causal=" << cfg.causal;
  }
}

TEST_P(Fuzz, RandomSchemesCoverExactly) {
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t k = 1 + rng_.next_below(8);
    std::vector<double> weights(k);
    for (double& v : weights) {
      v = 0.05 + static_cast<double>(rng_.next_uniform());
    }
    const PartitionScheme scheme = PartitionScheme::proportional(weights);
    const std::size_t n = 1 + rng_.next_below(500);
    std::size_t begin = 0;
    for (const Range& r : scheme.ranges(n)) {
      ASSERT_EQ(r.begin, begin);
      begin = r.end;
    }
    EXPECT_EQ(begin, n);
  }
}

TEST_P(Fuzz, Theorem2OptimalOnRandomGeometries) {
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t h = 2 + rng_.next_below(15);
    const std::size_t fh = 1 + rng_.next_below(256);
    const std::size_t n = 2 + rng_.next_below(512);
    const std::size_t p = 1 + rng_.next_below(n);
    const AttentionDims d{.n = n, .p = p, .f = h * fh, .fh = fh};
    const std::uint64_t chosen =
        theorem2_prefers_reordered(d) ? gamma_eq8(d) : gamma_eq3(d);
    EXPECT_EQ(chosen, cheapest_order_exhaustive(d).cost)
        << "seed=" << GetParam() << " N=" << n << " P=" << p << " H=" << h
        << " F_H=" << fh;
  }
}

TEST_P(Fuzz, SerializationRoundTripsRandomShapes) {
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t rows = rng_.next_below(20);
    const std::size_t cols = 1 + rng_.next_below(40);
    const Tensor t = rng_.normal_tensor(rows, cols, 3.0F);
    EXPECT_EQ(tensor_from_bytes(to_bytes(t)), t);
  }
}

TEST_P(Fuzz, QuantizedWireRoundTripsWithinHalfStep) {
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t rows = rng_.next_below(16);
    const std::size_t cols = 1 + rng_.next_below(48);
    const Tensor t =
        rng_.normal_tensor(rows, cols, 0.1F + 10.0F * rng_.next_uniform());
    const Payload payload = quantized_payload(t);
    ASSERT_EQ(payload.size(), quant_wire_bytes(rows, cols));
    const Tensor back = tensor_from_payload(payload);
    ASSERT_TRUE(back.same_shape(t));
    for (std::size_t r = 0; r < rows; ++r) {
      float absmax = 0.0F;
      for (const float v : t.row(r)) absmax = std::max(absmax, std::fabs(v));
      const float step = absmax / 127.0F;
      for (std::size_t c = 0; c < cols; ++c) {
        EXPECT_LE(std::fabs(back(r, c) - t(r, c)),
                  0.5F * step + 1e-6F * absmax + 1e-7F)
            << "seed=" << GetParam() << " r=" << r << " c=" << c;
      }
    }
  }
}

TEST_P(Fuzz, Int8GemmTracksFloatGemmWithinQuantizationBound) {
  // The documented compute bound: quantized_matmul's error against the float
  // GEMM comes only from representing x per row and W per column in int8 —
  // the int32 accumulation itself is exact. With both operand errors at most
  // half a step, the relative error stays well under 2% for generic dense
  // operands (DESIGN.md "Quantized path").
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t m = 1 + rng_.next_below(40);
    const std::size_t k = 1 + rng_.next_below(96);
    const std::size_t n = 1 + rng_.next_below(64);
    const float xs = 0.05F + 5.0F * rng_.next_uniform();
    const float ws = 0.05F + 2.0F * rng_.next_uniform();
    const Tensor x = rng_.normal_tensor(m, k, xs);
    const Tensor w = rng_.normal_tensor(k, n, ws);
    const Tensor exact = matmul(x, w);
    const Tensor approx = quantized_matmul(x, quantize_weights(w));
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      const double d = static_cast<double>(approx.flat()[i]) -
                       static_cast<double>(exact.flat()[i]);
      num += d * d;
      den += static_cast<double>(exact.flat()[i]) * exact.flat()[i];
    }
    const double rel = den == 0.0 ? 0.0 : std::sqrt(num / den);
    EXPECT_LT(rel, 0.02) << "seed=" << GetParam() << " m=" << m << " k=" << k
                         << " n=" << n;
  }
}

TEST_P(Fuzz, AllGatherNeverFinishesBeforeDependencies) {
  const LinkModel link =
      LinkModel::mbps(50.0 + 950.0 * rng_.next_uniform(),
                      1e-4 + 5e-3 * rng_.next_uniform());
  const std::size_t k = 2 + rng_.next_below(7);
  std::vector<sim::SimTime> ready(k);
  std::vector<std::size_t> bytes(k);
  for (std::size_t i = 0; i < k; ++i) {
    ready[i] = rng_.next_uniform();
    bytes[i] = rng_.next_below(1 << 20);
  }
  const auto done = sim::sim_allgather_fullmesh(ready, bytes, link);
  const double slowest = *std::max_element(ready.begin(), ready.end());
  for (std::size_t j = 0; j < k; ++j) {
    // Can't finish before your own readiness...
    EXPECT_GE(done[j], ready[j]);
    // ...nor before the last sender has even started (k >= 2 means every
    // rank waits for at least one message from the slowest peer).
    if (std::count(ready.begin(), ready.end(), slowest) == 1 &&
        done[j] == ready[j]) {
      EXPECT_GE(ready[j], slowest);
    }
  }
}

TEST_P(Fuzz, FasterLinkNeverSlowsCollectives) {
  const std::size_t k = 2 + rng_.next_below(5);
  std::vector<sim::SimTime> ready(k);
  for (auto& r : ready) r = rng_.next_uniform();
  const std::size_t bytes = 1 + rng_.next_below(1 << 21);
  const LinkModel slow = LinkModel::mbps(100, 2e-3);
  const LinkModel fast = LinkModel::mbps(400, 2e-3);
  const auto d_slow = sim::sim_ring_allreduce(ready, bytes, slow);
  const auto d_fast = sim::sim_ring_allreduce(ready, bytes, fast);
  for (std::size_t i = 0; i < k; ++i) EXPECT_LE(d_fast[i], d_slow[i]);
}

TEST_P(Fuzz, TensorWireHeaderRejectsHostileBytes) {
  // Every fp32 and int8 tensor payload is decoded through one header parser
  // and, for int8, one dequantizer. Random row and column words, products
  // and byte sizes that overflow 64 bits, lengths off the implied size and
  // non-finite row scales must throw std::invalid_argument naming the
  // decode path; whatever decodes has exactly the shape its header claims.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kMaxBytes = 1 << 14;  // largest buffer built here
  constexpr std::size_t kHead = kTensorWireHeaderBytes;

  // Runs `bytes` through tensor_from_bytes, and through tensor_from_payload
  // and deserialize_into (into `dst` at `row_begin`) over an owned and a
  // borrowed payload. `accept` says whether each must decode.
  const auto decode_everywhere = [](const std::vector<std::byte>& bytes,
                                    std::uint64_t rows, std::uint64_t cols,
                                    bool accept, Tensor& dst,
                                    std::size_t row_begin) {
    const auto expect = [&](const char* path, const auto& decode) {
      try {
        const auto [got_rows, got_cols] = decode();
        EXPECT_TRUE(accept) << path << " accepted " << rows << " x " << cols
                            << " in " << bytes.size() << " bytes";
        EXPECT_EQ(got_rows, rows) << path;
        EXPECT_EQ(got_cols, cols) << path;
      } catch (const std::invalid_argument& e) {
        EXPECT_FALSE(accept) << path << " rejected a valid payload: "
                             << e.what();
        EXPECT_NE(std::string_view(e.what()).find(path),
                  std::string_view::npos)
            << e.what();
      }
    };
    expect("tensor_from_bytes", [&] {
      const Tensor t = tensor_from_bytes(bytes);
      return std::pair<std::uint64_t, std::uint64_t>{t.rows(), t.cols()};
    });
    std::vector<Payload> payloads{Payload(bytes)};
    if (bytes.size() >= kHead) {
      std::array<std::byte, Payload::kInlineHeaderCapacity> head{};
      std::memcpy(head.data(), bytes.data(), kHead);
      payloads.push_back(Payload::view(
          head, kHead, std::span(bytes).subspan(kHead), nullptr));
    }
    for (const Payload& payload : payloads) {
      expect("tensor_from_payload", [&] {
        const Tensor t = tensor_from_payload(payload);
        return std::pair<std::uint64_t, std::uint64_t>{t.rows(), t.cols()};
      });
      expect("deserialize_into", [&] {
        const WireShape shape = deserialize_into(payload, dst, row_begin);
        return std::pair{shape.rows, shape.cols};
      });
    }
  };

  // `total` bytes: the header (truncated if short), then a random body.
  const auto wire_bytes = [&](std::uint64_t rows, std::uint64_t cols,
                              bool quantized, std::uint64_t total) {
    std::vector<std::byte> bytes(total);
    for (std::byte& b : bytes) b = static_cast<std::byte>(rng_.next_below(256));
    std::array<std::byte, kHead> head{};
    const std::uint64_t cols_word = quantized ? cols | kQuantColsFlag : cols;
    std::memcpy(head.data(), &rows, sizeof(rows));
    std::memcpy(head.data() + sizeof(rows), &cols_word, sizeof(cols_word));
    std::copy_n(head.begin(), std::min<std::uint64_t>(total, kHead),
                bytes.begin());
    return bytes;
  };

  // Small, plausible, powers of two (whose products wrap) and anything.
  const auto word = [&]() -> std::uint64_t {
    switch (rng_.next_below(4)) {
      case 0: return rng_.next_below(9);
      case 1: return 1 + rng_.next_below(128);
      case 2: return std::uint64_t{1} << rng_.next_below(64);
      default: return rng_.next_u64();
    }
  };
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 512; ++trial) {
    const bool quantized = rng_.next_below(2) == 0;
    const std::uint64_t rows = word();
    const std::uint64_t cols = word() & ~kQuantColsFlag;
    // The exact wire size (kMax when it does not fit in 64 bits), and the
    // size a computation that wraps would get.
    const std::uint64_t per_row =
        quantized ? sizeof(float) + cols : sizeof(float) * cols;
    const bool fits =
        rows == 0 || ((quantized || cols <= kMax / sizeof(float)) &&
                      (per_row == 0 || rows <= (kMax - kHead) / per_row));
    const std::uint64_t implied = fits ? kHead + rows * per_row : kMax;
    const std::uint64_t wrapped =
        quantized ? kHead + rows * sizeof(float) + rows * cols
                  : kHead + rows * cols * sizeof(float);
    std::uint64_t total = implied;
    switch (rng_.next_below(4)) {
      case 0: break;
      case 1: total = wrapped; break;
      case 2: total = implied + 1 + rng_.next_below(8); break;
      default: total = implied - 1 - rng_.next_below(8); break;
    }
    if (total > kMaxBytes) total = rng_.next_below(kMaxBytes + 1);

    std::vector<std::byte> bytes = wire_bytes(rows, cols, quantized, total);
    const bool accept = total == implied;
    if (quantized && accept) {
      for (std::uint64_t r = 0; r < rows; ++r) {  // finite row scales
        const float scale = 1e-3F + rng_.next_uniform();
        std::memcpy(bytes.data() + kHead + r * sizeof(float), &scale,
                    sizeof(scale));
      }
    }
    std::size_t row_begin = 0;
    Tensor dst(1 + rng_.next_below(4), cols < 64 ? cols : 4);
    if (accept) {
      // A size-valid header with rows > 0 bounds rows * cols; with no rows
      // the column word is unbounded, so no padding rows are allocated.
      row_begin = rows != 0 && rows < 64 ? rng_.next_below(3) : 0;
      dst = Tensor(row_begin + rows, cols);
    }
    decode_everywhere(bytes, rows, cols, accept, dst, row_begin);
    ++(accept ? accepted : rejected);
  }
  EXPECT_GT(accepted, 0U);
  EXPECT_GT(rejected, 0U);

  // The named attacks. Headers whose size wraps to a bare header: rows *
  // cols * 4 = 2^64 (fp32), rows * cols = 2^64, and rows * 4 = 2^64 (int8).
  Tensor unused(1, 1);
  for (const auto& [rows, cols, quantized] :
       {std::tuple{std::uint64_t{1} << 62, std::uint64_t{4}, false},
        std::tuple{std::uint64_t{1} << 32, std::uint64_t{1} << 32, false},
        std::tuple{std::uint64_t{1} << 62, std::uint64_t{0}, true}}) {
    decode_everywhere(wire_bytes(rows, cols, quantized, kHead), rows, cols,
                      false, unused, 0);
  }
  // A NaN, +Inf or -Inf row scale in an otherwise valid int8 payload.
  const Tensor t = rng_.normal_tensor(1 + rng_.next_below(6),
                                      1 + rng_.next_below(12), 2.0F);
  const std::vector<std::byte> valid = quantized_payload(t).flatten();
  Tensor dst(t.rows(), t.cols());
  decode_everywhere(valid, t.rows(), t.cols(), true, dst, 0);
  for (const float scale : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
    std::vector<std::byte> bad = valid;
    std::memcpy(bad.data() + kHead + rng_.next_below(t.rows()) * sizeof(float),
                &scale, sizeof(scale));
    decode_everywhere(bad, t.rows(), t.cols(), false, dst, 0);
  }
}

TEST_P(Fuzz, DecodeCommandParserRejectsHostileControls) {
  // Workers act on a decoder command only through parse_decode_command:
  // NaN, negative, fractional or huge control values must throw rather
  // than reach a cast, a slot allocation or the owner computation.
  constexpr std::size_t kMaxPositions = 64;
  std::vector<std::size_t> prompt_lens(1 + rng_.next_below(4));
  for (std::size_t& len : prompt_lens) {
    len = rng_.next_below(2) == 0 ? 0 : 1 + rng_.next_below(32);
  }
  prompt_lens[0] = 1 + rng_.next_below(32);  // at least one live slot
  const auto lens = std::span<const std::size_t>(prompt_lens);
  const auto row = [](Tensor& cmd, std::size_t r, float op, float arg,
                      float slot, float token) {
    const std::array<float, 7> cols{op, arg, 0.0F, 0.5F, slot, token, 1.0F};
    std::copy(cols.begin(), cols.end(), cmd.row(r).data());
  };
  // One valid command of each kind: prime into a new slot, a step window
  // on slot 0, release of slot 0.
  std::vector<Tensor> commands;
  commands.emplace_back(1, 7);
  row(commands.back(), 0, 1.0F, 1.0F + static_cast<float>(rng_.next_below(64)),
      static_cast<float>(prompt_lens.size()), 0.0F);
  const std::size_t window = 1 + rng_.next_below(4);
  commands.emplace_back(window, 7);
  for (std::size_t r = 0; r < window; ++r) {
    row(commands.back(), r, 2.0F, static_cast<float>(prompt_lens[0] + r), 0.0F,
        static_cast<float>(rng_.next_below(1000)));
  }
  commands.emplace_back(1, 7);
  row(commands.back(), 0, 5.0F, 0.0F, 0.0F, 0.0F);

  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::array<float, 6> hostile{kNan, -1.0F, kInf, -kInf, 1e30F, 0.5F};
  for (const Tensor& valid : commands) {
    ASSERT_NO_THROW((void)parse_decode_command(valid, lens, kMaxPositions));
    // Every named attack on every control cell throws.
    for (std::size_t r = 0; r < valid.rows(); ++r) {
      for (std::size_t c = 0; c < 7; ++c) {
        for (const float value : hostile) {
          if (c == 3 && value == 0.5F) continue;  // a fractional deadline
          Tensor bad = valid;
          bad(r, c) = value;
          EXPECT_THROW((void)parse_decode_command(bad, lens, kMaxPositions),
                       std::runtime_error)
              << "row " << r << " col " << c << " value " << value;
        }
      }
    }
    // Random integral corruptions either throw or decode in range.
    for (int trial = 0; trial < 64; ++trial) {
      Tensor bad = valid;
      const std::uint64_t bound = std::uint64_t{1} << (1 + trial % 40);
      bad(rng_.next_below(bad.rows()), rng_.next_below(7)) =
          static_cast<float>(rng_.next_below(bound));
      try {
        const DecodeCommand cmd =
            parse_decode_command(bad, lens, kMaxPositions);
        for (const DecodeCommand::Row& r : cmd.rows) {
          EXPECT_LE(r.slot, prompt_lens.size());
          if (cmd.op == DecodeCommand::Op::kStep) {
            ASSERT_LT(r.slot, prompt_lens.size());
            EXPECT_GE(r.position, prompt_lens[r.slot]);
            EXPECT_LT(r.position, kMaxPositions);
          }
        }
        if (cmd.op == DecodeCommand::Op::kPrime) {
          EXPECT_GE(cmd.prompt_len, 1U);
          EXPECT_LE(cmd.prompt_len, kMaxPositions);
        }
      } catch (const std::runtime_error&) {
      }
    }
  }
  // The slot-allocation and underflow attacks, named.
  Tensor far_prime = commands[0];
  far_prime(0, 4) = static_cast<float>(prompt_lens.size() + 1);
  EXPECT_THROW((void)parse_decode_command(far_prime, lens, kMaxPositions),
               std::runtime_error);
  Tensor early_step = commands[1];
  early_step(0, 1) = static_cast<float>(prompt_lens[0] - 1);
  EXPECT_THROW((void)parse_decode_command(early_step, lens, kMaxPositions),
               std::runtime_error);
}

TEST_P(Fuzz, SocketFrameHeaderRejectsHostileFields) {
  // A socket reader acts on a frame only through parse_frame_header: a
  // source other than the socket's peer, or a payload length over the cap,
  // must throw (naming the peer) before the reader allocates or delivers
  // anything.
  const DeviceId peer = rng_.next_below(8);
  const auto encode = [](const FrameHeader& header) {
    std::array<std::byte, kWireFrameBytes> bytes{};
    std::memcpy(bytes.data(), &header, sizeof(header));
    return bytes;
  };
  const FrameHeader valid{.source = peer,
                          .tag = rng_.next_u64(),
                          .trace_id = rng_.next_u64(),
                          .seq = rng_.next_u64(),
                          .length = rng_.next_below(kMaxFramePayloadBytes + 1)};
  const FrameHeader decoded = parse_frame_header(encode(valid), peer);
  EXPECT_EQ(decoded.source, valid.source);
  EXPECT_EQ(decoded.tag, valid.tag);
  EXPECT_EQ(decoded.trace_id, valid.trace_id);
  EXPECT_EQ(decoded.seq, valid.seq);
  EXPECT_EQ(decoded.length, valid.length);

  // The named attacks: a spoofed source, an over-cap length.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::string peer_name = "device " + std::to_string(peer);
  const auto expect_rejected = [&](const FrameHeader& bad) {
    try {
      (void)parse_frame_header(encode(bad), peer);
      ADD_FAILURE() << "accepted source " << bad.source << " length "
                    << bad.length;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string_view(e.what()).find(peer_name),
                std::string_view::npos)
          << e.what();
    }
  };
  for (const std::uint64_t source :
       {peer + 1, peer + 8 + rng_.next_below(1000), kMax,
        std::uint64_t{1} << 63}) {
    FrameHeader bad = valid;
    bad.source = source;
    expect_rejected(bad);
  }
  if (peer > 0) {
    FrameHeader bad = valid;
    bad.source = rng_.next_below(peer);
    expect_rejected(bad);
  }
  for (const std::uint64_t length :
       {kMaxFramePayloadBytes + 1,
        kMaxFramePayloadBytes + 1 + rng_.next_below(kMaxFramePayloadBytes),
        std::uint64_t{1} << 40, std::uint64_t{1} << 63, kMax}) {
    FrameHeader bad = valid;
    bad.length = length;
    expect_rejected(bad);
  }

  // Random byte corruptions either throw or decode within bounds.
  for (int trial = 0; trial < 256; ++trial) {
    std::array<std::byte, kWireFrameBytes> bytes = encode(valid);
    for (std::uint64_t flips = 1 + rng_.next_below(3); flips > 0; --flips) {
      bytes[rng_.next_below(bytes.size())] =
          static_cast<std::byte>(rng_.next_below(256));
    }
    try {
      const FrameHeader header = parse_frame_header(bytes, peer);
      EXPECT_EQ(header.source, peer);
      EXPECT_LE(header.length, kMaxFramePayloadBytes);
    } catch (const std::runtime_error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6, 7,
                                                          8));

// Heavier end-to-end fuzz: random scheme, random device count, random
// sequence length — distributed inference must match single-device.
class RuntimeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuntimeFuzz, RandomSchemesMatchSingleDevice) {
  Rng rng(GetParam());
  const TransformerModel model = make_model(
      rng.next_below(2) == 0 ? mini_bert_spec() : mini_gpt2_spec());
  const std::size_t k = 1 + rng.next_below(5);
  std::vector<double> weights(k);
  for (double& v : weights) {
    v = 0.1 + static_cast<double>(rng.next_uniform());
  }
  const std::size_t n = 6 + rng.next_below(26);
  const auto tokens = random_tokens(n, model.spec().vocab_size,
                                    rng.next_u64());
  VoltageRuntime runtime(model, PartitionScheme::proportional(weights),
                         static_cast<OrderPolicy>(rng.next_below(3)));
  EXPECT_TRUE(allclose(runtime.infer(tokens), model.infer(tokens), 2e-3F))
      << "seed=" << GetParam() << " k=" << k << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeFuzz,
                         ::testing::Values<std::uint64_t>(11, 12, 13, 14, 15,
                                                          16));

}  // namespace
}  // namespace voltage
