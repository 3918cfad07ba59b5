// Byte-accurate tensor serialization for the message fabric.
//
// Wire format: u64 rows, u64 cols, then rows*cols little-endian float32.
// The communication-volume experiments measure *these* byte counts, so the
// format intentionally mirrors what a real system would put on the wire
// (the paper's NF-elements-at-4-bytes accounting plus a fixed 16-byte
// header).
//
// Two receive paths exist: tensor_from_bytes / tensor_from_payload allocate
// a fresh tensor (general case), while deserialize_into copies the payload's
// rows straight into a preallocated buffer at a row offset — the zero-copy
// landing half of the all-gather pipeline. On the send side,
// tensor_payload_view builds a Payload that borrows the tensor's storage
// (header inline, body non-owning, pinned by the shared handle) so large
// activations cross the fabric without ever being serialized into a
// scratch buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/message.h"
#include "tensor/tensor.h"

namespace voltage {

inline constexpr std::size_t kTensorWireHeaderBytes = 2 * sizeof(std::uint64_t);

static_assert(Payload::kInlineHeaderCapacity >= kTensorWireHeaderBytes);

// Serialized size of a tensor with the given element count.
[[nodiscard]] constexpr std::size_t tensor_wire_bytes(
    std::size_t elements) noexcept {
  return kTensorWireHeaderBytes + elements * sizeof(float);
}

// Quantized wire variant (net/quant_codec.h encodes it): the header's cols
// word carries this flag, and the body is rows little-endian float32 row
// scales followed by rows*cols int8 values — symmetric per-row
// quantization, value = scale * q. Every decode path below dequantizes it
// transparently, so receivers are precision-blind.
inline constexpr std::uint64_t kQuantColsFlag = std::uint64_t{1} << 63;

// Serialized size of a quantized [rows x cols] tensor.
[[nodiscard]] constexpr std::size_t quant_wire_bytes(
    std::size_t rows, std::size_t cols) noexcept {
  return kTensorWireHeaderBytes + rows * sizeof(float) + rows * cols;
}

// Parsed wire header.
struct WireShape {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  bool quantized = false;
};

[[nodiscard]] std::vector<std::byte> to_bytes(const Tensor& t);

// Wire payload borrowing `t`'s storage: the 16-byte header lives inline in
// the Payload, the float body is a non-owning span into *t, and the shared
// handle keeps the tensor alive until every copy of the payload is dropped.
[[nodiscard]] Payload tensor_payload_view(std::shared_ptr<const Tensor> t);

// Throws std::invalid_argument on malformed input. Hardened against headers
// whose rows*cols (or total byte size) overflows — a hostile header can
// never bypass the size check by wrapping the element count — and against
// NaN or infinite int8 row scales.
[[nodiscard]] Tensor tensor_from_bytes(std::span<const std::byte> bytes);

// Same, reading a fabric payload in either representation (owned or view).
[[nodiscard]] Tensor tensor_from_payload(const Payload& payload);

// Zero-allocation receive: validates the payload's header (same hardening
// as tensor_from_bytes), requires its column count to match `dst` (unless
// the payload is 0-row) and its rows to fit at [row_begin, row_begin+rows),
// then copies the row block straight into `dst`. Returns the parsed shape.
WireShape deserialize_into(const Payload& payload, Tensor& dst,
                           std::size_t row_begin);

}  // namespace voltage
