#include "tensor/serialize.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace voltage {

namespace {

// Parse and validate the 16-byte wire header against the total payload size.
// Rejects headers whose rows*cols (or the implied byte size) would overflow,
// so `total == tensor_wire_bytes(elements)` can never be satisfied by a
// wrapped element count.
WireShape parse_wire_header(std::span<const std::byte> head, std::size_t total,
                            const char* who) {
  if (head.size() < kTensorWireHeaderBytes) {
    throw std::invalid_argument(std::string(who) + ": truncated header");
  }
  WireShape shape;
  std::uint64_t cols_word = 0;
  std::memcpy(&shape.rows, head.data(), sizeof(shape.rows));
  std::memcpy(&cols_word, head.data() + sizeof(shape.rows), sizeof(cols_word));
  shape.quantized = (cols_word & kQuantColsFlag) != 0;
  shape.cols = cols_word & ~kQuantColsFlag;
  if (shape.cols != 0 &&
      shape.rows > std::numeric_limits<std::uint64_t>::max() / shape.cols) {
    throw std::invalid_argument(std::string(who) +
                                ": element count overflows in header");
  }
  const std::uint64_t elements = shape.rows * shape.cols;
  constexpr std::uint64_t kMaxElements =
      (std::numeric_limits<std::size_t>::max() - kTensorWireHeaderBytes) /
      sizeof(float);
  if (elements > kMaxElements) {
    throw std::invalid_argument(std::string(who) +
                                ": byte size overflows in header");
  }
  std::uint64_t expected = 0;
  if (shape.quantized) {
    // rows float scales + rows*cols int8: guard each addition separately so
    // a hostile header can never wrap the expected size back onto `total`.
    constexpr std::uint64_t kMax = std::numeric_limits<std::size_t>::max();
    if (shape.rows > (kMax - kTensorWireHeaderBytes) / sizeof(float)) {
      throw std::invalid_argument(std::string(who) +
                                  ": byte size overflows in header");
    }
    const std::uint64_t scales = shape.rows * sizeof(float);
    if (elements > kMax - kTensorWireHeaderBytes - scales) {
      throw std::invalid_argument(std::string(who) +
                                  ": byte size overflows in header");
    }
    expected = kTensorWireHeaderBytes + scales + elements;
  } else {
    expected = tensor_wire_bytes(static_cast<std::size_t>(elements));
  }
  if (total != expected) {
    throw std::invalid_argument(std::string(who) + ": payload size mismatch");
  }
  return shape;
}

// The float data of a payload in either representation: past the inline
// header for a view, past the leading 16 bytes of the flat buffer otherwise.
std::span<const std::byte> payload_data(const Payload& payload) {
  return payload.body().empty() ? payload.head().subspan(kTensorWireHeaderBytes)
                                : payload.body();
}

// Copies a float body. An empty tensor's data() is null, and memcpy
// forbids a null pointer even for zero bytes, so empty bodies are skipped.
void copy_body(void* dst, const void* src, std::size_t bytes) {
  if (bytes != 0) std::memcpy(dst, src, bytes);
}

// Dequantize a quantized wire body (rows float32 scales, then rows*cols
// int8) into rows*cols floats at `dst` (contiguous, row-major). A NaN or
// infinite scale throws: the encoder never writes one for a finite row.
void dequantize_body(std::span<const std::byte> data, float* dst,
                     std::size_t rows, std::size_t cols, const char* who) {
  const std::byte* scale_bytes = data.data();
  const auto* q =
      reinterpret_cast<const std::int8_t*>(data.data() + rows * sizeof(float));
  for (std::size_t r = 0; r < rows; ++r) {
    float scale = 0.0F;
    std::memcpy(&scale, scale_bytes + r * sizeof(float), sizeof(float));
    if (!std::isfinite(scale)) {
      throw std::invalid_argument(std::string(who) +
                                  ": non-finite row scale");
    }
    const std::int8_t* row = q + r * cols;
    float* out = dst + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      out[c] = scale * static_cast<float>(row[c]);
    }
  }
}

}  // namespace

std::vector<std::byte> to_bytes(const Tensor& t) {
  std::vector<std::byte> out(tensor_wire_bytes(t.size()));
  const std::uint64_t rows = t.rows();
  const std::uint64_t cols = t.cols();
  std::memcpy(out.data(), &rows, sizeof(rows));
  std::memcpy(out.data() + sizeof(rows), &cols, sizeof(cols));
  copy_body(out.data() + kTensorWireHeaderBytes, t.data(), t.byte_size());
  return out;
}

Payload tensor_payload_view(std::shared_ptr<const Tensor> t) {
  std::array<std::byte, Payload::kInlineHeaderCapacity> header{};
  const std::uint64_t rows = t->rows();
  const std::uint64_t cols = t->cols();
  std::memcpy(header.data(), &rows, sizeof(rows));
  std::memcpy(header.data() + sizeof(rows), &cols, sizeof(cols));
  const std::span<const std::byte> body(
      reinterpret_cast<const std::byte*>(t->data()), t->byte_size());
  return Payload::view(header, kTensorWireHeaderBytes, body, std::move(t));
}

Tensor tensor_from_bytes(std::span<const std::byte> bytes) {
  const WireShape shape =
      parse_wire_header(bytes, bytes.size(), "tensor_from_bytes");
  Tensor t(shape.rows, shape.cols);
  const auto data = bytes.subspan(kTensorWireHeaderBytes);
  if (shape.quantized) {
    dequantize_body(data, t.data(), shape.rows, shape.cols,
                    "tensor_from_bytes");
  } else {
    copy_body(t.data(), data.data(), t.byte_size());
  }
  return t;
}

Tensor tensor_from_payload(const Payload& payload) {
  const WireShape shape =
      parse_wire_header(payload.head(), payload.size(), "tensor_from_payload");
  Tensor t(shape.rows, shape.cols);
  if (shape.quantized) {
    dequantize_body(payload_data(payload), t.data(), shape.rows, shape.cols,
                    "tensor_from_payload");
  } else {
    copy_body(t.data(), payload_data(payload).data(), t.byte_size());
  }
  return t;
}

WireShape deserialize_into(const Payload& payload, Tensor& dst,
                           std::size_t row_begin) {
  const WireShape shape =
      parse_wire_header(payload.head(), payload.size(), "deserialize_into");
  if (shape.rows == 0) return shape;
  if (shape.cols != dst.cols()) {
    throw std::invalid_argument("deserialize_into: column count mismatch");
  }
  if (row_begin > dst.rows() || shape.rows > dst.rows() - row_begin) {
    throw std::invalid_argument("deserialize_into: rows out of range");
  }
  if (shape.quantized) {
    dequantize_body(payload_data(payload), dst.data() + row_begin * dst.cols(),
                    shape.rows, shape.cols, "deserialize_into");
  } else {
    copy_body(dst.data() + row_begin * dst.cols(),
              payload_data(payload).data(),
              static_cast<std::size_t>(shape.rows) * shape.cols *
                  sizeof(float));
  }
  return shape;
}

}  // namespace voltage
