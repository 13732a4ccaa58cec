// Byte-level serialization helpers.
//
// Redo records, page rows, and backup metadata are serialized with these
// little-endian codecs. Encoding must be deterministic: recovery compares
// replayed state byte-for-byte against the pre-crash database in tests.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace vdb {

/// Appends fixed-width little-endian primitives and length-prefixed blobs to
/// a growing byte vector.
class Encoder {
 public:
  explicit Encoder(std::vector<std::uint8_t>* out) : out_(out) {}

  /// Pre-sizes the output for `n` further bytes. Callers that know the
  /// payload size (record framing, row codecs) reserve once up front
  /// instead of growing the vector a field at a time.
  void reserve(size_t n) { out_->reserve(out_->size() + n); }

  void put_u8(std::uint8_t v) { out_->push_back(v); }
  void put_u16(std::uint16_t v) { put_raw(&v, sizeof(v)); }
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof(v)); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof(v)); }
  void put_double(double v) { put_raw(&v, sizeof(v)); }

  /// u32 length prefix + bytes.
  void put_bytes(std::span<const std::uint8_t> bytes) {
    put_u32(static_cast<std::uint32_t>(bytes.size()));
    put_raw(bytes.data(), bytes.size());
  }

  void put_string(std::string_view s) {
    put_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

 private:
  void put_raw(const void* p, size_t n) {
    if (n == 0) return;
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_->insert(out_->end(), b, b + n);
  }

  std::vector<std::uint8_t>* out_;
};

/// Reads back what Encoder wrote. All getters fail with kCorruption on
/// truncated input rather than reading out of bounds.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) : data_(data) {}

  Result<std::uint8_t> get_u8() { return get_fixed<std::uint8_t>(); }
  Result<std::uint16_t> get_u16() { return get_fixed<std::uint16_t>(); }
  Result<std::uint32_t> get_u32() { return get_fixed<std::uint32_t>(); }
  Result<std::uint64_t> get_u64() { return get_fixed<std::uint64_t>(); }
  Result<std::int64_t> get_i64() { return get_fixed<std::int64_t>(); }
  Result<double> get_double() { return get_fixed<double>(); }

  Result<std::vector<std::uint8_t>> get_bytes();
  Result<std::string> get_string();

  /// Zero-copy variant of get_bytes: returns a span into the underlying
  /// buffer instead of materializing a vector. The view is only valid while
  /// the decoded buffer outlives it — callers that retain the data past the
  /// buffer's lifetime must copy (see get_bytes).
  Result<std::span<const std::uint8_t>> get_view() {
    auto len = get_u32();
    if (!len.is_ok()) return len.status();
    if (remaining() < len.value()) {
      return Status{ErrorCode::kCorruption, "decoder: truncated bytes"};
    }
    std::span<const std::uint8_t> view = data_.subspan(pos_, len.value());
    pos_ += len.value();
    return view;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Result<T> get_fixed() {
    if (remaining() < sizeof(T)) {
      return Status{ErrorCode::kCorruption, "decoder: truncated input"};
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  size_t pos_{0};
};

/// CRC32 (Castagnoli polynomial). Used for page checksums and redo-record
/// integrity. `seed` chains calls: crc32c(b, crc32c(a)) == crc32c(a ++ b).
/// Dispatched once per process: x86-64 hosts with SSE4.2 run the crc32
/// instruction over three interleaved streams; other hosts run
/// slicing-by-8 tables. Both give the same checksum for every input.
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0);

namespace detail {
/// The slicing-by-8 kernel crc32c falls back to, callable on any host so
/// tests can hold the dispatched kernel to it.
std::uint32_t crc32c_portable(std::span<const std::uint8_t> data,
                              std::uint32_t seed = 0);
}  // namespace detail

}  // namespace vdb
