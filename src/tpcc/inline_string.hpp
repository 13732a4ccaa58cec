// Fixed-capacity string stored inside its owner: the type of every TPC-C
// row's string fields.
//
// Every TPC-C string column has a maximum length set by the spec (clause
// 1.3), so a row can hold its strings in place. Decoding a row then copies
// each field into the row itself rather than allocating one heap string
// per field, and copying a row (the before/after pair of an update) is a
// flat copy. The codec is the u32-length-prefixed form Encoder::put_string
// writes, byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

#include "common/codec.hpp"
#include "common/status.hpp"

namespace vdb::tpcc {

template <std::size_t N>
class InlineString {
  static_assert(N > 0 && N <= 0xFFFF, "capacity must fit the u16 length");

 public:
  InlineString() = default;
  /// A value longer than the capacity is a programming error and aborts.
  InlineString& operator=(std::string_view s) {
    assign(s);
    return *this;
  }

  void assign(std::string_view s) {
    VDB_CHECK_MSG(s.size() <= N, "string exceeds its field's capacity");
    size_ = static_cast<std::uint16_t>(s.size());
    if (!s.empty()) std::memcpy(data_, s.data(), s.size());
  }

  /// Sets the value in place: `write` stores it at the front of the span
  /// of all N characters and returns its length.
  template <typename Write>
  void fill(Write&& write) {
    const std::size_t n = write(std::span<char>(data_, N));
    VDB_CHECK_MSG(n <= N, "string exceeds its field's capacity");
    size_ = static_cast<std::uint16_t>(n);
  }

  /// Appends `s`, which must fit the remaining capacity.
  void append(std::string_view s) {
    VDB_CHECK_MSG(size_ + s.size() <= N, "string exceeds its field's capacity");
    if (!s.empty()) std::memcpy(data_ + size_, s.data(), s.size());
    size_ = static_cast<std::uint16_t>(size_ + s.size());
  }

  std::size_t size() const { return size_; }
  static constexpr std::size_t capacity() { return N; }

  std::string_view view() const { return {data_, size_}; }
  operator std::string_view() const { return view(); }  // NOLINT

  friend bool operator==(const InlineString& a, std::string_view b) {
    return a.view() == b;
  }
  friend std::ostream& operator<<(std::ostream& os, const InlineString& s) {
    return os << s.view();
  }

  /// Reads one length-prefixed string. A length above the capacity cannot
  /// come from this type's encoder: the bytes are damaged (kCorruption).
  Status decode(Decoder& dec) {
    auto bytes = dec.get_view();
    if (!bytes.is_ok()) return bytes.status();
    const std::span<const std::uint8_t> v = bytes.value();
    if (v.size() > N) {
      return Status{ErrorCode::kCorruption,
                    "decoder: string length " + std::to_string(v.size()) +
                        " exceeds field capacity " + std::to_string(N)};
    }
    assign({reinterpret_cast<const char*>(v.data()), v.size()});
    return Status::ok();
  }

 private:
  std::uint16_t size_ = 0;
  char data_[N];
};

}  // namespace vdb::tpcc
