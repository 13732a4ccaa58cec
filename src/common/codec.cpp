#include "common/codec.hpp"

#include <array>
#include <cstddef>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define VDB_CRC32C_SSE42 1
#endif

namespace vdb {

Result<std::vector<std::uint8_t>> Decoder::get_bytes() {
  auto len = get_u32();
  if (!len.is_ok()) return len.status();
  if (remaining() < len.value()) {
    return Status{ErrorCode::kCorruption, "decoder: truncated blob"};
  }
  std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(pos_),
                                data_.begin() + static_cast<long>(pos_) +
                                    len.value());
  pos_ += len.value();
  return out;
}

Result<std::string> Decoder::get_string() {
  auto len = get_u32();
  if (!len.is_ok()) return len.status();
  if (remaining() < len.value()) {
    return Status{ErrorCode::kCorruption, "decoder: truncated blob"};
  }
  // Build the string straight from the input span — no intermediate
  // byte-vector copy.
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                  len.value());
  pos_ += len.value();
  return out;
}

namespace {

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table, and
// table[k] advances a byte through k additional zero bytes, letting the hot
// loop fold 8 input bytes per iteration with 8 independent lookups. Same
// polynomial, same checksums — only the stride changes.
constexpr Crc32cTables make_crc_tables() {
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
    tables[0][i] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Crc32cTables kTables = make_crc_tables();

using Crc32cKernel = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                       std::uint32_t);

std::uint32_t crc32c_table(const std::uint8_t* p, std::size_t n,
                           std::uint32_t seed) {
  const auto& t = kTables;
  std::uint32_t crc = ~seed;
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
    ++p;
    --n;
  }
  return ~crc;
}

#ifdef VDB_CRC32C_SSE42

// Hardware kernel: three independent crc32 instruction streams over
// adjacent kBlock-byte blocks hide the instruction's 3-cycle latency. The
// CRC register is linear, so crc(A ++ B) = shift(crc(A), |B|) ^ crc0(B),
// where crc0 starts from a zero register and shift() advances a register
// through |B| zero bytes. kShiftBlock tabulates that shift for |B| = kBlock,
// one register byte per table (Mark Adler's crc32c.c combination), and is
// computed at compile time.
constexpr std::size_t kBlock = 256;

using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTable make_shift_table(std::size_t zero_bytes) {
  // Basis: where each single register bit lands after `zero_bytes` zeros.
  std::array<std::uint32_t, 32> basis{};
  for (int bit = 0; bit < 32; ++bit) {
    std::uint32_t crc = 1u << bit;
    for (std::size_t i = 0; i < zero_bytes; ++i) {
      crc = (crc >> 8) ^ kTables[0][crc & 0xFF];
    }
    basis[bit] = crc;
  }
  ShiftTable table{};
  for (int k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t v = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if ((b >> bit) & 1) v ^= basis[8 * k + bit];
      }
      table[k][b] = v;
    }
  }
  return table;
}

constexpr ShiftTable kShiftBlock = make_shift_table(kBlock);

std::uint64_t shift_block(std::uint64_t crc) {
  const auto& t = kShiftBlock;
  return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
         t[2][(crc >> 16) & 0xFF] ^ t[3][(crc >> 24) & 0xFF];
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const std::uint8_t* p, std::size_t n, std::uint32_t seed) {
  std::uint64_t c0 = ~seed;
  while (n >= 3 * kBlock) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      c0 = _mm_crc32_u64(c0, load_u64(p + i));
      c1 = _mm_crc32_u64(c1, load_u64(p + kBlock + i));
      c2 = _mm_crc32_u64(c2, load_u64(p + 2 * kBlock + i));
    }
    c0 = shift_block(c0) ^ c1;
    c0 = shift_block(c0) ^ c2;
    p += 3 * kBlock;
    n -= 3 * kBlock;
  }
  for (; n >= 8; p += 8, n -= 8) c0 = _mm_crc32_u64(c0, load_u64(p));
  auto crc = static_cast<std::uint32_t>(c0);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return ~crc;
}

#endif

Crc32cKernel resolve_crc32c_kernel() {
#ifdef VDB_CRC32C_SSE42
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_table;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::uint8_t> data,
                              std::uint32_t seed) {
  return crc32c_table(data.data(), data.size(), seed);
}

}  // namespace detail

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  static const Crc32cKernel kKernel = resolve_crc32c_kernel();
  return kKernel(data.data(), data.size(), seed);
}

}  // namespace vdb
