#include "common/rng.hpp"

namespace vdb {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// splitmix64, used to expand a single seed into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // All-zero state is invalid for xoshiro; splitmix64 cannot produce four
  // zeros from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  VDB_CHECK(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full range
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % range);
  std::uint64_t v;
  do {
    v = next();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return uniform01() < p;
}

std::int64_t Rng::nurand(std::int64_t a, std::int64_t x, std::int64_t y,
                         std::int64_t c) {
  return (((uniform(0, a) | uniform(x, y)) + c) % (y - x + 1)) + x;
}

namespace {

/// Draws a length uniform in [min_len, max_len], then that many characters
/// of `alphabet`, each uniform(0, N - 2) as an index: the same draws and
/// rejections as one Rng::uniform call per character, with the range and
/// its rejection limit fixed at compile time.
template <std::size_t N>
std::size_t fill_string(Rng& rng, const char (&alphabet)[N],
                        std::span<char> out, int min_len, int max_len) {
  constexpr std::uint64_t kRange = N - 1;  // without the terminating NUL
  constexpr std::uint64_t kLimit =
      ~std::uint64_t{0} - (~std::uint64_t{0} % kRange);
  const auto len = static_cast<std::size_t>(rng.uniform(min_len, max_len));
  VDB_CHECK_MSG(len <= out.size(), "string longer than its buffer");
  for (std::size_t i = 0; i < len; ++i) {
    std::uint64_t v;
    do {
      v = rng.next();
    } while (v >= kLimit);
    out[i] = alphabet[v % kRange];
  }
  return len;
}

}  // namespace

std::size_t Rng::alnum_string(std::span<char> out, int min_len, int max_len) {
  return fill_string(
      *this, "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      out, min_len, max_len);
}

std::size_t Rng::digit_string(std::span<char> out, int min_len, int max_len) {
  return fill_string(*this, "0123456789", out, min_len, max_len);
}

Rng Rng::split() { return Rng{next()}; }

}  // namespace vdb
