// Deterministic pseudo-random number generation.
//
// Every random decision in the simulator and the TPC-C driver flows from a
// seeded Rng so that experiments are exactly repeatable — a methodological
// requirement of the benchmark (the paper injects faults at fixed instants
// precisely to make runs reproducible).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/status.hpp"

namespace vdb {

/// xoshiro256** — fast, high-quality, deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next() {
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

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi. Inline, so
  /// a caller's constant bounds fold the range and its rejection limit
  /// into constants and the two 64-bit divisions into multiplies.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    VDB_CHECK(lo <= hi);
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<std::int64_t>(next());  // full range
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit =
        ~std::uint64_t{0} - (~std::uint64_t{0} % range);
    std::uint64_t v;
    do {
      v = next();
    } while (v >= limit);
    return lo + static_cast<std::int64_t>(v % range);
  }

  /// Uniform double in [0, 1).
  double uniform01();

  /// True with probability p (clamped to [0,1]).
  bool chance(double p);

  /// TPC-C NURand(A, x, y) non-uniform distribution (clause 2.1.6).
  std::int64_t nurand(std::int64_t a, std::int64_t x, std::int64_t y,
                      std::int64_t c);

  /// Writes a random alphanumeric string, its length uniform in
  /// [min_len, max_len], to the front of `out` (at least max_len chars)
  /// and returns the length.
  std::size_t alnum_string(std::span<char> out, int min_len, int max_len) {
    return fill_string(
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789", out,
        min_len, max_len);
  }

  /// Same for a random numeric string.
  std::size_t digit_string(std::span<char> out, int min_len, int max_len) {
    return fill_string("0123456789", out, min_len, max_len);
  }

  /// Splits off an independent stream (for per-terminal generators).
  Rng split();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Draws a length uniform in [min_len, max_len], then that many
  /// characters of `alphabet`, each uniform(0, N - 2) as an index: the
  /// same draws and rejections as one uniform() call per character, with
  /// the range and its rejection limit fixed at compile time.
  template <std::size_t N>
  std::size_t fill_string(const char (&alphabet)[N], std::span<char> out,
                          int min_len, int max_len) {
    constexpr std::uint64_t kRange = N - 1;  // without the terminating NUL
    constexpr std::uint64_t kLimit =
        ~std::uint64_t{0} - (~std::uint64_t{0} % kRange);
    const auto len = static_cast<std::size_t>(uniform(min_len, max_len));
    VDB_CHECK_MSG(len <= out.size(), "string longer than its buffer");
    for (std::size_t i = 0; i < len; ++i) {
      std::uint64_t v;
      do {
        v = next();
      } while (v >= kLimit);
      out[i] = alphabet[v % kRange];
    }
    return len;
  }

  std::uint64_t s_[4];
};

}  // namespace vdb
