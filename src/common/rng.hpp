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
  std::uint64_t next();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

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
  std::size_t alnum_string(std::span<char> out, int min_len, int max_len);

  /// Same for a random numeric string.
  std::size_t digit_string(std::span<char> out, int min_len, int max_len);

  /// Splits off an independent stream (for per-terminal generators).
  Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace vdb
