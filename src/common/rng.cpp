#include "common/rng.hpp"

namespace vdb {
namespace {

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

Rng Rng::split() { return Rng{next()}; }

}  // namespace vdb
