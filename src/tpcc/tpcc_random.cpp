#include "tpcc/tpcc_random.hpp"

#include <cstring>

namespace vdb::tpcc {

namespace {
constexpr const char* kSyllables[] = {"BAR",   "OUGHT", "ABLE", "PRI",
                                      "PRES",  "ESE",   "ANTI", "CALLY",
                                      "ATION", "EING"};
}

std::string TpccRandom::last_name(std::int64_t num) const {
  std::string out;
  out += kSyllables[(num / 100) % 10];
  out += kSyllables[(num / 10) % 10];
  out += kSyllables[num % 10];
  return out;
}

std::string TpccRandom::random_last_name() {
  return last_name(rng_.uniform(0, 999));
}

std::uint32_t TpccRandom::nurand_customer_id() {
  return static_cast<std::uint32_t>(
      rng_.nurand(1023, 1, scale_.customers_per_district, c_id_));
}

std::uint32_t TpccRandom::nurand_item_id() {
  return static_cast<std::uint32_t>(
      rng_.nurand(8191, 1, scale_.items, c_item_));
}

std::string TpccRandom::nurand_last_name() {
  return last_name(rng_.nurand(255, 0, 999, c_last_));
}

std::size_t TpccRandom::data_string(std::span<char> out, int min_len,
                                     int max_len) {
  const std::size_t len = rng_.alnum_string(out, min_len, max_len);
  if (rng_.chance(0.10) && len >= 8) {
    const auto pos = static_cast<size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(len) - 8));
    std::memcpy(out.data() + pos, "ORIGINAL", 8);
  }
  return len;
}

}  // namespace vdb::tpcc
