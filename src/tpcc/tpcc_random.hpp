// TPC-C random input generation (clauses 2.1.6, 4.3.2, 4.3.3).
//
// Follows the spec's distributions, with value ranges parameterized by the
// scale (the simulated database is a scaled-down TPC-C; distributions and
// skew constants are unchanged).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/rng.hpp"

namespace vdb::tpcc {

/// Scaled-down TPC-C cardinalities. Ratios between tables follow the spec;
/// absolute counts default far below spec scale so a 20-minute experiment
/// simulates in well under a second of wall time.
struct TpccScale {
  std::uint32_t warehouses = 2;
  std::uint32_t districts_per_warehouse = 10;
  std::uint32_t customers_per_district = 300;   // spec: 3000
  std::uint32_t items = 5000;                   // spec: 100000
  std::uint32_t initial_orders_per_district = 300;  // spec: 3000
};

class TpccRandom {
 public:
  TpccRandom(Rng rng, TpccScale scale) : rng_(std::move(rng)), scale_(scale) {}

  /// C-Last per clause 4.3.2.3: three syllables indexed by a NURand value.
  std::string last_name(std::int64_t num) const;
  std::string random_last_name();

  /// NURand customer id over the scaled range.
  std::uint32_t nurand_customer_id();
  /// NURand item id over the scaled range.
  std::uint32_t nurand_item_id();
  /// NURand last-name selector.
  std::string nurand_last_name();

  std::uint32_t district_id() {
    return static_cast<std::uint32_t>(
        rng_.uniform(1, scale_.districts_per_warehouse));
  }
  std::uint32_t warehouse_id() {
    return static_cast<std::uint32_t>(rng_.uniform(1, scale_.warehouses));
  }

  Rng& rng() { return rng_; }
  const TpccScale& scale() const { return scale_; }

  /// Writes an i_data / s_data value to the front of `out` and returns its
  /// length: alphanumeric, with the "ORIGINAL" marker in 10% of them
  /// (clause 4.3.3.1).
  std::size_t data_string(std::span<char> out, int min_len, int max_len);

 private:
  Rng rng_;
  TpccScale scale_;
  // Per-run NURand C constants (clause 2.1.6.1).
  std::int64_t c_last_ = 123;
  std::int64_t c_id_ = 259;
  std::int64_t c_item_ = 7911;
};

}  // namespace vdb::tpcc
