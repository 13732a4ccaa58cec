// TPC-C initial population (clause 4.3.3), scaled.
//
// Loads with redo logging disabled (the standard bulk-load practice) and a
// backup is taken immediately afterwards by the benchmark harness, exactly
// as the paper's experimental procedure requires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "tpcc/tpcc_db.hpp"

namespace vdb::tpcc {

struct LoadStats {
  std::uint64_t rows = 0;
  std::uint64_t orders = 0;
  std::uint64_t order_lines = 0;
};

class Loader {
 public:
  Loader(TpccDb* db, std::uint64_t seed) : db_(db), rng_(seed) {}

  /// Populates all nine tables per the spec's cardinalities (scaled).
  Result<LoadStats> load();

  /// Populates items plus only the listed warehouses — a fleet shard holds
  /// a subset of the warehouse range but the full (replicated) catalog.
  /// The access paths are bulk-built once the rows are in.
  Result<LoadStats> load_warehouses(const std::vector<std::uint32_t>& ws);

 private:
  Status load_rows(const std::vector<std::uint32_t>& ws);
  Status load_items(TxnId* txn);
  Status load_warehouse(TxnId txn, std::uint32_t w);
  Status load_stock(TxnId* txn, std::uint32_t w);
  Status load_district(TxnId txn, std::uint32_t w, std::uint32_t d);
  Status load_customers(TxnId txn, std::uint32_t w, std::uint32_t d);
  Status load_orders(TxnId txn, std::uint32_t w, std::uint32_t d);

  /// A zip code (clause 4.3.2.7): four random digits, then "11111".
  void zip(InlineString<9>& field);

  TpccDb* db_;
  Rng rng_;
  LoadStats stats_;
};

}  // namespace vdb::tpcc
