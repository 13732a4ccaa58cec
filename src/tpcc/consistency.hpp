// TPC-C consistency conditions (clause 3.3.2) — the benchmark's
// data-integrity measure.
//
// These checks run on the *actual recovered data* after every experiment;
// a violation means a real redo/undo/recovery defect, which is exactly what
// the paper's "data integrity violations" measure reports (its headline
// finding: none of the injected operator faults caused one).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "tpcc/tpcc_db.hpp"

namespace vdb::tpcc {

struct ConsistencyReport {
  std::uint32_t checks_run = 0;
  std::uint32_t violations = 0;
  std::vector<std::string> messages;  // first few violations, for diagnosis

  bool ok() const { return violations == 0; }
};

class ConsistencyChecker {
 public:
  explicit ConsistencyChecker(TpccDb* db) : db_(db) {}

  /// Runs every implemented condition over full table scans.
  Result<ConsistencyReport> run_all();
  /// The conditions a database holding only some warehouses (a fleet
  /// shard) satisfies on its own: every condition but the warehouse
  /// history, whose payments may live on another shard.
  Status run_local(ConsistencyReport* report);

  // Individual conditions (spec numbering):
  Status check_warehouse_ytd(ConsistencyReport* report);      // 1
  Status check_order_id_monotony(ConsistencyReport* report);  // 2
  Status check_new_order_contiguity(ConsistencyReport* r);    // 3
  Status check_order_line_counts(ConsistencyReport* report);  // 4
  Status check_delivery_flags(ConsistencyReport* report);     // 5 (NO ↔ carrier)
  Status check_customer_balance(ConsistencyReport* report);   // money flow
  Status check_warehouse_history(ConsistencyReport* report);  // money flow

  /// The warehouse-history condition over databases that between them hold
  /// every warehouse and its whole payment history (a fleet's shards): each
  /// W_YTD against the history rows of all of them.
  static Status check_warehouse_history_across(
      const std::vector<TpccDb*>& dbs, ConsistencyReport* report);

 private:
  static void violation(ConsistencyReport* report, std::string message);

  TpccDb* db_;
};

}  // namespace vdb::tpcc
