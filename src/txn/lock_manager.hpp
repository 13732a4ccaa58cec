// Two-phase-locking lock manager with row and table granularity.
//
// Conflict resolution is wait-die flavoured but non-blocking: the simulator
// executes transactions one at a time, so a conflicting request means a
// still-open transaction holds the resource; younger requesters are told to
// die (kDeadlock), older ones get kLockTimeout and retry at the driver
// level. Locks are all released at transaction end (strict 2PL).
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace vdb::txn {

enum class LockMode : std::uint8_t { kShared, kExclusive };

/// Lockable resource: a whole table or one row.
struct LockTarget {
  TableId table{};
  RowId rid{RowId::invalid()};
  bool whole_table = false;

  static LockTarget for_table(TableId t) { return {t, RowId::invalid(), true}; }
  static LockTarget for_row(TableId t, RowId r) { return {t, r, false}; }

  auto operator<=>(const LockTarget&) const = default;
};

class LockManager {
 public:
  /// Grants or refuses immediately. Re-acquisition and shared→exclusive
  /// upgrade by the sole holder are allowed.
  Status acquire(TxnId txn, const LockTarget& target, LockMode mode);

  void release_all(TxnId txn);

  /// Number of resources currently locked (diagnostics / tests).
  size_t locked_count() const { return table_.size(); }
  bool holds(TxnId txn, const LockTarget& target, LockMode mode) const;

 private:
  struct Entry {
    LockMode mode;
    std::vector<TxnId> holders;
  };

  std::map<LockTarget, Entry> table_;
  std::unordered_map<TxnId, std::vector<LockTarget>> by_txn_;
};

}  // namespace vdb::txn
