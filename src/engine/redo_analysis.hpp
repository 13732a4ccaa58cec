// Redo analysis: the transaction table a recovery driver rebuilds from the
// redo it replays. Crash restart (instance recovery), standby managed
// recovery and point-in-time recovery note every record they scan in one
// RedoAnalysis; Database::settle_analysis finishes it once their redo is
// applied (losers rolled back, PREPAREd branches kept in doubt). Page
// staging, DDL barriers and clock charges stay with each driver.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "wal/log_record.hpp"

namespace vdb::engine {

struct RedoAnalysis {
  /// A transaction with no end record in the redo noted so far.
  struct Txn {
    /// Its changes in LSN order; the last `clrs` of them are already
    /// compensated.
    std::vector<wal::UndoOp> ops;
    std::uint64_t clrs = 0;
    /// PREPAREd 2PC branch: settled in doubt, never rolled back here.
    bool prepared = false;
    std::uint64_t gtxn = 0;
    std::uint32_t coord_shard = 0;
  };

  /// Notes one record in redo order. Checkpoint, commit/abort, prepare,
  /// coordinator-decision and DML records change the table; every other
  /// record only counts towards the highest transaction id.
  void note(const wal::LogRecord& rec);

  /// In-flight transactions by id (ordered, so undo can run newest first).
  std::map<std::uint64_t, Txn> live;
  /// Transactions whose end record was noted since the last checkpoint, or
  /// that the last checkpoint's snapshot still lists (taken while their end
  /// record was in flight). A later snapshot must never revive one.
  std::set<std::uint64_t> ended;
  /// Coordinator decisions, from checkpoint records and decision records.
  std::map<std::uint64_t, bool> decisions;
  /// Highest transaction id noted.
  std::uint64_t max_txn = 0;
};

}  // namespace vdb::engine
