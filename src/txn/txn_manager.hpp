// Transaction manager: transaction lifecycle, undo bookkeeping, rollback
// segments, and the active-transaction snapshot embedded in checkpoints.
//
// Undo is kept twice, deliberately: in memory for runtime rollback, and in
// the redo stream (before-images in DML records + checkpoint snapshots) for
// crash recovery — the compact stand-in for Oracle's persistent rollback
// segments. Rollback segments here act as the *space accounting* entity:
// a transaction whose undo outgrows its segment aborts with kOutOfSpace,
// which is exactly the observable effect of the paper's "allow a rollback
// segment to run out of space" operator fault.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "wal/log_record.hpp"

namespace vdb::txn {

enum class TxnState : std::uint8_t { kActive, kCommitted, kAborted };

struct RollbackSegmentConfig {
  std::uint32_t count = 8;
  std::uint64_t bytes_each = 4 * 1024 * 1024;
  bool online = true;
};

struct RollbackSegment {
  std::uint32_t index = 0;
  std::uint64_t capacity = 0;
  std::uint64_t used = 0;
  bool online = true;
  std::uint32_t active_txns = 0;
};

struct Transaction {
  TxnId id{};
  TxnState state = TxnState::kActive;
  /// The COMMIT/ABORT record has been appended to the redo stream: the
  /// transaction's fate is decided, so checkpoint snapshots must no longer
  /// list it as active (its end record may even precede the checkpoint
  /// record when a log-switch checkpoint fires inside the commit flush).
  bool end_logged = false;
  /// Ops already successfully compensated (from the tail of `undo`); a
  /// rollback interrupted by a media failure resumes here.
  std::uint32_t compensated = 0;
  std::vector<wal::UndoOp> undo;
  std::uint32_t rollback_segment = 0;
  std::uint64_t undo_bytes = 0;
  Lsn first_lsn = kInvalidLsn;
  Lsn commit_lsn = kInvalidLsn;
  /// 2PC branch state: a prepared transaction's fate belongs to its global
  /// coordinator — it cannot be rolled back unilaterally, and checkpoint
  /// snapshots must carry the prepare so recovery keeps it in doubt.
  bool prepared = false;
  std::uint64_t gtxn = 0;
  std::uint32_t coord_shard = 0;
  Lsn prepare_lsn = kInvalidLsn;
};

class TxnManager {
 public:
  explicit TxnManager(RollbackSegmentConfig cfg = {});

  /// Opens a transaction, binding it to the least-loaded online rollback
  /// segment. Fails when no rollback segment is online.
  Result<TxnId> begin();

  /// Registers one executed operation for potential rollback and returns
  /// the stored op (valid until the transaction records its next op or
  /// ends). Fails with kOutOfSpace when the bound rollback segment is
  /// exhausted (the caller must abort the transaction).
  Result<const wal::UndoOp*> record_op(TxnId txn, wal::UndoOp op);

  /// Marks committed and frees undo space/locks bookkeeping. The engine
  /// writes the commit record; `commit_lsn` is stored for diagnostics.
  Status mark_committed(TxnId txn, Lsn commit_lsn);

  /// Marks aborted (after the engine applied compensations) and frees space.
  Status mark_aborted(TxnId txn);

  Result<Transaction*> get(TxnId txn);
  bool is_active(TxnId txn) const;
  size_t active_count() const { return active_.size(); }

  /// Marks that the transaction's end record is in the redo stream (called
  /// right after appending COMMIT/ABORT, before the flush).
  Status mark_end_logged(TxnId txn);

  /// Marks a branch PREPAREd for global transaction `gtxn` coordinated by
  /// `coord_shard` (called right after appending the kTxnPrepare record).
  Status mark_prepared(TxnId txn, std::uint64_t gtxn,
                       std::uint32_t coord_shard, Lsn prepare_lsn);

  /// Snapshot of every active transaction (end record not yet logged) for a
  /// checkpoint record.
  std::vector<wal::TxnSnapshot> snapshot_active() const;

  /// Operator-fault hooks.
  Status set_segment_offline(std::uint32_t index);
  Status set_segment_online(std::uint32_t index);
  const std::vector<RollbackSegment>& segments() const { return segments_; }

  /// Restores the id counter after recovery (max replayed id + 1).
  void restore_next_id(std::uint64_t next);
  std::uint64_t next_id() const { return next_id_; }

  /// Drops all in-flight state (instance crash).
  void clear();

 private:
  std::uint64_t next_id_ = 1;
  RollbackSegmentConfig cfg_;
  std::vector<RollbackSegment> segments_;
  std::unordered_map<TxnId, Transaction> active_;
};

}  // namespace vdb::txn
