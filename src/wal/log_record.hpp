// Redo log records.
//
// The redo stream is the database's single source of recovery truth:
// physical-logical DML records (with before- and after-images), page format
// records, DDL markers, transaction end markers, and checkpoint records
// carrying the active-transaction undo snapshot. Records are CRC-protected
// and self-delimiting so a reader can detect a torn tail.
//
// Incomplete (point-in-time) recovery — the paper's "delete tablespace" and
// "delete user's object" faults — works by replaying this stream and
// stopping just before the offending DDL record.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace vdb::wal {

enum class LogRecordType : std::uint8_t {
  kInsert = 1,
  kUpdate = 2,
  kDelete = 3,
  kFormatPage = 4,
  kCommit = 5,
  kAbort = 6,
  kCheckpoint = 7,
  kCreateTable = 8,
  kDropTable = 9,
  kDropTablespace = 10,
  // Two-phase commit (presumed abort). A PREPARE makes a branch's fate
  // externally decided: recovery must keep it in doubt instead of rolling
  // it back as a loser. The coordinator's decision is durable only as a
  // kCoordCommit record (abort is presumed when no decision survives).
  kTxnPrepare = 11,
  kCoordCommit = 12,
  kCoordAbort = 13,
};

const char* to_string(LogRecordType t);

/// True for the catalog and tablespace records (create/drop table, drop
/// tablespace): serial barriers for every replay driver.
bool is_ddl(LogRecordType t);

/// One row-level change: enough to redo (after) and to undo (before).
struct DmlChange {
  TableId table{};
  RowId rid{};
  std::vector<std::uint8_t> before;  // empty for inserts
  std::vector<std::uint8_t> after;   // empty for deletes
};

/// A DML op as remembered for undo, stamped with the LSN of its redo record
/// (used to deduplicate checkpoint snapshots against replayed records).
struct UndoOp {
  Lsn lsn = kInvalidLsn;
  LogRecordType op = LogRecordType::kInsert;
  DmlChange change;
};

/// Snapshot of one in-flight transaction embedded in a checkpoint record.
struct TxnSnapshot {
  TxnId txn{};
  std::vector<UndoOp> ops;
  /// 2PC branch state: a prepared branch must survive recovery in doubt.
  bool prepared = false;
  std::uint64_t gtxn = 0;
  std::uint32_t coord_shard = 0;
};

/// Coordinator decision remembered across checkpoints: until every
/// participant acknowledged, the outcome of a global transaction must be
/// reconstructible from the redo stream alone.
struct CoordDecision {
  std::uint64_t gtxn = 0;
  bool commit = false;
};

struct LogRecord {
  LogRecordType type = LogRecordType::kCommit;
  TxnId txn{};
  Lsn lsn = kInvalidLsn;  // assigned by RedoLog::append

  /// True for compensation records written while rolling back; recovery
  /// counts them to know how much undo already happened.
  bool is_clr = false;

  // kInsert / kUpdate / kDelete
  DmlChange dml;

  // kFormatPage
  PageId page{PageId::invalid()};
  TableId format_owner{};
  std::uint16_t slot_size = 0;

  // kCreateTable / kDropTable / kDropTablespace
  std::string name;
  TableId table_id{};
  TablespaceId tablespace_id{};
  UserId owner_user{};
  std::uint16_t ddl_slot_size = 0;

  // kTxnPrepare / kCoordCommit / kCoordAbort
  /// Global transaction id (fleet-unique) and the coordinator shard that
  /// owns the commit decision for it.
  std::uint64_t gtxn = 0;
  std::uint32_t coord_shard = 0;

  // kCheckpoint
  /// Replay may start here: every change below this LSN is on disk.
  Lsn recovery_start_lsn = kInvalidLsn;
  std::vector<TxnSnapshot> active_txns;
  /// Undropped coordinator decisions (2PC outcomes not yet acknowledged by
  /// every participant when the checkpoint was taken).
  std::vector<CoordDecision> coord_decisions;

  void encode(Encoder& enc) const;
  static Result<LogRecord> decode(Decoder& dec);

  /// Allocation-light decode: overwrites `out` in place, reusing the
  /// capacity of its vectors and strings. The steady-state replay path —
  /// millions of records per experiment — decodes through here with zero
  /// heap traffic once the scratch record's buffers have warmed up.
  static Status decode_into(Decoder& dec, LogRecord* out);

  /// Serialized size plus the fixed framing overhead.
  std::uint64_t serialized_size() const;
};

/// Framing: [u32 len][u32 crc][payload]. Returns bytes appended. Encodes
/// directly into `out` (header patched back after the payload lands), so
/// appending to a pre-sized arena performs no temporary allocation.
std::uint64_t frame_record(const LogRecord& rec,
                           std::vector<std::uint8_t>* out);

/// Parses every intact record from a log file body, stopping silently at a
/// torn tail. `fn` returns false to stop early.
///
/// The LogRecord passed to `fn` is a scratch object reused across
/// invocations: callers must copy any field they retain past the callback
/// (every in-tree caller already copies into its own bookkeeping).
Status parse_records(std::span<const std::uint8_t> data,
                     const std::function<bool(const LogRecord&)>& fn);

/// As above, additionally reporting each record's framed size in bytes
/// (header + payload, before charged overhead) so callers can account for
/// log-space consumption without re-encoding the record.
Status parse_records(
    std::span<const std::uint8_t> data,
    const std::function<bool(const LogRecord&, std::uint64_t)>& fn);

}  // namespace vdb::wal
