// Online redo log: circular groups, log buffer, LGWR flush, log switches.
//
// Mirrors Oracle's online redo architecture (§2.1 of the paper):
//  - a fixed set of groups used circularly; when the current file fills, the
//    log switches to the next group;
//  - a group may be reused only after (a) the checkpoint position has
//    advanced past its contents and (b) it has been archived (when
//    ARCHIVELOG is on). Otherwise the database stalls — Oracle's
//    "checkpoint not complete / archival required" events — modelled by
//    advancing the virtual clock to the blocking operation's completion;
//  - every switch notifies the engine, which archives the finalized group
//    and takes the log-switch checkpoint (the paper's "# CKPT per
//    experiment" counts exactly these).
//
// LSNs are logical byte offsets in the redo stream, advanced by each
// record's *charged* size (serialized bytes + a configurable per-record
// overhead standing in for the headers/change-vector bloat of real redo).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "obs/observability.hpp"
#include "sim/filesystem.hpp"
#include "wal/log_record.hpp"

namespace vdb::wal {

struct RedoLogConfig {
  std::string dir = "/redo";
  std::uint64_t file_size_bytes = 10 * 1024 * 1024;
  std::uint32_t groups = 3;
  bool archive_mode = false;
  std::string archive_dir = "/arch";
  /// Charged-size padding per record (realistic redo-entry overhead).
  std::uint64_t record_overhead = 256;
  /// Members per group (Oracle redo multiplexing). Every member receives
  /// every write; reads fall back to any intact member, so losing one
  /// member file — the "delete a redo log file" operator fault — costs
  /// nothing as long as a sibling survives. The member directories should
  /// sit on different disks; putting them all on one disk is itself a
  /// catalogued operator fault.
  std::uint32_t members_per_group = 1;
  /// Mount prefix per member (member m uses member_dirs[m], falling back
  /// to `dir` when the list is short).
  std::vector<std::string> member_dirs;
};

struct RedoGroup {
  std::uint32_t index = 0;
  std::uint64_t seq = 0;            // monotonically increasing per use
  Lsn start_lsn = kInvalidLsn;      // first lsn written in this use
  Lsn end_lsn = kInvalidLsn;        // one past the last lsn (set when closed)
  std::uint64_t charged_bytes = 0;
  bool archived = true;             // vacuously true in NOARCHIVELOG
  SimTime archive_done_at = 0;      // background copy completion
  bool current = false;
};

class RedoLog {
 public:
  struct Callbacks {
    /// A group filled and was closed. The engine must archive it (if
    /// ARCHIVELOG) and take the log-switch checkpoint.
    std::function<void(const RedoGroup&)> on_group_finalized;
    /// The next group in rotation still contains un-checkpointed redo; the
    /// engine must complete a full checkpoint before the switch proceeds.
    std::function<void()> force_checkpoint;
  };

  RedoLog(sim::SimFs* fs, RedoLogConfig cfg, Callbacks cb);

  /// Creates the group files for a brand-new database.
  Status create();

  /// Reopens existing group files after an instance crash; restores group
  /// metadata from file headers and contents.
  Status open_existing();

  /// Assigns the record's LSN and buffers it (redo log buffer).
  Lsn append(LogRecord& rec);

  /// LGWR force: writes every buffered record to the current group file
  /// (foreground I/O), switching groups as files fill.
  Status flush();

  /// Guarantees durability up to `lsn` (no-op when already flushed).
  Status flush_to(Lsn lsn);

  /// Commit durability with group-commit semantics: if the commit record at
  /// `commit_lsn` is already durable, or an outer flush is mid-drain and
  /// will carry it, the commit piggybacks on that flush instead of issuing
  /// its own. Otherwise triggers a normal LGWR flush whose batch carries
  /// every co-buffered record — co-arriving commits share one device write.
  Status commit_flush(Lsn commit_lsn);

  /// Operator-initiated log switch (ALTER SYSTEM SWITCH LOGFILE): flushes
  /// the buffer, finalizes the current group — archiving it in ARCHIVELOG
  /// mode — and continues in the next one.
  Status force_switch();

  /// Wires LGWR into a statistics area: redo size/write counters plus the
  /// archive_stall wait event charged when a log switch blocks on the
  /// archiver (measured on `clock`).
  void set_observability(obs::Observability* obs,
                         const sim::VirtualClock* clock);

  /// Instance crash: buffered, unflushed entries disappear.
  void discard_unflushed();

  Lsn next_lsn() const { return next_lsn_; }
  Lsn flushed_lsn() const { return flushed_lsn_; }

  /// The engine reports the recovery position of the latest checkpoint
  /// record; groups entirely below it may be reused.
  void note_recovery_position(Lsn lsn);
  Lsn recovery_position() const { return recovery_position_; }

  Status mark_archived(std::uint32_t index, SimTime done_at);

  /// Oldest LSN still present in the online groups (recovery reaching
  /// further back must use archived logs).
  Lsn oldest_online_lsn() const;

  /// Reads every record with lsn >= from currently retained online, in LSN
  /// order (foreground I/O).
  Status read_online(Lsn from,
                     const std::function<bool(const LogRecord&)>& fn);

  const std::vector<RedoGroup>& groups() const { return groups_; }
  std::uint32_t current_group() const { return current_; }
  const RedoLogConfig& config() const { return cfg_; }

  std::string group_path(std::uint32_t index) const {
    return member_path(index, 0);
  }
  /// Path of one member file of a group.
  std::string member_path(std::uint32_t index, std::uint32_t member) const;
  std::string archive_path(std::uint64_t seq) const;

  /// First member of the group whose file still exists and is readable —
  /// the read path used by recovery and archiving. Fails only when every
  /// member is gone (an unrecoverable operator fault).
  Result<std::string> intact_member(std::uint32_t index) const;

  /// Bytes buffered but not yet flushed (diagnostics).
  std::uint64_t pending_bytes() const;

  /// RESETLOGS after incomplete (point-in-time) recovery or stand-by
  /// activation: every group file is re-initialized empty and the LSN
  /// counter jumps to `next_lsn` (chosen above any LSN of the previous
  /// incarnation so old archives can never be confused with new redo).
  Status resetlogs(Lsn next_lsn);

 private:
  /// One buffered record: a slice of the shared pending arena. Records are
  /// framed back-to-back into `pending_buf_`, so any run of consecutive
  /// entries is one contiguous span — LGWR writes a whole batch without
  /// copying it into a staging buffer first.
  struct Pending {
    std::uint64_t offset;  // into pending_buf_
    std::uint32_t len;     // framed bytes at offset
    Lsn lsn;
    std::uint64_t charged;
  };

  Status write_group_header(std::uint32_t index);
  Status switch_group();
  /// Applies `fn` to every member path; succeeds if at least one member
  /// write succeeded (a lost member degrades redundancy, not service).
  Status for_each_member(std::uint32_t index,
                         const std::function<Status(const std::string&)>& fn);

  sim::SimFs* fs_;
  RedoLogConfig cfg_;
  Callbacks cb_;

  std::vector<RedoGroup> groups_;
  std::uint32_t current_ = 0;
  std::uint64_t next_seq_ = 1;
  Lsn next_lsn_ = 1;  // 0 is reserved as "before everything"
  Lsn flushed_lsn_ = 0;
  Lsn recovery_position_ = 0;
  bool flushing_ = false;
  /// Flat arena holding every buffered record's framed bytes; entries in
  /// `pending_` index into it. Compacted (cleared, capacity kept) only when
  /// fully drained so offsets of records appended mid-flush by checkpoint
  /// callbacks stay valid. Steady state performs zero allocations.
  std::vector<std::uint8_t> pending_buf_;
  std::vector<Pending> pending_;
  std::size_t pending_head_ = 0;  // first unflushed entry in pending_

  obs::WaitEventTable* waits_ = nullptr;
  const sim::VirtualClock* obs_clock_ = nullptr;
  obs::Counter* redo_bytes_counter_ = nullptr;
  obs::Counter* redo_writes_counter_ = nullptr;
  obs::Counter* log_switches_counter_ = nullptr;
};

}  // namespace vdb::wal
