// Recovery manager: Oracle-style complete and incomplete recovery built on
// backups plus the archived + online redo stream.
//
// The recovery procedures here are the ones the paper's faultload triggers
// (crash restart — Shutdown abort — is Database::startup's instance
// recovery):
//  - datafile media recovery (restore + roll)   — Delete datafile
//  - offline-datafile roll-forward              — Set datafile offline
//  - tablespace online                          — Set tablespace offline
//  - point-in-time (incomplete) recovery        — Delete tablespace /
//                                                 Delete user's object
// Complete recovery loses nothing; incomplete recovery stops just before
// the offending DDL record and loses every transaction committed after
// that point — exactly the paper's complete/incomplete split (Tables 4-5).
// Like a RESETLOGS open, it also rolls back what had not committed at the
// stop point (the RedoAnalysis of its replay, settled by the database).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "common/types.hpp"
#include "engine/database.hpp"
#include "recovery/backup.hpp"
#include "sim/host.hpp"
#include "sim/scheduler.hpp"
#include "wal/log_record.hpp"

namespace vdb::recovery {

struct RecoveryReport {
  /// Database state is current up to this LSN after recovery; committed
  /// transactions whose commit record lies above it are lost.
  Lsn recovered_to = 0;
  bool complete = true;
  std::uint64_t records_applied = 0;
  /// Records whose apply failed against an offline/missing file (their
  /// files are recovered separately).
  std::uint64_t records_skipped = 0;
  std::uint64_t archives_read = 0;
  std::uint64_t files_restored = 0;
  /// Single blocks repaired by online block media recovery.
  std::uint64_t blocks_restored = 0;
};

class RecoveryManager {
 public:
  RecoveryManager(sim::Host* host, sim::Scheduler* scheduler,
                  BackupManager* backups)
      : host_(host), scheduler_(scheduler), backups_(backups) {}

  /// Complete media recovery of a deleted/corrupted datafile on an open
  /// instance: restore from backup, roll forward from the backup LSN using
  /// archived + online redo, bring online. Fails with kUnrecoverable when
  /// the redo chain has a gap (e.g. NOARCHIVELOG and the online logs have
  /// wrapped since the backup).
  Result<RecoveryReport> recover_datafile(engine::Database& db, FileId id);

  /// Rolls an offline datafile forward from its recover_from position and
  /// brings it online (no restore needed).
  Result<RecoveryReport> recover_datafile_online(engine::Database& db,
                                                 FileId id);

  /// Online block media recovery (RMAN BLOCKRECOVER analogue): restores one
  /// confirmed-corrupt block from the newest backup and rolls just that
  /// block forward through archived + online redo. The datafile stays
  /// online throughout — other transactions keep committing. Also usable
  /// from the post-recovery startup hook to repair torn writes before the
  /// rebuild scan.
  Result<RecoveryReport> recover_block(engine::Database& db, PageId pid);

  /// Point-in-time (incomplete) recovery: restore every datafile from the
  /// newest backup, replay archived + online redo and stop immediately
  /// before the first record matching `stop_before`, then RESETLOGS, roll
  /// back what had not committed at that point, and open. Returns the new
  /// instance.
  struct PitResult {
    std::unique_ptr<engine::Database> db;
    RecoveryReport report;
  };
  Result<PitResult> point_in_time_recover(
      const engine::DatabaseConfig& cfg,
      const std::function<bool(const wal::LogRecord&)>& stop_before,
      const std::function<void(engine::Database&)>& pre_open = {});

  /// Last resort when no redo chain exists: restore the backup and open
  /// with RESETLOGS, losing everything since the backup.
  Result<PitResult> restore_to_backup(
      const engine::DatabaseConfig& cfg,
      const std::function<void(engine::Database&)>& pre_open = {});

 private:
  /// Applies records with lsn >= from, in order, from archives then online
  /// groups. `should_apply` filters (nullptr = apply everything);
  /// `stop_before` ends the replay without applying the matching record
  /// (nullptr = never stop). Detects redo-chain gaps via group sequence
  /// continuity. `analysis`, when given, notes every record from `from` up
  /// to the stop point (point-in-time recovery; media and block recovery
  /// rebuild no transaction table).
  Result<RecoveryReport> replay_from(
      engine::Database& db, Lsn from,
      const std::function<bool(const wal::LogRecord&)>& should_apply,
      const std::function<bool(const wal::LogRecord&)>& stop_before,
      engine::RedoAnalysis* analysis = nullptr);

  sim::Host* host_;
  sim::Scheduler* scheduler_;
  BackupManager* backups_;
};

/// Filter: records that touch one datafile (page formats + row changes).
std::function<bool(const wal::LogRecord&)> file_filter(FileId id);

/// Filter: records that touch one page (its format + its row changes).
std::function<bool(const wal::LogRecord&)> page_filter(PageId id);

/// Stop predicates for the paper's incomplete-recovery faults.
std::function<bool(const wal::LogRecord&)> stop_before_drop_table(
    const std::string& name);
std::function<bool(const wal::LogRecord&)> stop_before_drop_tablespace(
    const std::string& name);

}  // namespace vdb::recovery
