#include <gtest/gtest.h>

#include "recovery/backup.hpp"
#include "recovery/recovery_manager.hpp"
#include "tests/test_env.hpp"

namespace vdb::recovery {
namespace {

using testing::SimEnv;
using testing::SmallDb;
using testing::all_rows;
using testing::put_row;
using testing::row;
using testing::small_db_config;

class RecoveryTest : public ::testing::Test {
 protected:
  SimEnv env_;
  engine::DatabaseConfig cfg_ = small_db_config(/*archive=*/true);
  std::unique_ptr<SmallDb> db_;
  std::unique_ptr<BackupManager> backups_;
  std::unique_ptr<RecoveryManager> rm_;

  void SetUp() override {
    db_ = std::make_unique<SmallDb>(env_, cfg_);
    backups_ = std::make_unique<BackupManager>(&env_.host.fs(), "/backup");
    rm_ = std::make_unique<RecoveryManager>(&env_.host, &env_.sched,
                                            backups_.get());
  }

  engine::Database& db() { return *db_->db; }
  TableId table() { return db_->table; }
};

TEST_F(RecoveryTest, BackupCreatesCopies) {
  put_row(db(), table(), "before-backup");
  auto set = backups_->take_backup(db());
  ASSERT_TRUE(set.is_ok());
  auto newest = backups_->newest();
  ASSERT_TRUE(newest.has_value());
  EXPECT_GT(newest->backup_lsn, 0u);
  ASSERT_EQ(newest->files.size(), 1u);
  EXPECT_TRUE(env_.host.fs().exists(newest->files[0].backup_path));
}

TEST_F(RecoveryTest, BackupCatalogPersists) {
  ASSERT_TRUE(backups_->take_backup(db()).is_ok());
  BackupManager fresh(&env_.host.fs(), "/backup");
  ASSERT_TRUE(fresh.load_catalog().is_ok());
  ASSERT_TRUE(fresh.newest().has_value());
  EXPECT_EQ(fresh.newest()->backup_lsn, backups_->newest()->backup_lsn);
}

TEST_F(RecoveryTest, MediaRecoveryAfterDeletedDatafile) {
  put_row(db(), table(), "pre-backup");
  ASSERT_TRUE(backups_->take_backup(db()).is_ok());
  for (int i = 0; i < 200; ++i) {
    put_row(db(), table(), "post" + std::to_string(i));
  }

  // The operator fault: rm the datafile.
  ASSERT_TRUE(env_.host.fs().remove("/data/users01.dbf").is_ok());
  db().storage().cache().discard_all();
  auto txn = db().begin();
  ASSERT_TRUE(txn.is_ok());
  RowId any{PageId{FileId{0}, 0}, 0};
  EXPECT_FALSE(testing::read_str(db(), txn.value(), table(), any).is_ok());
  ASSERT_TRUE(db().rollback(txn.value()).is_ok());

  auto report = rm_->recover_datafile(db(), FileId{0});
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().complete);
  EXPECT_EQ(report.value().files_restored, 1u);

  // Everything committed before the fault is back.
  const auto rows = all_rows(db(), table());
  EXPECT_EQ(rows.size(), 201u);
}

TEST_F(RecoveryTest, MediaRecoveryWithoutArchivesFailsAfterWrap) {
  // NOARCHIVELOG database: once the online logs wrap past the backup, a
  // deleted datafile is unrecoverable by media recovery (paper §5.1).
  SimEnv env2;
  engine::DatabaseConfig cfg = small_db_config(/*archive=*/false);
  cfg.redo.file_size_bytes = 64 * 1024;  // wrap quickly
  SmallDb small(env2, cfg);
  BackupManager backups(&env2.host.fs(), "/backup");
  RecoveryManager rm(&env2.host, &env2.sched, &backups);

  ASSERT_TRUE(backups.take_backup(*small.db).is_ok());
  // Generate enough redo to wrap all three 64 KiB groups.
  for (int i = 0; i < 2000; ++i) {
    put_row(*small.db, small.table, std::string(50, 'x'));
  }
  ASSERT_TRUE(env2.host.fs().remove("/data/users01.dbf").is_ok());
  small.db->storage().cache().discard_all();
  small.db->storage().mark_missing(FileId{0});

  auto report = rm.recover_datafile(*small.db, FileId{0});
  EXPECT_EQ(report.code(), ErrorCode::kUnrecoverable);
}

TEST_F(RecoveryTest, OfflineDatafileRollForward) {
  ASSERT_TRUE(backups_->take_backup(db()).is_ok());
  const RowId rid = put_row(db(), table(), "will-survive");
  ASSERT_TRUE(db().alter_datafile_offline(FileId{0}).is_ok());

  auto report = rm_->recover_datafile_online(db(), FileId{0});
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  auto txn = db().begin();
  auto back = testing::read_str(db(), txn.value(), table(), rid);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), "will-survive");
  ASSERT_TRUE(db().commit(txn.value()).is_ok());
}

TEST_F(RecoveryTest, PointInTimeRecoveryStopsBeforeDrop) {
  ASSERT_TRUE(backups_->take_backup(db()).is_ok());
  for (int i = 0; i < 50; ++i) put_row(db(), table(), "pre" + std::to_string(i));

  // The operator fault: DROP TABLE.
  ASSERT_TRUE(db().drop_table("accounts").is_ok());
  // A little more activity afterwards (other tables would carry on; here
  // nothing else exists, so just crash).
  ASSERT_TRUE(db().shutdown_abort().is_ok());

  auto pit = rm_->point_in_time_recover(
      cfg_, stop_before_drop_table("accounts"));
  ASSERT_TRUE(pit.is_ok()) << pit.status().to_string();
  EXPECT_FALSE(pit.value().report.complete);

  auto table_id = pit.value().db->table_id("accounts");
  ASSERT_TRUE(table_id.is_ok());  // the table exists again!
  const auto rows = all_rows(*pit.value().db, table_id.value());
  EXPECT_EQ(rows.size(), 50u);
}

TEST_F(RecoveryTest, PointInTimeLosesCommitsAfterStopPoint) {
  ASSERT_TRUE(backups_->take_backup(db()).is_ok());
  put_row(db(), table(), "kept");
  ASSERT_TRUE(db().drop_table("accounts").is_ok());
  // Transactions committed after the drop (to other objects) are lost by
  // the point-in-time choice. Here: a second table.
  auto t2 = db().create_table("audit", "USERS", 64, db_->user);
  ASSERT_TRUE(t2.is_ok());
  put_row(db(), t2.value(), "lost");
  ASSERT_TRUE(db().shutdown_abort().is_ok());

  auto pit = rm_->point_in_time_recover(
      cfg_, stop_before_drop_table("accounts"));
  ASSERT_TRUE(pit.is_ok());
  EXPECT_TRUE(pit.value().db->table_id("accounts").is_ok());
  EXPECT_FALSE(pit.value().db->table_id("audit").is_ok());  // lost with tail
}

// Crashes with one committed row and one uncommitted row in `accounts`,
// both below the stop point: a DROP of a second table. Returns the id of
// the uncommitted transaction, the highest id in the redo.
TxnId crash_with_uncommitted_row_before_drop(engine::Database& db,
                                             TableId table, UserId user) {
  put_row(db, table, "committed");
  auto open = db.begin();
  VDB_CHECK(open.is_ok());
  VDB_CHECK(db.insert(open.value(), table, row("uncommitted")).is_ok());
  VDB_CHECK(db.create_table("audit", "USERS", 64, user).is_ok());
  VDB_CHECK(db.drop_table("audit").is_ok());  // flushes the insert too
  VDB_CHECK(db.shutdown_abort().is_ok());
  return open.value();
}

TEST_F(RecoveryTest, PointInTimeRollsBackUncommittedWork) {
  ASSERT_TRUE(backups_->take_backup(db()).is_ok());
  crash_with_uncommitted_row_before_drop(db(), table(), db_->user);

  auto pit = rm_->point_in_time_recover(cfg_, stop_before_drop_table("audit"));
  ASSERT_TRUE(pit.is_ok()) << pit.status().to_string();
  engine::Database& recovered = *pit.value().db;
  const auto rows = all_rows(recovered, recovered.table_id("accounts").value());
  EXPECT_EQ(rows, (std::vector<std::string>{"committed"}));
  EXPECT_EQ(recovered.txns().active_count(), 0u);
}

TEST_F(RecoveryTest, PointInTimeKeepsTxnIdsAboveReplayedOnes) {
  ASSERT_TRUE(backups_->take_backup(db()).is_ok());
  const TxnId highest =
      crash_with_uncommitted_row_before_drop(db(), table(), db_->user);

  auto pit = rm_->point_in_time_recover(cfg_, stop_before_drop_table("audit"));
  ASSERT_TRUE(pit.is_ok()) << pit.status().to_string();
  auto next = pit.value().db->begin();
  ASSERT_TRUE(next.is_ok());
  EXPECT_GT(next.value().value, highest.value);
}

TEST_F(RecoveryTest, RestoreToBackupLosesEverythingSince) {
  put_row(db(), table(), "in-backup");
  ASSERT_TRUE(backups_->take_backup(db()).is_ok());
  const Lsn backup_lsn = backups_->newest()->backup_lsn;
  for (int i = 0; i < 20; ++i) put_row(db(), table(), "lost");
  ASSERT_TRUE(db().shutdown_abort().is_ok());

  auto pit = rm_->restore_to_backup(cfg_);
  ASSERT_TRUE(pit.is_ok());
  EXPECT_LE(pit.value().report.recovered_to, backup_lsn);
  const auto rows =
      all_rows(*pit.value().db, pit.value().db->table_id("accounts").value());
  EXPECT_EQ(rows, (std::vector<std::string>{"in-backup"}));
}

TEST_F(RecoveryTest, RestartInstanceRunsCrashRecovery) {
  put_row(db(), table(), "survives");
  ASSERT_TRUE(db().shutdown_abort().is_ok());
  auto fresh =
      std::make_unique<engine::Database>(&env_.host, &env_.sched, cfg_);
  ASSERT_TRUE(fresh->startup().is_ok());
  EXPECT_TRUE(fresh->is_open());
  const auto rows = all_rows(*fresh, fresh->table_id("accounts").value());
  EXPECT_EQ(rows, (std::vector<std::string>{"survives"}));
}

TEST_F(RecoveryTest, DestroyedBackupsAreUnrecoverable) {
  ASSERT_TRUE(backups_->take_backup(db()).is_ok());
  ASSERT_TRUE(backups_->destroy_backups().is_ok());
  ASSERT_TRUE(env_.host.fs().remove("/data/users01.dbf").is_ok());
  db().storage().cache().discard_all();
  db().storage().mark_missing(FileId{0});
  EXPECT_EQ(rm_->recover_datafile(db(), FileId{0}).code(),
            ErrorCode::kUnrecoverable);
}

TEST_F(RecoveryTest, InDoubtTransactionResolvedAfterMediaRecovery) {
  ASSERT_TRUE(backups_->take_backup(db()).is_ok());
  const RowId victim = put_row(db(), table(), "original");

  // A transaction updates the row, then the datafile vanishes mid-life;
  // its rollback cannot complete.
  auto txn = db().begin();
  ASSERT_TRUE(txn.is_ok());
  ASSERT_TRUE(db().update(txn.value(), table(), victim, row("dirty")).is_ok());
  ASSERT_TRUE(env_.host.fs().remove("/data/users01.dbf").is_ok());
  db().storage().cache().discard_all();
  db().storage().mark_missing(FileId{0});
  EXPECT_FALSE(db().rollback(txn.value()).is_ok());
  EXPECT_EQ(db().txns().active_count(), 1u);  // in doubt

  auto report = rm_->recover_datafile(db(), FileId{0});
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(db().txns().active_count(), 0u);  // resolved

  auto check = db().begin();
  auto back = testing::read_str(db(), check.value(), table(), victim);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), "original");  // rolled back
  ASSERT_TRUE(db().commit(check.value()).is_ok());
}

}  // namespace
}  // namespace vdb::recovery
