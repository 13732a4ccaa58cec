// Extended-faultload tests, including the paper's proposed two-fault
// experiments: a latent fault against a recovery mechanism followed by a
// benchmark fault that needs that mechanism.
#include <gtest/gtest.h>

#include "faults/extended_faults.hpp"
#include "faults/fault_injector.hpp"
#include "recovery/recovery_manager.hpp"
#include "tests/test_env.hpp"
#include "wal/redo_log.hpp"

namespace vdb::faults {
namespace {

using testing::SimEnv;
using testing::SmallDb;
using testing::put_row;
using testing::read_str;
using testing::small_db_config;

class ExtendedFaultTest : public ::testing::Test {
 protected:
  SimEnv env_;
  engine::DatabaseConfig cfg_ = small_db_config(/*archive=*/true);
  std::unique_ptr<SmallDb> db_;
  std::unique_ptr<recovery::BackupManager> backups_;
  std::unique_ptr<recovery::RecoveryManager> rm_;
  std::unique_ptr<ExtendedFaultInjector> injector_;

  void SetUp() override {
    cfg_.redo.file_size_bytes = 64 * 1024;  // archive quickly
    db_ = std::make_unique<SmallDb>(env_, cfg_);
    backups_ =
        std::make_unique<recovery::BackupManager>(&env_.host.fs(), "/backup");
    rm_ = std::make_unique<recovery::RecoveryManager>(&env_.host, &env_.sched,
                                                      backups_.get());
    injector_ = std::make_unique<ExtendedFaultInjector>(backups_.get());
  }

  void workload(int rows) {
    for (int i = 0; i < rows; ++i) {
      put_row(*db_->db, db_->table, std::string(50, 'w'));
    }
  }

  ExtendedFaultSpec spec(ExtendedFaultType type) {
    ExtendedFaultSpec s;
    s.type = type;
    s.tablespace = "USERS";
    return s;
  }
};

TEST_F(ExtendedFaultTest, LatentClassification) {
  EXPECT_TRUE(is_latent(ExtendedFaultType::kDeleteArchiveLog));
  EXPECT_TRUE(is_latent(ExtendedFaultType::kDestroyBackups));
  EXPECT_TRUE(is_latent(ExtendedFaultType::kCorruptControlFile));
  EXPECT_FALSE(is_latent(ExtendedFaultType::kTablespaceOutOfSpace));
  EXPECT_FALSE(is_latent(ExtendedFaultType::kKillUserSession));
}

TEST_F(ExtendedFaultTest, CorruptDatafileSurfacesAsChecksumFailure) {
  const RowId rid = put_row(*db_->db, db_->table, "x");
  ASSERT_TRUE(db_->db->checkpoint_now().is_ok());
  db_->db->storage().cache().discard_all();
  ASSERT_TRUE(
      injector_->inject(*db_->db, spec(ExtendedFaultType::kCorruptDatafile))
          .is_ok());
  auto txn = db_->db->begin();
  EXPECT_EQ(read_str(*db_->db, txn.value(), db_->table, rid).code(),
            ErrorCode::kCorruption);
  ASSERT_TRUE(db_->db->rollback(txn.value()).is_ok());
}

TEST_F(ExtendedFaultTest, TablespaceOutOfSpaceBlocksGrowth) {
  ASSERT_TRUE(
      injector_->inject(*db_->db, spec(ExtendedFaultType::kTablespaceOutOfSpace))
          .is_ok());
  // Existing pages fill, then allocation fails with kOutOfSpace.
  Status last = Status::ok();
  for (int i = 0; i < 9000 && last.is_ok(); ++i) {
    auto txn = db_->db->begin();
    auto rid =
        db_->db->insert(txn.value(), db_->table, testing::row("zzzz"));
    if (rid.is_ok()) {
      last = db_->db->commit(txn.value()).status();
    } else {
      last = rid.status();
      ASSERT_TRUE(db_->db->rollback(txn.value()).is_ok());
    }
  }
  EXPECT_EQ(last.code(), ErrorCode::kOutOfSpace);
  // Recovery: the DBA raises the quota.
  ASSERT_TRUE(db_->db->alter_tablespace_quota("USERS", 0).is_ok());
  put_row(*db_->db, db_->table, "room again");
}

TEST_F(ExtendedFaultTest, AllRollbackSegmentsOfflineBlocksTxns) {
  const auto segments = db_->db->txns().segments().size();
  for (std::uint32_t i = 0; i < segments; ++i) {
    ExtendedFaultSpec s = spec(ExtendedFaultType::kRollbackSegmentOffline);
    s.rollback_segment = i;
    ASSERT_TRUE(injector_->inject(*db_->db, s).is_ok());
  }
  EXPECT_EQ(db_->db->begin().code(), ErrorCode::kOffline);
  ASSERT_TRUE(db_->db->alter_rollback_segment_online(0).is_ok());
  EXPECT_TRUE(db_->db->begin().is_ok());
}

TEST_F(ExtendedFaultTest, CorruptControlFileSavedByMultiplexing) {
  put_row(*db_->db, db_->table, "x");
  ASSERT_TRUE(db_->db->shutdown().is_ok());
  ASSERT_TRUE(
      injector_->inject(*db_->db, spec(ExtendedFaultType::kCorruptControlFile))
          .is_ok());
  auto db2 = std::make_unique<engine::Database>(&env_.host, &env_.sched, cfg_);
  EXPECT_TRUE(db2->startup().is_ok());  // second copy saves the mount
}

// --- the paper's two-fault experiments (§4 rationale) ---------------------

TEST_F(ExtendedFaultTest, TwoFault_DeleteArchiveThenDeleteDatafile) {
  ASSERT_TRUE(backups_->take_backup(*db_->db).is_ok());
  workload(600);  // produce several archived logs
  ASSERT_GT(env_.host.fs().list("/arch/arch_").size(), 2u);

  // First (latent) fault: an archived log disappears. Nothing visible.
  ASSERT_TRUE(
      injector_->inject(*db_->db, spec(ExtendedFaultType::kDeleteArchiveLog))
          .is_ok());
  put_row(*db_->db, db_->table, "still fine");

  // Second fault: delete a datafile. Media recovery now finds a hole in
  // the redo chain and fails — the latent fault becomes visible.
  ASSERT_TRUE(env_.host.fs().remove("/data/users01.dbf").is_ok());
  db_->db->storage().cache().discard_all();
  db_->db->storage().mark_missing(FileId{0});
  EXPECT_EQ(rm_->recover_datafile(*db_->db, FileId{0}).code(),
            ErrorCode::kUnrecoverable);
}

TEST_F(ExtendedFaultTest, TwoFault_DestroyBackupsThenDeleteDatafile) {
  ASSERT_TRUE(backups_->take_backup(*db_->db).is_ok());
  workload(100);
  ASSERT_TRUE(
      injector_->inject(*db_->db, spec(ExtendedFaultType::kDestroyBackups))
          .is_ok());
  put_row(*db_->db, db_->table, "still fine");

  ASSERT_TRUE(env_.host.fs().remove("/data/users01.dbf").is_ok());
  db_->db->storage().cache().discard_all();
  db_->db->storage().mark_missing(FileId{0});
  EXPECT_EQ(rm_->recover_datafile(*db_->db, FileId{0}).code(),
            ErrorCode::kUnrecoverable);
}

TEST_F(ExtendedFaultTest, TwoFault_ArchiveIntactRecovers) {
  // Control arm: without the latent fault, the same second fault recovers.
  ASSERT_TRUE(backups_->take_backup(*db_->db).is_ok());
  workload(600);
  ASSERT_TRUE(env_.host.fs().remove("/data/users01.dbf").is_ok());
  db_->db->storage().cache().discard_all();
  db_->db->storage().mark_missing(FileId{0});
  EXPECT_TRUE(rm_->recover_datafile(*db_->db, FileId{0}).is_ok());
}

}  // namespace
}  // namespace vdb::faults

namespace vdb::wal {
namespace {

using testing::SimEnv;
using testing::SmallDb;
using testing::put_row;
using testing::small_db_config;

TEST(RedoMultiplexing, SurvivesLossOfOneMember) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  cfg.redo.members_per_group = 2;
  cfg.redo.member_dirs = {"/redo", "/arch"};  // second member elsewhere
  SmallDb db(env, cfg);
  for (int i = 0; i < 50; ++i) put_row(*db.db, db.table, "m");

  // Operator fault: delete member 0 of the current group.
  const std::uint32_t current = db.db->redo().current_group();
  ASSERT_TRUE(
      env.host.fs().remove(db.db->redo().member_path(current, 0)).is_ok());

  // Writes continue against the surviving member...
  for (int i = 0; i < 50; ++i) put_row(*db.db, db.table, "n");

  // ...and crash recovery reads from it.
  ASSERT_TRUE(db.db->shutdown_abort().is_ok());
  auto db2 = std::make_unique<engine::Database>(&env.host, &env.sched, cfg);
  ASSERT_TRUE(db2->startup().is_ok());
  EXPECT_EQ(testing::all_rows(*db2, db2->table_id("accounts").value()).size(),
            100u);
}

TEST(RedoMultiplexing, SingleMemberLossIsFatalForRecovery) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();  // one member per group
  SmallDb db(env, cfg);
  for (int i = 0; i < 50; ++i) put_row(*db.db, db.table, "m");
  const std::uint32_t current = db.db->redo().current_group();
  ASSERT_TRUE(db.db->shutdown_abort().is_ok());
  ASSERT_TRUE(
      env.host.fs().remove(db.db->redo().member_path(current, 0)).is_ok());
  auto db2 = std::make_unique<engine::Database>(&env.host, &env.sched, cfg);
  EXPECT_FALSE(db2->startup().is_ok());  // redo needed for crash recovery
}

TEST(RedoMultiplexing, LostMemberRecreatedOnReuse) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  cfg.redo.file_size_bytes = 32 * 1024;
  cfg.redo.members_per_group = 2;
  SmallDb db(env, cfg);
  const std::string member1 = db.db->redo().member_path(0, 1);
  ASSERT_TRUE(env.host.fs().remove(member1).is_ok());
  // Enough redo to cycle every group at least once.
  for (int i = 0; i < 800; ++i) put_row(*db.db, db.table, std::string(50, 'x'));
  EXPECT_TRUE(env.host.fs().exists(member1));  // redundancy restored
}

}  // namespace
}  // namespace vdb::wal
