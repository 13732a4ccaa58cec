#include <gtest/gtest.h>

#include "engine/admin_shell.hpp"
#include "faults/fault_injector.hpp"
#include "tests/test_env.hpp"
#include "txn/coordinator.hpp"

namespace vdb::engine {
namespace {

using testing::SimEnv;
using testing::SmallDb;
using testing::put_row;

class AdminShellTest : public ::testing::Test {
 protected:
  SimEnv env_;
  std::unique_ptr<SmallDb> db_;
  std::unique_ptr<AdminShell> shell_;

  void SetUp() override {
    db_ = std::make_unique<SmallDb>(env_);
    shell_ = std::make_unique<AdminShell>(db_->db.get());
  }

  std::string run(const std::string& command) {
    auto result = shell_->execute(command);
    VDB_CHECK_MSG(result.is_ok(), result.status().to_string());
    return result.value();
  }
};

TEST_F(AdminShellTest, ShowTablesListsSchema) {
  EXPECT_NE(run("SHOW TABLES").find("accounts"), std::string::npos);
}

TEST_F(AdminShellTest, ShowDatafilesAndTablespaces) {
  EXPECT_NE(run("SHOW DATAFILES").find("/data/users01.dbf"),
            std::string::npos);
  EXPECT_NE(run("SHOW TABLESPACES").find("USERS"), std::string::npos);
}

TEST_F(AdminShellTest, ShowCcReadsProtocolCounters) {
  EXPECT_NE(run("SHOW CC").find("no coordinator attached"),
            std::string::npos);
  auto cc = txn::make_concurrency_control(txn::CcProtocol::k2pl,
                                          &db_->db->obs());
  const auto row =
      txn::LockTarget::for_row(db_->table, RowId{PageId{FileId{0}, 1}, 0});
  ASSERT_TRUE(
      cc->mediate(TxnId{1}, row, txn::AccessMode::kWrite, true).is_ok());
  EXPECT_EQ(cc->mediate(TxnId{2}, row, txn::AccessMode::kWrite, true).code(),
            ErrorCode::kDeadlock);
  cc->end(TxnId{1}, true);
  cc->end(TxnId{2}, false);
  db_->db->set_concurrency_control(cc.get());
  EXPECT_EQ(run("SHOW CC"),
            "concurrency control: 2pl (coordinator attached: 2pl)\n"
            "txns begun=2 committed=1 aborted=1\n"
            "wait_die_aborts=1 occ_validate_fails=0 lock_waits=0\n");
  db_->db->set_concurrency_control(nullptr);
}

TEST_F(AdminShellTest, CreateAndDropTable) {
  run("CREATE TABLE audit TABLESPACE USERS SLOTSIZE 64 OWNER APP");
  EXPECT_TRUE(db_->db->table_id("audit").is_ok());
  run("DROP TABLE audit");
  EXPECT_FALSE(db_->db->table_id("audit").is_ok());
}

TEST_F(AdminShellTest, TablespaceOfflineOnlineCycle) {
  run("ALTER TABLESPACE USERS OFFLINE");
  auto txn = db_->db->begin();
  EXPECT_FALSE(
      db_->db->insert(txn.value(), db_->table, testing::row("x")).is_ok());
  ASSERT_TRUE(db_->db->rollback(txn.value()).is_ok());
  run("ALTER TABLESPACE USERS ONLINE");
  put_row(*db_->db, db_->table, "works");
}

TEST_F(AdminShellTest, DatafileOfflineById) {
  run("ALTER DATAFILE 0 OFFLINE");
  EXPECT_EQ(db_->db->storage().file_info(FileId{0}).value()->status,
            storage::FileStatus::kOffline);
}

TEST_F(AdminShellTest, RollbackSegmentAdmin) {
  run("ALTER ROLLBACK SEGMENT 0 OFFLINE");
  EXPECT_FALSE(db_->db->txns().segments()[0].online);
  run("ALTER ROLLBACK SEGMENT 0 ONLINE");
  EXPECT_TRUE(db_->db->txns().segments()[0].online);
}

TEST_F(AdminShellTest, QuotaCommand) {
  run("ALTER TABLESPACE USERS QUOTA 8");
  auto ts = db_->db->storage().find_tablespace("USERS");
  ASSERT_TRUE(ts.is_ok());
  EXPECT_EQ(db_->db->storage().tablespace_info(ts.value()).value()->max_blocks,
            8u);
}

TEST_F(AdminShellTest, HostEscapes) {
  run("HOST RM /data/users01.dbf");
  EXPECT_FALSE(env_.host.fs().exists("/data/users01.dbf"));
}

TEST_F(AdminShellTest, VerifyReportsFlippedBits) {
  put_row(*db_->db, db_->table, "victim");
  ASSERT_TRUE(db_->db->checkpoint_now().is_ok());
  EXPECT_NE(run("VERIFY").find("0 corrupt block(s)"), std::string::npos);

  // The silent-corruption OS escape, then DBVERIFY catches it.
  run("HOST FLIPBITS /data/users01.dbf 100 16 7");
  const std::string out = run("VERIFY");
  EXPECT_NE(out.find("1 corrupt block(s)"), std::string::npos);
  EXPECT_NE(out.find("block 0"), std::string::npos);
  EXPECT_NE(out.find("checksum mismatch"), std::string::npos);
}

TEST_F(AdminShellTest, ArchiveLogList) {
  const std::string out = run("ARCHIVE LOG LIST");
  EXPECT_NE(out.find("NOARCHIVELOG"), std::string::npos);
  EXPECT_NE(out.find("CURRENT"), std::string::npos);
}

TEST_F(AdminShellTest, ShutdownAbortCommand) {
  run("SHUTDOWN ABORT");
  EXPECT_EQ(db_->db->state(), InstanceState::kCrashed);
}

TEST_F(AdminShellTest, SyntaxErrorsRejected) {
  EXPECT_EQ(shell_->execute("FROB THE KNOB").code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(shell_->execute("ALTER TABLESPACE USERS SIDEWAYS").code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(shell_->execute("ALTER DATAFILE xyz OFFLINE").code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(AdminShellTest, ScriptSkipsCommentsAndStopsOnError) {
  auto out = shell_->run_script(R"(
      # comment line
      -- another comment
      SHOW TABLES
      CHECKPOINT
  )");
  ASSERT_TRUE(out.is_ok());
  EXPECT_NE(out.value().find("accounts"), std::string::npos);

  auto bad = shell_->run_script("CHECKPOINT\nDROP TABLE ghost\nCHECKPOINT");
  EXPECT_EQ(bad.code(), ErrorCode::kNotFound);
}

/// The paper's methodology round-trip: the injector's fault scripts, run
/// through the admin shell, have exactly the injector's effect.
TEST_F(AdminShellTest, FaultScriptsMatchInjector) {
  using faults::FaultSpec;
  using faults::FaultType;
  FaultSpec spec;
  spec.tablespace = "USERS";
  spec.table = "accounts";

  // Set-tablespace-offline via script.
  spec.type = FaultType::kSetTablespaceOffline;
  auto script = faults::FaultInjector::script_for(*db_->db, spec);
  ASSERT_TRUE(script.is_ok());
  ASSERT_TRUE(shell_->run_script(script.value()).is_ok());
  auto ts = db_->db->storage().find_tablespace("USERS");
  EXPECT_EQ(db_->db->storage().tablespace_info(ts.value()).value()->status,
            storage::TablespaceStatus::kOffline);
  ASSERT_TRUE(db_->db->alter_tablespace_online("USERS").is_ok());

  // Delete-datafile via script (an OS rm).
  spec.type = FaultType::kDeleteDatafile;
  script = faults::FaultInjector::script_for(*db_->db, spec);
  ASSERT_TRUE(script.is_ok());
  EXPECT_EQ(script.value(), "HOST RM /data/users01.dbf");
  ASSERT_TRUE(shell_->run_script(script.value()).is_ok());
  EXPECT_FALSE(env_.host.fs().exists("/data/users01.dbf"));

  // Drop-table via script.
  spec.type = FaultType::kDeleteUserObject;
  script = faults::FaultInjector::script_for(*db_->db, spec);
  ASSERT_TRUE(script.is_ok());
  ASSERT_TRUE(shell_->run_script(script.value()).is_ok());
  EXPECT_FALSE(db_->db->table_id("accounts").is_ok());
}

}  // namespace
}  // namespace vdb::engine
