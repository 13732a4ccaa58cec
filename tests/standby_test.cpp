#include <gtest/gtest.h>

#include <algorithm>

#include "recovery/backup.hpp"
#include "sim/network.hpp"
#include "standby/standby.hpp"
#include "tests/test_env.hpp"

namespace vdb::standby {
namespace {

using testing::SimEnv;
using testing::SmallDb;
using testing::all_rows;
using testing::put_row;
using testing::read_str;
using testing::row;
using testing::small_db_config;

class StandbyTest : public ::testing::Test {
 protected:
  SimEnv env_;  // primary host lives here (shared clock)
  std::unique_ptr<sim::Host> standby_host_;
  std::unique_ptr<sim::NetworkLink> link_;
  engine::DatabaseConfig cfg_ = small_db_config(/*archive=*/true);
  std::unique_ptr<SmallDb> primary_;
  std::unique_ptr<recovery::BackupManager> backups_;
  std::unique_ptr<StandbyDatabase> standby_;

  void SetUp() override {
    cfg_.redo.file_size_bytes = 64 * 1024;  // frequent switches → shipping
    primary_ = std::make_unique<SmallDb>(env_, cfg_);
    backups_ =
        std::make_unique<recovery::BackupManager>(&env_.host.fs(), "/backup");

    standby_host_ = std::make_unique<sim::Host>("standby", &env_.clock);
    standby_host_->add_disk("/data");
    standby_host_->add_disk("/redo");
    standby_host_->add_disk("/arch");
    standby_host_->add_disk("/backup");
    link_ = std::make_unique<sim::NetworkLink>();

    StandbyConfig scfg;
    scfg.db = cfg_;
    standby_ = std::make_unique<StandbyDatabase>(standby_host_.get(),
                                                 &env_.sched, scfg,
                                                 link_.get());
    ASSERT_TRUE(standby_->instantiate_from(*primary_->db, *backups_).is_ok());
    primary_->db->archiver().on_archived =
        [this](const std::string& path, std::uint64_t seq, SimTime done_at) {
          standby_->on_primary_archive(env_.host.fs(), path, seq, done_at);
        };
  }
};

TEST_F(StandbyTest, InstantiationCopiesDatafiles) {
  EXPECT_TRUE(standby_host_->fs().exists("/data/users01.dbf"));
  EXPECT_FALSE(standby_->active());
  EXPECT_GT(standby_->applied_to(), 0u);
}

TEST_F(StandbyTest, ArchivesShipAndApply) {
  for (int i = 0; i < 400; ++i) {
    put_row(*primary_->db, primary_->table, std::string(60, 'a'));
  }
  EXPECT_GT(standby_->archives_applied(), 0u);
  EXPECT_GT(standby_->applied_to(), 0u);
  EXPECT_LT(standby_->applied_to(), primary_->db->redo().flushed_lsn());
}

TEST_F(StandbyTest, ActivationRecoversArchivedState) {
  std::vector<Lsn> commit_lsns;
  for (int i = 0; i < 400; ++i) {
    auto txn = primary_->db->begin();
    ASSERT_TRUE(txn.is_ok());
    ASSERT_TRUE(primary_->db
                    ->insert(txn.value(), primary_->table,
                             row("r" + std::to_string(i)))
                    .is_ok());
    auto lsn = primary_->db->commit(txn.value());
    ASSERT_TRUE(lsn.is_ok());
    commit_lsns.push_back(lsn.value());
  }
  // Primary dies.
  ASSERT_TRUE(primary_->db->shutdown_abort().is_ok());

  auto report = standby_->activate();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(standby_->active());
  EXPECT_TRUE(standby_->db().is_open());

  // Exactly the transactions whose commit LSN is below the applied horizon
  // survive — the unarchived tail is lost (paper Figure 7).
  std::uint64_t expect_survivors = 0;
  for (Lsn lsn : commit_lsns) {
    if (lsn <= report.value().recovered_to) expect_survivors += 1;
  }
  const auto rows =
      all_rows(standby_->db(), standby_->db().table_id("accounts").value());
  EXPECT_EQ(rows.size(), expect_survivors);
  EXPECT_GT(expect_survivors, 0u);
  EXPECT_LT(expect_survivors, commit_lsns.size());  // some tail was lost
}

TEST_F(StandbyTest, ActivationKeepsTxnIdsAboveShippedOnes) {
  std::vector<std::pair<TxnId, Lsn>> commits;
  for (int i = 0; i < 400; ++i) {
    auto txn = primary_->db->begin();
    ASSERT_TRUE(txn.is_ok());
    ASSERT_TRUE(
        primary_->db->insert(txn.value(), primary_->table, row("r")).is_ok());
    auto lsn = primary_->db->commit(txn.value());
    ASSERT_TRUE(lsn.is_ok());
    commits.emplace_back(txn.value(), lsn.value());
  }
  ASSERT_TRUE(primary_->db->shutdown_abort().is_ok());

  auto report = standby_->activate();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  std::uint64_t highest_applied = 0;
  for (const auto& [txn, lsn] : commits) {
    if (lsn <= report.value().recovered_to) {
      highest_applied = std::max(highest_applied, txn.value);
    }
  }
  ASSERT_GT(highest_applied, 0u);
  auto next = standby_->db().begin();
  ASSERT_TRUE(next.is_ok());
  EXPECT_GT(next.value().value, highest_applied);
}

TEST_F(StandbyTest, ActivationRollsBackTxnOpenAcrossShippedArchives) {
  // The open transaction's insert lands in an early archive; every later
  // archive, the last shipped one included, ends while it is still open.
  auto open = primary_->db->begin();
  ASSERT_TRUE(open.is_ok());
  ASSERT_TRUE(primary_->db
                  ->insert(open.value(), primary_->table, row("uncommitted"))
                  .is_ok());
  for (int i = 0; i < 400; ++i) {
    put_row(*primary_->db, primary_->table, "committed");
  }
  ASSERT_GT(standby_->archives_applied(), 1u);
  ASSERT_TRUE(primary_->db->shutdown_abort().is_ok());

  auto report = standby_->activate();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const auto rows =
      all_rows(standby_->db(), standby_->db().table_id("accounts").value());
  EXPECT_FALSE(rows.empty());
  EXPECT_EQ(std::count(rows.begin(), rows.end(), "uncommitted"), 0);
  EXPECT_EQ(standby_->db().txns().active_count(), 0u);
}

TEST_F(StandbyTest, ActivatedStandbyAcceptsNewWork) {
  for (int i = 0; i < 200; ++i) {
    put_row(*primary_->db, primary_->table, "x");
  }
  ASSERT_TRUE(primary_->db->shutdown_abort().is_ok());
  ASSERT_TRUE(standby_->activate().is_ok());

  auto table = standby_->db().table_id("accounts");
  ASSERT_TRUE(table.is_ok());
  const RowId rid = put_row(standby_->db(), table.value(), "after-failover");
  auto txn = standby_->db().begin();
  EXPECT_TRUE(read_str(standby_->db(), txn.value(), table.value(), rid).is_ok());
  ASSERT_TRUE(standby_->db().commit(txn.value()).is_ok());
}

TEST_F(StandbyTest, ActivationTakesBoundedTime) {
  for (int i = 0; i < 200; ++i) {
    put_row(*primary_->db, primary_->table, "x");
  }
  ASSERT_TRUE(primary_->db->shutdown_abort().is_ok());
  const SimTime before = env_.clock.now();
  ASSERT_TRUE(standby_->activate().is_ok());
  const SimDuration took = env_.clock.now() - before;
  // Activation cost dominates; it must be quick and independent of the
  // volume of earlier redo (the standby already applied it).
  EXPECT_GE(took, 12 * kSecond);  // configured activation cost
  EXPECT_LT(took, 60 * kSecond);
}

TEST_F(StandbyTest, ShippingStopsAfterActivation) {
  for (int i = 0; i < 200; ++i) put_row(*primary_->db, primary_->table, "x");
  ASSERT_TRUE(primary_->db->shutdown_abort().is_ok());
  ASSERT_TRUE(standby_->activate().is_ok());
  const auto before = standby_->archives_applied();
  standby_->on_primary_archive(env_.host.fs(), "/arch/bogus", 999, 0);
  EXPECT_EQ(standby_->archives_applied(), before);
}

}  // namespace
}  // namespace vdb::standby
