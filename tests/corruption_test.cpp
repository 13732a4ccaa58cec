// Storage-fault faultload: verify-on-read (CRC32C on every fetch miss),
// bounded I/O retry with simulated-clock backoff, and online block media
// recovery (the RMAN BLOCKRECOVER analogue). Covers the full chain from a
// silent on-disk bit flip to a repaired block under live TPC-C load.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchmark/experiment.hpp"
#include "faults/extended_faults.hpp"
#include "recovery/backup.hpp"
#include "recovery/recovery_manager.hpp"
#include "storage/page.hpp"
#include "tests/test_env.hpp"

namespace vdb::recovery {
namespace {

using testing::SimEnv;
using testing::SmallDb;
using testing::all_rows;
using testing::put_row;
using testing::read_str;
using testing::row;
using testing::row_str;
using testing::small_db_config;

class CorruptionTest : public ::testing::Test {
 protected:
  SimEnv env_;
  obs::Observability obs_;
  engine::DatabaseConfig cfg_ = small_db_config(/*archive=*/true);
  std::unique_ptr<SmallDb> db_;
  std::unique_ptr<BackupManager> backups_;
  std::unique_ptr<RecoveryManager> rm_;

  void SetUp() override {
    cfg_.obs = &obs_;
    db_ = std::make_unique<SmallDb>(env_, cfg_);
    backups_ = std::make_unique<BackupManager>(&env_.host.fs(), "/backup");
    rm_ = std::make_unique<RecoveryManager>(&env_.host, &env_.sched,
                                            backups_.get());
  }

  engine::Database& db() { return *db_->db; }
  TableId table() { return db_->table; }
  sim::SimFs& fs() { return env_.host.fs(); }
  std::uint64_t count(const char* counter) {
    return obs_.registry().counter(counter)->value();
  }

  /// Verify every live datafile and repair each bad block online; returns
  /// the number of blocks repaired (the post-recovery hook used below).
  Result<std::uint64_t> repair_all(engine::Database& d) {
    std::uint64_t repaired = 0;
    std::vector<PageId> bad;
    for (const auto& file : d.storage().files()) {
      if (file.dropped || file.status == storage::FileStatus::kMissing) {
        continue;
      }
      auto report = d.storage().verify_file(file.id);
      if (!report.is_ok()) return report.status();
      for (const auto& block : report.value().bad) bad.push_back(block.page);
    }
    for (PageId pid : bad) {
      auto rep = rm_->recover_block(d, pid);
      if (!rep.is_ok()) return rep.status();
      repaired += rep.value().blocks_restored;
    }
    return repaired;
  }
};

// A silent bit flip on disk is caught by the CRC32C check at the next fetch
// miss, with the path, offset, and both checksums in the error message.
TEST_F(CorruptionTest, ChecksumMismatchDetectedOnFetchMiss) {
  RowId rid = put_row(db(), table(), "victim");
  for (int i = 0; i < 20; ++i) put_row(db(), table(), "filler");
  ASSERT_TRUE(db().checkpoint_now().is_ok());
  db().storage().cache().discard_all();

  ASSERT_TRUE(fs().flip_bits("/data/users01.dbf",
                             static_cast<std::uint64_t>(rid.page.block) *
                                     storage::Page::kSize +
                                 64,
                             16, /*seed=*/7)
                  .is_ok());

  auto txn = db().begin();
  ASSERT_TRUE(txn.is_ok());
  auto read = read_str(db(), txn.value(), table(), rid);
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.code(), ErrorCode::kCorruption);
  EXPECT_NE(read.status().message().find("checksum mismatch"),
            std::string::npos)
      << read.status().to_string();
  EXPECT_NE(read.status().message().find("/data/users01.dbf"),
            std::string::npos);
  EXPECT_NE(read.status().message().find("expected crc32c="),
            std::string::npos);
  ASSERT_TRUE(db().rollback(txn.value()).is_ok());

  ASSERT_EQ(db().storage().corrupt_blocks().size(), 1u);
  EXPECT_EQ(db().storage().corrupt_blocks().front(), rid.page);
}

// Online block media recovery restores the damaged block from the backup
// and rolls it forward through the replay plan: every row of the block,
// written after the backup, comes back.
TEST(BlockRecovery, RestoresEveryRowOfTheDamagedBlock) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config(/*archive=*/true);
  SmallDb small(env, cfg);
  BackupManager backups(&env.host.fs(), "/backup");
  RecoveryManager rm(&env.host, &env.sched, &backups);

  ASSERT_TRUE(backups.take_backup(*small.db).is_ok());
  std::vector<RowId> rids;
  RowId mid{};
  for (int i = 0; i < 300; ++i) {
    RowId rid = put_row(*small.db, small.table, "r" + std::to_string(i));
    rids.push_back(rid);
    if (i == 150) mid = rid;
  }
  ASSERT_TRUE(small.db->checkpoint_now().is_ok());

  const std::string path = "/data/users01.dbf";
  ASSERT_TRUE(env.host.fs()
                  .flip_bits(path,
                             static_cast<std::uint64_t>(mid.page.block) *
                                     storage::Page::kSize +
                                 64,
                             32, /*seed=*/9)
                  .is_ok());

  auto report = rm.recover_block(*small.db, mid.page);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().complete);
  EXPECT_EQ(report.value().blocks_restored, 1u);
  EXPECT_TRUE(small.db->storage().corrupt_blocks().empty());

  // Every row on the repaired block reads back with its committed value.
  auto txn = small.db->begin();
  ASSERT_TRUE(txn.is_ok());
  int on_block = 0;
  for (int i = 0; i < 300; ++i) {
    if (rids[i].page != mid.page) continue;
    on_block += 1;
    auto back = read_str(*small.db, txn.value(), small.table, rids[i]);
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(back.value(), "r" + std::to_string(i));
  }
  EXPECT_GT(on_block, 1);
  ASSERT_TRUE(small.db->commit(txn.value()).is_ok());
}

// A torn page write at crash time: the flush persists only the first 512
// bytes (one sector), the instance dies, and instance recovery alone cannot
// fix the block (replay starts past the tearing checkpoint). The
// post-recovery hook repairs it from the backup before the rebuild scan
// reads it.
TEST_F(CorruptionTest, TornWriteAtCrashRepairedDuringStartup) {
  std::vector<RowId> rids;
  for (int i = 0; i < 30; ++i) {
    rids.push_back(put_row(db(), table(), "orig" + std::to_string(i)));
  }
  ASSERT_TRUE(backups_->take_backup(db()).is_ok());
  ASSERT_TRUE(db().checkpoint_now().is_ok());

  // Update a row that lives past byte 512 of its page so the lost tail of
  // the torn write actually carries changed bytes.
  auto txn = db().begin();
  ASSERT_TRUE(txn.is_ok());
  ASSERT_TRUE(
      db().update(txn.value(), table(), rids[20], row("updated")).is_ok());
  ASSERT_TRUE(db().commit(txn.value()).is_ok());

  ASSERT_TRUE(fs().tear_next_write("/data/users01.dbf", 512).is_ok());
  ASSERT_TRUE(db().checkpoint_now().is_ok());  // the tear fires here
  ASSERT_TRUE(db().shutdown_abort().is_ok());

  auto fresh =
      std::make_unique<engine::Database>(&env_.host, &env_.sched, cfg_);
  std::uint64_t repaired = 0;
  fresh->set_post_recovery_hook([&](engine::Database& d) -> Status {
    auto n = repair_all(d);
    if (!n.is_ok()) return n.status();
    repaired = n.value();
    return Status::ok();
  });
  ASSERT_TRUE(fresh->startup().is_ok());
  EXPECT_EQ(repaired, 1u);

  auto txn2 = fresh->begin();
  ASSERT_TRUE(txn2.is_ok());
  auto back = read_str(*fresh, txn2.value(), table(), rids[20]);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), "updated");
  ASSERT_TRUE(fresh->commit(txn2.value()).is_ok());
  EXPECT_EQ(all_rows(*fresh, table()).size(), 30u);

  // Nothing left for DBVERIFY to complain about.
  auto verify = fresh->storage().verify_file(FileId{0});
  ASSERT_TRUE(verify.is_ok());
  EXPECT_TRUE(verify.value().bad.empty());
}

// A transient error window shorter than the retry backoff is absorbed: the
// first attempt fails, the 2 ms backoff outlives the glitch, the retry
// succeeds, and the caller never sees an error.
TEST_F(CorruptionTest, TransientErrorAbsorbedByRetry) {
  RowId rid = put_row(db(), table(), "steady");
  ASSERT_TRUE(db().checkpoint_now().is_ok());
  db().storage().cache().discard_all();

  auto txn = db().begin();
  ASSERT_TRUE(txn.is_ok());
  fs().inject_transient_errors("/data/users01.dbf",
                               env_.clock.now() + 1 * kMillisecond,
                               /*probability=*/1.0, /*seed=*/11);
  auto read = read_str(db(), txn.value(), table(), rid);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(read.value(), "steady");
  ASSERT_TRUE(db().commit(txn.value()).is_ok());

  EXPECT_EQ(count("io retries"), 1u);
  EXPECT_EQ(count("io retries exhausted"), 0u);
}

// A glitch that outlives the whole retry budget surfaces as kTransientIo
// with the exhaustion count in the message — and clears cleanly once the
// device recovers.
TEST_F(CorruptionTest, TransientRetryExhaustionSurfacesCleanly) {
  RowId rid = put_row(db(), table(), "steady");
  ASSERT_TRUE(db().checkpoint_now().is_ok());
  db().storage().cache().discard_all();

  auto txn = db().begin();
  ASSERT_TRUE(txn.is_ok());
  fs().inject_transient_errors("/data/users01.dbf",
                               env_.clock.now() + 60 * kMinute,
                               /*probability=*/1.0, /*seed=*/11);
  auto read = read_str(db(), txn.value(), table(), rid);
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.code(), ErrorCode::kTransientIo);
  EXPECT_NE(read.status().message().find("retries exhausted"),
            std::string::npos)
      << read.status().to_string();
  ASSERT_TRUE(db().rollback(txn.value()).is_ok());
  EXPECT_EQ(count("io retries exhausted"), 1u);
  EXPECT_EQ(count("io retries"), 3u);

  // No damage: once the device recovers, the same read succeeds.
  fs().clear_transient_errors();
  auto txn2 = db().begin();
  ASSERT_TRUE(txn2.is_ok());
  auto again = read_str(db(), txn2.value(), table(), rid);
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  EXPECT_EQ(again.value(), "steady");
  ASSERT_TRUE(db().commit(txn2.value()).is_ok());
  EXPECT_TRUE(db().storage().corrupt_blocks().empty());
}

// ---- Experiment-level: the faultload under live TPC-C. ----

bench::ExperimentOptions tpcc_options() {
  bench::ExperimentOptions opts;
  opts.config = bench::RecoveryConfigSpec{"F10G3T1", 10, 3, 60};
  opts.archive_mode = true;
  opts.duration = 4 * kMinute;
  opts.scale.warehouses = 1;
  opts.scale.customers_per_district = 100;
  opts.scale.items = 1000;
  opts.scale.initial_orders_per_district = 100;
  opts.seed = 4242;
  opts.storage_inject_at = 100 * kSecond;
  return opts;
}

// Single-page silent corruption under live load: detected at the fetch
// miss, repaired online (no datafile offline, no full restore), zero lost
// transactions, zero integrity violations.
TEST(CorruptionExperiment, OnlineBlockRepairUnderLiveLoad) {
  bench::ExperimentOptions opts = tpcc_options();
  faults::ExtendedFaultSpec spec;
  spec.type = faults::ExtendedFaultType::kSilentPageCorruption;
  spec.tablespace = "TPCC";
  spec.datafile_index = 0;
  spec.page_block = 0;  // the warehouse page — every transaction reads it
  opts.storage_fault = spec;

  auto result = bench::Experiment(opts).run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const bench::ExperimentResult& r = result.value();
  EXPECT_TRUE(r.fault_injected);
  EXPECT_TRUE(r.recovered);
  EXPECT_TRUE(r.recovery_complete);
  EXPECT_EQ(r.bad_blocks_found, 1u);
  EXPECT_EQ(r.blocks_repaired, 1u);
  EXPECT_EQ(r.lost_committed, 0u);
  EXPECT_EQ(r.integrity_violations, 0u);
  EXPECT_GT(r.recovery_time, 0u);
}

// A transient glitch below the retry budget costs retries, not
// transactions: the workload never sees an error and nothing is damaged.
TEST(CorruptionExperiment, TransientGlitchBelowBudgetAbsorbed) {
  bench::ExperimentOptions opts = tpcc_options();
  faults::ExtendedFaultSpec spec;
  spec.type = faults::ExtendedFaultType::kTransientIoErrors;
  spec.tablespace = "TPCC";
  spec.datafile_index = 0;
  spec.error_window = 10 * kSecond;
  spec.error_probability = 0.05;
  opts.storage_fault = spec;

  auto result = bench::Experiment(opts).run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const bench::ExperimentResult& r = result.value();
  EXPECT_TRUE(r.fault_injected);
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(r.failed_attempts, 0u);
  EXPECT_GT(r.metrics.counter("io retries"), 0u);
  EXPECT_EQ(r.metrics.counter("io retries exhausted"), 0u);
  EXPECT_GT(r.transient_errors, 0u);
  EXPECT_EQ(r.bad_blocks_found, 0u);
  EXPECT_EQ(r.lost_committed, 0u);
  EXPECT_EQ(r.integrity_violations, 0u);
}

}  // namespace
}  // namespace vdb::recovery
