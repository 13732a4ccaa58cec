// Parallel redo apply must be invisible: every replay driver routed through
// engine::RedoApplyPlan has to produce byte-identical results whatever the
// worker count. These tests run the same scenario at replay_jobs = 1 and 4
// and compare recovered data and RecoveryReport fields exactly — the
// determinism gate for the partitioned phase-two apply.
#include <gtest/gtest.h>

#include "recovery/backup.hpp"
#include "recovery/recovery_manager.hpp"
#include "tests/test_env.hpp"
#include "tpcc/consistency.hpp"
#include "tpcc/schema.hpp"
#include "tpcc/tpcc_db.hpp"
#include "tpcc/tpcc_loader.hpp"
#include "tpcc/tpcc_txns.hpp"

namespace vdb::engine {
namespace {

using testing::SimEnv;
using testing::SmallDb;
using testing::all_rows;
using testing::put_row;
using testing::row;
using testing::small_db_config;

// Deterministic mixed workload: committed inserts/updates/deletes spread
// over enough pages to give the plan several partitions, a DDL record in
// the middle of the stream (serial barrier), and one transaction left open
// at the crash (loser for the undo pass).
struct WorkloadState {
  TableId audit{};
  std::vector<RowId> rids;
};

WorkloadState run_workload(SmallDb& small, bool leave_loser = true) {
  engine::Database& db = *small.db;
  WorkloadState ws;
  for (int i = 0; i < 120; ++i) {
    ws.rids.push_back(put_row(db, small.table, "row" + std::to_string(i)));
  }
  auto audit = db.create_table("audit", "USERS", 64, small.user);
  VDB_CHECK(audit.is_ok());
  ws.audit = audit.value();
  for (int i = 0; i < 40; ++i) {
    put_row(db, ws.audit, "audit" + std::to_string(i));
  }
  auto txn = db.begin();
  VDB_CHECK(txn.is_ok());
  for (int i = 0; i < 30; i += 3) {
    VDB_CHECK(db.update(txn.value(), small.table, ws.rids[i],
                        row("updated" + std::to_string(i)))
                  .is_ok());
  }
  for (int i = 60; i < 70; ++i) {
    VDB_CHECK(db.erase(txn.value(), small.table, ws.rids[i]).is_ok());
  }
  VDB_CHECK(db.commit(txn.value()).is_ok());
  if (leave_loser) {
    // Loser: open at the crash, must be rolled back by recovery.
    auto loser = db.begin();
    VDB_CHECK(loser.is_ok());
    (void)db.insert(loser.value(), small.table, row("uncommitted"));
    (void)db.update(loser.value(), small.table, ws.rids[1], row("dirty"));
  }
  return ws;
}

struct RecoveredState {
  std::vector<std::string> accounts;
  std::vector<std::string> audit;
};

RecoveredState recover_after_crash(unsigned jobs) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  cfg.replay_jobs = jobs;
  SmallDb small(env, cfg);
  run_workload(small);
  VDB_CHECK(small.db->shutdown_abort().is_ok());

  engine::Database next(&env.host, &env.sched, cfg);
  VDB_CHECK(next.startup().is_ok());
  RecoveredState state;
  state.accounts = all_rows(next, next.table_id("accounts").value());
  state.audit = all_rows(next, next.table_id("audit").value());
  return state;
}

TEST(ReplayPlanTest, InstanceRecoveryByteIdenticalAcrossJobs) {
  const RecoveredState serial = recover_after_crash(1);
  const RecoveredState parallel = recover_after_crash(4);
  EXPECT_FALSE(serial.accounts.empty());
  EXPECT_EQ(serial.accounts, parallel.accounts);
  EXPECT_EQ(serial.audit, parallel.audit);
  // The loser's changes must be gone in both.
  for (const auto& r : serial.accounts) {
    EXPECT_NE(r, "uncommitted");
    EXPECT_NE(r, "dirty");
  }
}

struct MediaOutcome {
  recovery::RecoveryReport report;
  std::vector<std::string> accounts;
};

MediaOutcome recover_deleted_datafile(unsigned jobs) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config(/*archive=*/true);
  cfg.replay_jobs = jobs;
  SmallDb small(env, cfg);
  recovery::BackupManager backups(&env.host.fs(), "/backup");
  recovery::RecoveryManager rm(&env.host, &env.sched, &backups);

  put_row(*small.db, small.table, "pre-backup");
  VDB_CHECK(backups.take_backup(*small.db).is_ok());
  // No transaction left open: media recovery on a live instance expects
  // writers to have ended (open ones are rolled back by the operator first).
  run_workload(small, /*leave_loser=*/false);

  VDB_CHECK(env.host.fs().remove("/data/users01.dbf").is_ok());
  small.db->storage().cache().discard_all();
  small.db->storage().mark_missing(FileId{0});

  auto report = rm.recover_datafile(*small.db, FileId{0});
  VDB_CHECK_MSG(report.is_ok(), report.status().to_string());
  MediaOutcome out;
  out.report = report.value();
  out.accounts = all_rows(*small.db, small.table);
  return out;
}

TEST(ReplayPlanTest, MediaRecoveryReportIdenticalAcrossJobs) {
  const MediaOutcome serial = recover_deleted_datafile(1);
  const MediaOutcome parallel = recover_deleted_datafile(4);
  EXPECT_EQ(serial.report.recovered_to, parallel.report.recovered_to);
  EXPECT_EQ(serial.report.complete, parallel.report.complete);
  EXPECT_EQ(serial.report.records_applied, parallel.report.records_applied);
  EXPECT_EQ(serial.report.records_skipped, parallel.report.records_skipped);
  EXPECT_EQ(serial.report.archives_read, parallel.report.archives_read);
  EXPECT_EQ(serial.report.files_restored, parallel.report.files_restored);
  EXPECT_EQ(serial.accounts, parallel.accounts);
}

struct PitOutcome {
  recovery::RecoveryReport report;
  std::vector<std::string> accounts;
  bool audit_lost = false;
};

PitOutcome incomplete_recovery(unsigned jobs) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config(/*archive=*/true);
  cfg.replay_jobs = jobs;
  SmallDb small(env, cfg);
  recovery::BackupManager backups(&env.host.fs(), "/backup");
  recovery::RecoveryManager rm(&env.host, &env.sched, &backups);

  VDB_CHECK(backups.take_backup(*small.db).is_ok());
  for (int i = 0; i < 60; ++i) {
    put_row(*small.db, small.table, "keep" + std::to_string(i));
  }
  // The operator fault: DROP TABLE. Work committed afterwards is lost by
  // the point-in-time choice.
  VDB_CHECK(small.db->drop_table("accounts").is_ok());
  auto audit = small.db->create_table("audit", "USERS", 64, small.user);
  VDB_CHECK(audit.is_ok());
  put_row(*small.db, audit.value(), "lost");
  VDB_CHECK(small.db->shutdown_abort().is_ok());

  auto pit = rm.point_in_time_recover(
      cfg, recovery::stop_before_drop_table("accounts"));
  VDB_CHECK_MSG(pit.is_ok(), pit.status().to_string());
  PitOutcome out;
  out.report = pit.value().report;
  out.accounts =
      all_rows(*pit.value().db, pit.value().db->table_id("accounts").value());
  out.audit_lost = !pit.value().db->table_id("audit").is_ok();
  return out;
}

TEST(ReplayPlanTest, IncompleteRecoveryIdenticalAcrossJobs) {
  const PitOutcome serial = incomplete_recovery(1);
  const PitOutcome parallel = incomplete_recovery(4);
  EXPECT_FALSE(serial.report.complete);
  EXPECT_EQ(serial.report.recovered_to, parallel.report.recovered_to);
  EXPECT_EQ(serial.report.complete, parallel.report.complete);
  EXPECT_EQ(serial.report.records_applied, parallel.report.records_applied);
  EXPECT_EQ(serial.report.records_skipped, parallel.report.records_skipped);
  EXPECT_EQ(serial.accounts, parallel.accounts);
  EXPECT_EQ(serial.accounts.size(), 60u);
  EXPECT_TRUE(serial.audit_lost);
  EXPECT_TRUE(parallel.audit_lost);
}

// Full-stack check: TPC-C crash recovery keeps every consistency condition
// at any worker count and recovers identical order state.
struct TpccOutcome {
  std::uint32_t violations = 0;
  std::uint64_t orders = 0;
};

TpccOutcome tpcc_crash_recovery(unsigned jobs) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  cfg.redo.file_size_bytes = 8 * 1024 * 1024;
  cfg.storage.cache_pages = 1024;
  cfg.replay_jobs = jobs;
  auto db = std::make_unique<engine::Database>(&env.host, &env.sched, cfg);
  VDB_CHECK(db->create().is_ok());
  VDB_CHECK(db->create_tablespace("TPCC", {{"/data/t1.dbf", 512},
                                           {"/data/t2.dbf", 512}})
                .is_ok());
  auto user = db->create_user("TPCC", false);
  tpcc::TpccScale scale;
  scale.warehouses = 1;
  scale.customers_per_district = 30;
  scale.items = 200;
  scale.initial_orders_per_district = 30;
  tpcc::TpccDb tdb(scale);
  VDB_CHECK(tdb.create_schema(*db, "TPCC", user.value()).is_ok());
  VDB_CHECK(tdb.attach(db.get()).is_ok());
  tpcc::Loader loader(&tdb, 7);
  VDB_CHECK(loader.load().is_ok());
  tpcc::TpccRandom random(Rng{11}, scale);
  tpcc::TpccTxns txns(&tdb, &random);
  for (int i = 0; i < 40; ++i) {
    auto outcome = txns.new_order(1);
    VDB_CHECK(outcome.is_ok());
  }
  VDB_CHECK(db->shutdown_abort().is_ok());

  auto fresh = std::make_unique<engine::Database>(&env.host, &env.sched, cfg);
  fresh->set_on_mounted([&](engine::Database& d) { (void)tdb.attach(&d); });
  VDB_CHECK(fresh->startup().is_ok());

  tpcc::ConsistencyChecker checker(&tdb);
  auto report = checker.run_all();
  VDB_CHECK(report.is_ok());
  TpccOutcome out;
  out.violations = report.value().violations;
  (void)fresh->scan(tdb.table(tpcc::Tbl::kOrder),
                    [&](RowId, std::span<const std::uint8_t>) {
                      out.orders += 1;
                      return true;
                    });
  return out;
}

TEST(ReplayPlanTest, TpccCrashRecoveryConsistentAcrossJobs) {
  const TpccOutcome serial = tpcc_crash_recovery(1);
  const TpccOutcome parallel = tpcc_crash_recovery(4);
  EXPECT_EQ(serial.violations, 0u);
  EXPECT_EQ(parallel.violations, 0u);
  EXPECT_EQ(serial.orders, parallel.orders);
  EXPECT_GT(serial.orders, 0u);
}

constexpr std::uint64_t kGrain = RedoApplyPlan::kApplyRecordsPerWorker;

TEST(ReplayPlanTest, ApplyWorkersFollowTheGrain) {
  EXPECT_EQ(RedoApplyPlan::apply_workers(100 * kGrain, 0), 1u);
  EXPECT_EQ(RedoApplyPlan::apply_workers(100 * kGrain, 1), 1u);
  EXPECT_EQ(RedoApplyPlan::apply_workers(0, 4), 1u);
  EXPECT_EQ(RedoApplyPlan::apply_workers(kGrain - 1, 4), 1u);
  EXPECT_EQ(RedoApplyPlan::apply_workers(2 * kGrain - 1, 4), 1u);
  EXPECT_EQ(RedoApplyPlan::apply_workers(2 * kGrain, 4), 2u);
  EXPECT_EQ(RedoApplyPlan::apply_workers(100 * kGrain, 4), 4u);
}

// Drains on both sides of the apply grain. Most replay drains are a few
// dozen records and apply inline; one of several grains is split across
// workers. Media recovery replays a thousand one-record drains, then a plan
// staged directly drains once below the grain and once above it. Pages and
// reports must come out identical at any job count.
std::string wide_row(const std::string& tag) {
  return tag + std::string(60 - tag.size(), '.');  // fills a 64-byte slot
}

struct GrainOutcome {
  recovery::RecoveryReport report;
  std::vector<std::string> accounts;
  std::vector<std::vector<std::uint8_t>> pages;  // every block of users01
  RedoApplyPlan::Stats small;
  RedoApplyPlan::Stats large;
};

// Stages `records` updates dealt round-robin over `rids`, LSNs counting up
// from `*lsn`, and drains them as one plan.
RedoApplyPlan::Stats drain_updates(Database& db, TableId table,
                                   const std::vector<RowId>& rids,
                                   std::uint64_t records, Lsn* lsn) {
  RedoApplyPlan plan = db.make_replay_plan();
  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kUpdate;
  rec.txn = TxnId{9001};
  rec.dml.table = table;
  for (std::uint64_t i = 0; i < records; ++i) {
    rec.lsn = (*lsn)++;
    rec.dml.rid = rids[i % rids.size()];
    rec.dml.after = row(wide_row("direct" + std::to_string(i)));
    plan.stage(rec);
  }
  auto stats = plan.drain();
  VDB_CHECK_MSG(stats.is_ok(), stats.status().to_string());
  return stats.value();
}

GrainOutcome drains_around_the_grain(unsigned jobs) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config(/*archive=*/true);
  cfg.replay_jobs = jobs;
  SmallDb small(env, cfg);
  recovery::BackupManager backups(&env.host.fs(), "/backup");
  recovery::RecoveryManager rm(&env.host, &env.sched, &backups);
  VDB_CHECK(backups.take_backup(*small.db).is_ok());

  std::vector<RowId> rids;
  for (int i = 0; i < 1024; ++i) {  // ~9 pages of 64-byte slots
    rids.push_back(
        put_row(*small.db, small.table, wide_row("row" + std::to_string(i))));
  }

  VDB_CHECK(env.host.fs().remove("/data/users01.dbf").is_ok());
  small.db->storage().cache().discard_all();
  small.db->storage().mark_missing(FileId{0});
  auto report = rm.recover_datafile(*small.db, FileId{0});
  VDB_CHECK_MSG(report.is_ok(), report.status().to_string());

  GrainOutcome out;
  out.report = report.value();
  Lsn lsn = Lsn{1} << 40;  // above anything the workload wrote
  small.db->set_recovering(true);
  out.small = drain_updates(*small.db, small.table, rids, kGrain / 2, &lsn);
  out.large = drain_updates(*small.db, small.table, rids, 2 * kGrain, &lsn);
  small.db->set_recovering(false);

  out.accounts = all_rows(*small.db, small.table);
  auto info = small.db->storage().file_info(FileId{0});
  VDB_CHECK(info.is_ok());
  for (std::uint32_t b = 0; b < info.value()->blocks; ++b) {
    auto ref = small.db->storage().fetch(PageId{FileId{0}, b});
    VDB_CHECK_MSG(ref.is_ok(), ref.status().to_string());
    const auto bytes = ref.value()->bytes();
    out.pages.emplace_back(bytes.begin(), bytes.end());
  }
  return out;
}

TEST(ReplayPlanTest, DrainsBelowAndAboveGrainIdenticalAcrossJobs) {
  const GrainOutcome serial = drains_around_the_grain(1);
  const GrainOutcome parallel = drains_around_the_grain(4);
  // The worker choice is the only job-dependent outcome.
  EXPECT_EQ(serial.small.workers, 1u);
  EXPECT_EQ(serial.large.workers, 1u);
  EXPECT_EQ(parallel.small.workers, 1u);
  EXPECT_GT(parallel.large.workers, 1u);
  EXPECT_EQ(serial.small.applied, parallel.small.applied);
  EXPECT_EQ(serial.large.applied, parallel.large.applied);
  EXPECT_EQ(serial.large.applied, 2 * kGrain);

  EXPECT_TRUE(serial.report.complete);
  EXPECT_GE(serial.report.records_applied, 1024u);
  EXPECT_EQ(serial.report.recovered_to, parallel.report.recovered_to);
  EXPECT_EQ(serial.report.complete, parallel.report.complete);
  EXPECT_EQ(serial.report.records_applied, parallel.report.records_applied);
  EXPECT_EQ(serial.report.records_skipped, parallel.report.records_skipped);
  EXPECT_EQ(serial.report.archives_read, parallel.report.archives_read);
  EXPECT_EQ(serial.report.files_restored, parallel.report.files_restored);
  EXPECT_EQ(serial.report.blocks_restored, parallel.report.blocks_restored);
  EXPECT_EQ(serial.accounts.size(), 1024u);
  EXPECT_EQ(serial.accounts, parallel.accounts);
  ASSERT_EQ(serial.pages.size(), parallel.pages.size());
  for (std::size_t b = 0; b < serial.pages.size(); ++b) {
    EXPECT_EQ(serial.pages[b], parallel.pages[b]) << "block " << b;
  }
}

}  // namespace
}  // namespace vdb::engine
