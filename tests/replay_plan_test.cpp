// Every replay driver routes its page records through engine::RedoApplyPlan.
// These tests drive instance, media, point-in-time and TPC-C crash recovery
// through it and check the recovered data and RecoveryReport fields, and
// hold the plan's in-memory apply to the engine's one-record-at-a-time
// apply_record, byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

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

RecoveredState recover_after_crash() {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
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

bool contains(const std::vector<std::string>& rows, const std::string& r) {
  return std::find(rows.begin(), rows.end(), r) != rows.end();
}

TEST(ReplayPlanTest, InstanceRecoveryKeepsCommittedRowsOnly) {
  const RecoveredState state = recover_after_crash();
  // 120 inserted, 10 erased by the committed transaction.
  EXPECT_EQ(state.accounts.size(), 110u);
  EXPECT_EQ(state.audit.size(), 40u);
  EXPECT_TRUE(contains(state.accounts, "updated0"));
  EXPECT_TRUE(contains(state.accounts, "updated27"));
  EXPECT_FALSE(contains(state.accounts, "row60"));
  // The loser's changes must be gone.
  for (const auto& r : state.accounts) {
    EXPECT_NE(r, "uncommitted");
    EXPECT_NE(r, "dirty");
  }
}

struct MediaOutcome {
  recovery::RecoveryReport report;
  std::vector<std::string> before_fault;
  std::vector<std::string> accounts;
};

MediaOutcome recover_deleted_datafile() {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config(/*archive=*/true);
  SmallDb small(env, cfg);
  recovery::BackupManager backups(&env.host.fs(), "/backup");
  recovery::RecoveryManager rm(&env.host, &env.sched, &backups);

  put_row(*small.db, small.table, "pre-backup");
  VDB_CHECK(backups.take_backup(*small.db).is_ok());
  // No transaction left open: media recovery on a live instance expects
  // writers to have ended (open ones are rolled back by the operator first).
  run_workload(small, /*leave_loser=*/false);
  MediaOutcome out;
  out.before_fault = all_rows(*small.db, small.table);

  VDB_CHECK(env.host.fs().remove("/data/users01.dbf").is_ok());
  small.db->storage().cache().discard_all();
  small.db->storage().mark_missing(FileId{0});

  auto report = rm.recover_datafile(*small.db, FileId{0});
  VDB_CHECK_MSG(report.is_ok(), report.status().to_string());
  out.report = report.value();
  out.accounts = all_rows(*small.db, small.table);
  return out;
}

TEST(ReplayPlanTest, MediaRecoveryRestoresTheDeletedDatafile) {
  const MediaOutcome out = recover_deleted_datafile();
  EXPECT_TRUE(out.report.complete);
  EXPECT_EQ(out.report.files_restored, 1u);
  EXPECT_EQ(out.report.records_skipped, 0u);
  // Every committed change since the backup: 120 + 40 inserts, 10 updates
  // and 10 deletes at least (DDL records apply too).
  EXPECT_GE(out.report.records_applied, 180u);
  EXPECT_GT(out.report.recovered_to, Lsn{0});
  EXPECT_NE(out.report.recovered_to, kInvalidLsn);
  EXPECT_EQ(out.accounts.size(), 111u);  // "pre-backup" + 110
  EXPECT_EQ(out.accounts, out.before_fault);
}

struct PitOutcome {
  recovery::RecoveryReport report;
  std::vector<std::string> accounts;
  bool audit_lost = false;
};

PitOutcome incomplete_recovery() {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config(/*archive=*/true);
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

TEST(ReplayPlanTest, IncompleteRecoveryStopsAtItsTarget) {
  const PitOutcome out = incomplete_recovery();
  EXPECT_FALSE(out.report.complete);
  EXPECT_GE(out.report.records_applied, 60u);
  EXPECT_EQ(out.report.records_skipped, 0u);
  ASSERT_EQ(out.accounts.size(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(contains(out.accounts, "keep" + std::to_string(i))) << i;
  }
  EXPECT_TRUE(out.audit_lost);
}

// Full-stack check: TPC-C crash recovery keeps every consistency condition.
struct TpccOutcome {
  std::uint32_t violations = 0;
  std::uint64_t orders = 0;
};

TpccOutcome tpcc_crash_recovery() {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  cfg.redo.file_size_bytes = 8 * 1024 * 1024;
  cfg.storage.cache_pages = 1024;
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

TEST(ReplayPlanTest, TpccCrashRecoveryStaysConsistent) {
  const TpccOutcome out = tpcc_crash_recovery();
  EXPECT_EQ(out.violations, 0u);
  EXPECT_GT(out.orders, 0u);
}

// The plan's in-memory apply against the engine's serial one. Two twin
// databases receive the same update records: one through a plan, drained
// once per batch, the other one record at a time through
// Database::apply_record. The second batch re-sends half of the first with
// stale images, which the page-LSN guard must skip on both sides. A small
// cache makes each drain span several pin chunks, so evictions happen in
// the middle of a drain. Every block of users01 must come out identical.
constexpr std::uint32_t kOracleCachePages = 16;
constexpr int kOracleRows = 2048;

std::string wide_row(const std::string& tag) {
  return tag + std::string(60 - tag.size(), '.');  // fills a 64-byte slot
}

// Update i of the oracle stream: LSN `base + i`, dealt round-robin over
// `rids`, with an after image tagged `tag`.
wal::LogRecord oracle_update(TableId table, const std::vector<RowId>& rids,
                             Lsn base, int i, const std::string& tag) {
  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kUpdate;
  rec.txn = TxnId{9001};
  rec.lsn = base + static_cast<Lsn>(i);
  rec.dml.table = table;
  rec.dml.rid = rids[static_cast<std::size_t>(i) % rids.size()];
  rec.dml.after = row(wide_row(tag + std::to_string(i)));
  return rec;
}

struct OracleTwin {
  SimEnv env;
  SmallDb small;
  std::vector<RowId> rids;

  static engine::DatabaseConfig config() {
    engine::DatabaseConfig cfg = small_db_config();
    cfg.storage.cache_pages = kOracleCachePages;
    return cfg;
  }

  OracleTwin() : small(env, config()) {
    for (int i = 0; i < kOracleRows; ++i) {
      rids.push_back(put_row(*small.db, small.table,
                             wide_row("row" + std::to_string(i))));
    }
  }

  // Checkpoints, then reads every block of users01 from the file.
  std::vector<std::vector<std::uint8_t>> blocks() {
    VDB_CHECK(small.db->checkpoint_now().is_ok());
    auto info = small.db->storage().file_info(FileId{0});
    VDB_CHECK(info.is_ok());
    std::vector<std::vector<std::uint8_t>> out;
    for (std::uint32_t b = 0; b < info.value()->blocks; ++b) {
      std::vector<std::uint8_t> bytes(storage::Page::kSize);
      VDB_CHECK(env.host.fs()
                    .read("/data/users01.dbf",
                          static_cast<std::uint64_t>(b) * storage::Page::kSize,
                          bytes, sim::IoMode::kForeground)
                    .is_ok());
      out.push_back(std::move(bytes));
    }
    return out;
  }
};

TEST(ReplayPlanTest, PlanDrainMatchesSerialApplyRecord) {
  OracleTwin planned;
  OracleTwin serial;
  ASSERT_EQ(planned.rids, serial.rids);
  std::set<PageId> pages;
  for (const RowId& rid : planned.rids) pages.insert(rid.page);
  // More runs than one chunk pins (half the cache).
  ASSERT_GT(pages.size(), kOracleCachePages / 2);

  // Batch one: updates [0, 3000). Batch two: [1500, 4000), where the first
  // 1500 carry stale images below the pages' LSNs.
  constexpr int kFirstEnd = 3000;
  constexpr int kSecondBegin = 1500;
  constexpr int kSecondEnd = 4000;
  const Lsn base = Lsn{1} << 40;  // above anything the workload wrote
  const TableId table = planned.small.table;
  auto tag_of = [&](int batch, int i) {
    return batch == 2 && i < kFirstEnd ? std::string("stale")
                                       : std::string("new");
  };

  planned.small.db->set_recovering(true);
  serial.small.db->set_recovering(true);
  std::uint64_t applied[3] = {0, 0, 0};
  for (int batch : {1, 2}) {
    const int begin = batch == 1 ? 0 : kSecondBegin;
    const int end = batch == 1 ? kFirstEnd : kSecondEnd;
    RedoApplyPlan plan = planned.small.db->make_replay_plan();
    for (int i = begin; i < end; ++i) {
      const wal::LogRecord rec =
          oracle_update(table, planned.rids, base, i, tag_of(batch, i));
      plan.stage(rec);
      ASSERT_TRUE(serial.small.db->apply_record(rec).is_ok()) << i;
    }
    auto stats = plan.drain();
    ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
    applied[batch] = stats.value().applied;
    EXPECT_FALSE(plan.has_pending());
  }
  planned.small.db->set_recovering(false);
  serial.small.db->set_recovering(false);

  // Guard-skipped records count as applied.
  EXPECT_EQ(applied[1], static_cast<std::uint64_t>(kFirstEnd));
  EXPECT_EQ(applied[2], static_cast<std::uint64_t>(kSecondEnd - kSecondBegin));

  const auto rows = all_rows(*planned.small.db, table);
  EXPECT_EQ(rows.size(), static_cast<std::size_t>(kOracleRows));
  EXPECT_EQ(rows, all_rows(*serial.small.db, table));
  for (const auto& r : rows) {
    EXPECT_EQ(r.find("stale"), std::string::npos) << r;
  }

  const auto planned_blocks = planned.blocks();
  const auto serial_blocks = serial.blocks();
  ASSERT_EQ(planned_blocks.size(), serial_blocks.size());
  for (std::size_t b = 0; b < planned_blocks.size(); ++b) {
    EXPECT_EQ(planned_blocks[b], serial_blocks[b]) << "block " << b;
  }
}

}  // namespace
}  // namespace vdb::engine
