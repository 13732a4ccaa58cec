// Early-open restart modes (M1 traditional .. M4 mixed) must be invisible
// to the recovered state: whatever the mode or the stall knob, the database
// converges to the byte-identical end state the traditional restart
// produces. On top of that determinism gate, these tests pin the
// mode-specific contracts: M2 rejects (or stalls on) user DML against pages
// with pending redo, M3 recovers pages lazily on fetch and trickles the
// rest in the background, a drain that fails on I/O leaves its redo pending
// for a retry, a second crash in the middle of an early-open restart is
// recoverable, and the recovery trace spans keep tiling the trace with the
// on_demand phase in play.
#include <gtest/gtest.h>

#include <algorithm>

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
using testing::read_str;
using testing::row;
using testing::row_str;
using testing::small_db_config;

// Deterministic mixed workload in the shape of replay_plan_test's, with
// one twist: a checkpoint in the middle. Pages never flushed to disk are
// drained eagerly while the object state is rebuilt (the datafile scan
// cannot see them), so it is the checkpointed pages with post-checkpoint
// redo — spread across several accounts and audit pages here — that stay
// pending behind an early open.
struct WorkloadState {
  TableId audit{};
  std::vector<RowId> rids;
  std::vector<RowId> audit_rids;
};

WorkloadState run_workload(SmallDb& small) {
  engine::Database& db = *small.db;
  WorkloadState ws;
  for (int i = 0; i < 300; ++i) {
    ws.rids.push_back(put_row(db, small.table, "row" + std::to_string(i)));
  }
  auto audit = db.create_table("audit", "USERS", 256, small.user);
  VDB_CHECK(audit.is_ok());
  ws.audit = audit.value();
  for (int i = 0; i < 120; ++i) {
    ws.audit_rids.push_back(
        put_row(db, ws.audit, "audit" + std::to_string(i)));
  }
  // Flush everything: the redo staged after this point is what an early
  // open leaves pending.
  VDB_CHECK(db.checkpoint_now().is_ok());
  auto txn = db.begin();
  VDB_CHECK(txn.is_ok());
  for (int i = 0; i < 300; i += 25) {
    VDB_CHECK(db.update(txn.value(), small.table, ws.rids[i],
                        row("updated" + std::to_string(i)))
                  .is_ok());
  }
  for (int i = 60; i < 70; ++i) {
    VDB_CHECK(db.erase(txn.value(), small.table, ws.rids[i]).is_ok());
  }
  for (int i = 0; i < 120; i += 10) {
    VDB_CHECK(db.update(txn.value(), ws.audit, ws.audit_rids[i],
                        row("audited" + std::to_string(i)))
                  .is_ok());
  }
  VDB_CHECK(db.commit(txn.value()).is_ok());
  // Loser: open at the crash, must be rolled back by recovery.
  auto loser = db.begin();
  VDB_CHECK(loser.is_ok());
  (void)db.insert(loser.value(), small.table, row("uncommitted"));
  (void)db.update(loser.value(), small.table, ws.rids[1], row("dirty"));
  return ws;
}

struct RecoveredState {
  std::vector<std::string> accounts;
  std::vector<std::string> audit;
};

RecoveredState crash_and_recover(RestartMode mode, bool stall) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  cfg.restart_mode = mode;
  cfg.early_open_stall = stall;
  SmallDb small(env, cfg);
  run_workload(small);
  VDB_CHECK(small.db->shutdown_abort().is_ok());

  engine::Database next(&env.host, &env.sched, cfg);
  VDB_CHECK(next.startup().is_ok());
  // Drain whatever the mode left pending so the comparison sees the
  // converged end state (a no-op for M1).
  VDB_CHECK(next.complete_restart_recovery().is_ok());
  VDB_CHECK(next.restart_coordinator() == nullptr);
  RecoveredState state;
  state.accounts = all_rows(next, next.table_id("accounts").value());
  state.audit = all_rows(next, next.table_id("audit").value());
  return state;
}

TEST(RestartModesTest, AllModesConvergeToTraditionalState) {
  const RecoveredState baseline =
      crash_and_recover(RestartMode::kM1Traditional, false);
  ASSERT_FALSE(baseline.accounts.empty());
  for (const auto& r : baseline.accounts) {
    EXPECT_NE(r, "uncommitted");
    EXPECT_NE(r, "dirty");
  }
  struct Combo {
    RestartMode mode;
    bool stall;
  };
  const Combo combos[] = {
      {RestartMode::kM1Traditional, false},
      {RestartMode::kM2EarlyOpen, false},
      {RestartMode::kM2EarlyOpen, true},
      {RestartMode::kM3OnDemand, false},
      {RestartMode::kM4Mixed, false},
  };
  for (const Combo& combo : combos) {
    const RecoveredState state = crash_and_recover(combo.mode, combo.stall);
    EXPECT_EQ(state.accounts, baseline.accounts)
        << to_string(combo.mode) << " stall=" << combo.stall;
    EXPECT_EQ(state.audit, baseline.audit)
        << to_string(combo.mode) << " stall=" << combo.stall;
  }
}

// Crash under an early-open mode, restart, and hand back the pieces the
// mode-contract tests poke at.
struct EarlyOpenRig {
  SimEnv env;
  engine::DatabaseConfig cfg;
  WorkloadState ws;
  std::unique_ptr<engine::Database> db;
  TableId accounts{};

  EarlyOpenRig(RestartMode mode, bool stall,
               obs::Observability* shared_obs = nullptr) {
    cfg = small_db_config();
    cfg.restart_mode = mode;
    cfg.early_open_stall = stall;
    if (shared_obs != nullptr) cfg.obs = shared_obs;
    SmallDb small(env, cfg);
    ws = run_workload(small);
    VDB_CHECK(small.db->shutdown_abort().is_ok());
    // A harness-owned trace (the experiment does the same) stays active
    // across the open so post-open on-demand work records spans into it.
    if (shared_obs != nullptr) {
      shared_obs->tracer().start("restart", env.clock.now());
    }
    db = std::make_unique<engine::Database>(&env.host, &env.sched, cfg);
    VDB_CHECK(db->startup().is_ok());
    accounts = db->table_id("accounts").value();
  }

  /// A committed row whose page still has redo pending after the open,
  /// together with the table it lives in (the loser's eager pre-undo
  /// drain may have cleared some accounts pages, so audit is searched
  /// too).
  struct PendingRow {
    TableId table{};
    RowId rid{};
  };
  PendingRow pending_row() const {
    const RestartCoordinator* rc = db->restart_coordinator();
    VDB_CHECK(rc != nullptr);
    for (const RowId& rid : ws.rids) {
      if (rc->page_pending(rid.page)) return {accounts, rid};
    }
    for (const RowId& rid : ws.audit_rids) {
      if (rc->page_pending(rid.page)) {
        return {db->table_id("audit").value(), rid};
      }
    }
    VDB_CHECK_MSG(false, "no workload row on a pending page");
    return {};
  }
};

TEST(RestartModesTest, M2RejectsUserDmlOnPendingPages) {
  EarlyOpenRig rig(RestartMode::kM2EarlyOpen, /*stall=*/false);
  ASSERT_TRUE(rig.db->restart_coordinator() != nullptr);
  ASSERT_TRUE(rig.db->restart_coordinator()->has_pending());
  const auto [table, rid] = rig.pending_row();

  auto txn = rig.db->begin();
  ASSERT_TRUE(txn.is_ok());
  auto read = read_str(*rig.db, txn.value(), table, rid);
  EXPECT_EQ(read.code(), ErrorCode::kRecoveryRequired);
  auto update = rig.db->update(txn.value(), table, rid, row("new"));
  EXPECT_EQ(update.code(), ErrorCode::kRecoveryRequired);
  ASSERT_TRUE(rig.db->rollback(txn.value()).is_ok());

  // Once restart recovery completes the same access goes through.
  ASSERT_TRUE(rig.db->complete_restart_recovery().is_ok());
  auto txn2 = rig.db->begin();
  ASSERT_TRUE(txn2.is_ok());
  EXPECT_TRUE(read_str(*rig.db, txn2.value(), table, rid).is_ok());
  ASSERT_TRUE(rig.db->commit(txn2.value()).is_ok());
}

TEST(RestartModesTest, M2StallRecoversThePageInline) {
  EarlyOpenRig rig(RestartMode::kM2EarlyOpen, /*stall=*/true);
  ASSERT_TRUE(rig.db->restart_coordinator() != nullptr);
  const auto [table, rid] = rig.pending_row();

  auto txn = rig.db->begin();
  ASSERT_TRUE(txn.is_ok());
  auto read = read_str(*rig.db, txn.value(), table, rid);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  ASSERT_TRUE(rig.db->commit(txn.value()).is_ok());

  const RestartCoordinator* rc = rig.db->restart_coordinator();
  ASSERT_TRUE(rc != nullptr);
  EXPECT_GE(rc->recovered_on_demand(), 1u);
  EXPECT_FALSE(rc->page_pending(rid.page));
  // The inline drain is charged to the recovery_read_stall wait event.
  EXPECT_GE(rig.db->obs().waits().total_waits(
                obs::WaitEvent::kRecoveryReadStall),
            1u);
}

TEST(RestartModesTest, M3RecoversOnFetchAndTricklesInBackground) {
  EarlyOpenRig rig(RestartMode::kM3OnDemand, /*stall=*/false);
  ASSERT_TRUE(rig.db->restart_coordinator() != nullptr);
  ASSERT_TRUE(rig.db->restart_coordinator()->has_pending());
  const auto [table, rid] = rig.pending_row();

  // On-demand: a read of a pending page recovers it on the spot (M3 never
  // rejects) and the row comes back with its committed contents.
  auto txn = rig.db->begin();
  ASSERT_TRUE(txn.is_ok());
  auto read = read_str(*rig.db, txn.value(), table, rid);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  ASSERT_TRUE(rig.db->commit(txn.value()).is_ok());
  EXPECT_GE(rig.db->restart_coordinator()->recovered_on_demand(), 1u);

  // Background: the trickle sweeper (1 s cadence for M3) drains the rest;
  // once the plan is empty the coordinator tears itself down.
  rig.env.sched.run_until(rig.env.clock.now() + 120 * kSecond);
  EXPECT_TRUE(rig.db->restart_coordinator() == nullptr);

  const std::uint64_t background =
      rig.db->obs().registry().counter("pages recovered background")->value();
  EXPECT_GE(background, 1u);
}

TEST(RestartModesTest, SecondCrashDuringEarlyOpenRestartIsRecoverable) {
  EarlyOpenRig rig(RestartMode::kM3OnDemand, /*stall=*/false);
  ASSERT_TRUE(rig.db->restart_coordinator() != nullptr);

  // Recover a couple of pages on demand, then crash again with the bulk of
  // the redo still pending (the double-failure case: the control file must
  // not have advanced past the pending records).
  const auto [table, rid] = rig.pending_row();
  auto txn = rig.db->begin();
  ASSERT_TRUE(txn.is_ok());
  ASSERT_TRUE(read_str(*rig.db, txn.value(), table, rid).is_ok());
  ASSERT_TRUE(rig.db->commit(txn.value()).is_ok());
  ASSERT_TRUE(rig.db->restart_coordinator()->has_pending());
  ASSERT_TRUE(rig.db->shutdown_abort().is_ok());

  // Third incarnation, traditional restart: must replay everything that
  // was still pending and land on the converged state.
  engine::DatabaseConfig cfg = rig.cfg;
  cfg.restart_mode = RestartMode::kM1Traditional;
  engine::Database next(&rig.env.host, &rig.env.sched, cfg);
  ASSERT_TRUE(next.startup().is_ok());
  EXPECT_TRUE(next.restart_coordinator() == nullptr);

  const auto accounts = all_rows(next, next.table_id("accounts").value());
  const RecoveredState baseline =
      crash_and_recover(RestartMode::kM1Traditional, false);
  EXPECT_EQ(accounts, baseline.accounts);
}

TEST(RestartModesTest, M3FailedDrainLeavesRedoPendingForRetry) {
  EarlyOpenRig rig(RestartMode::kM3OnDemand, /*stall=*/false);
  ASSERT_TRUE(rig.db->restart_coordinator() != nullptr);
  ASSERT_TRUE(rig.db->restart_coordinator()->has_pending());

  // Write back what the open dirtied, then drop every frame, so draining a
  // pending page has to read it from disk.
  storage::BufferCache& cache = rig.db->storage().cache();
  (void)cache.checkpoint();
  ASSERT_EQ(cache.dirty_count(), 0u);
  cache.discard_all();

  // Every datafile read fails: a drain exhausts its retries on the first
  // pending page and must leave that run, and every run after it, pending.
  // First the on-demand drain of one page, then the full sweep.
  const auto [table, rid] = rig.pending_row();
  sim::SimFs& fs = rig.env.host.fs();
  fs.inject_transient_errors("/data", rig.env.clock.now() + 3600 * kSecond,
                             1.0, /*seed=*/5);
  auto txn = rig.db->begin();
  ASSERT_TRUE(txn.is_ok());
  EXPECT_FALSE(read_str(*rig.db, txn.value(), table, rid).is_ok());
  ASSERT_TRUE(rig.db->rollback(txn.value()).is_ok());
  EXPECT_TRUE(rig.db->restart_coordinator()->page_pending(rid.page));
  EXPECT_FALSE(rig.db->complete_restart_recovery().is_ok());
  ASSERT_TRUE(rig.db->restart_coordinator() != nullptr);
  EXPECT_TRUE(rig.db->restart_coordinator()->has_pending());
  fs.clear_transient_errors();

  ASSERT_TRUE(rig.db->complete_restart_recovery().is_ok());
  EXPECT_TRUE(rig.db->restart_coordinator() == nullptr);
  const RecoveredState baseline =
      crash_and_recover(RestartMode::kM1Traditional, false);
  EXPECT_EQ(all_rows(*rig.db, rig.accounts), baseline.accounts);
  EXPECT_EQ(all_rows(*rig.db, rig.db->table_id("audit").value()),
            baseline.audit);
}

TEST(RestartModesTest, TraceSpansKeepTilingWithOnDemandPhase) {
  obs::Observability shared;
  EarlyOpenRig rig(RestartMode::kM3OnDemand, /*stall=*/false, &shared);
  ASSERT_TRUE(rig.db->restart_coordinator() != nullptr);

  // Generate on-demand spans, then let the sweeper add background ones.
  const auto [table, rid] = rig.pending_row();
  auto txn = rig.db->begin();
  ASSERT_TRUE(txn.is_ok());
  ASSERT_TRUE(read_str(*rig.db, txn.value(), table, rid).is_ok());
  ASSERT_TRUE(rig.db->commit(txn.value()).is_ok());
  ASSERT_TRUE(rig.db->complete_restart_recovery().is_ok());

  obs::RecoveryTracer& tracer = rig.db->obs().tracer();
  ASSERT_TRUE(tracer.active());
  tracer.finish(rig.env.clock.now());
  const obs::RecoveryTrace* trace = tracer.latest();
  ASSERT_TRUE(trace != nullptr);
  ASSERT_TRUE(trace->finished);

  // Spans tile: they are gap-free, in order, and sum to end - start.
  SimDuration sum = 0;
  SimTime cursor = trace->start;
  for (const obs::PhaseSpan& span : trace->spans) {
    EXPECT_EQ(span.start, cursor);
    cursor = span.end;
    sum += span.duration();
  }
  EXPECT_EQ(cursor, trace->end);
  EXPECT_EQ(sum, trace->end - trace->start);
  EXPECT_GT(trace->phase_time(obs::RecoveryPhase::kOnDemand), 0u);
}

// Live TPC-C over an M3 restart: on-demand recovery under real traffic,
// interrupted by a second crash mid-restart, must keep every TPC-C
// consistency condition.
TEST(RestartModesTest, TpccOnDemandRestartSurvivesConcurrentCrash) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  cfg.redo.file_size_bytes = 8 * 1024 * 1024;
  cfg.storage.cache_pages = 1024;
  cfg.restart_mode = RestartMode::kM3OnDemand;
  auto db = std::make_unique<engine::Database>(&env.host, &env.sched, cfg);
  ASSERT_TRUE(db->create().is_ok());
  ASSERT_TRUE(db->create_tablespace("TPCC", {{"/data/t1.dbf", 512},
                                             {"/data/t2.dbf", 512}})
                  .is_ok());
  auto user = db->create_user("TPCC", false);
  tpcc::TpccScale scale;
  scale.warehouses = 1;
  scale.customers_per_district = 30;
  scale.items = 200;
  scale.initial_orders_per_district = 30;
  tpcc::TpccDb tdb(scale);
  ASSERT_TRUE(tdb.create_schema(*db, "TPCC", user.value()).is_ok());
  ASSERT_TRUE(tdb.attach(db.get()).is_ok());
  tpcc::Loader loader(&tdb, 7);
  ASSERT_TRUE(loader.load().is_ok());
  tpcc::TpccRandom random(Rng{11}, scale);
  tpcc::TpccTxns txns(&tdb, &random);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(txns.new_order(1).is_ok());
  }
  // Checkpoint mid-run so the later orders' pages are on disk with redo
  // pending on top — the state an early open actually leaves behind.
  ASSERT_TRUE(db->checkpoint_now().is_ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(txns.new_order(1).is_ok());
  }
  ASSERT_TRUE(db->shutdown_abort().is_ok());

  // First restart: M3 opens with redo pending; live transactions recover
  // the pages they touch on demand.
  auto db2 = std::make_unique<engine::Database>(&env.host, &env.sched, cfg);
  db2->set_on_mounted([&](engine::Database& d) { (void)tdb.attach(&d); });
  ASSERT_TRUE(db2->startup().is_ok());
  ASSERT_TRUE(db2->restart_coordinator() != nullptr);
  for (int i = 0; i < 10; ++i) {
    auto outcome = txns.new_order(1);
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  }
  EXPECT_GE(db2->restart_coordinator() != nullptr
                ? db2->restart_coordinator()->recovered_on_demand()
                : 1u,
            1u);

  // Second crash while restart recovery is still pending.
  ASSERT_TRUE(db2->shutdown_abort().is_ok());
  auto db3 = std::make_unique<engine::Database>(&env.host, &env.sched, cfg);
  db3->set_on_mounted([&](engine::Database& d) { (void)tdb.attach(&d); });
  ASSERT_TRUE(db3->startup().is_ok());
  ASSERT_TRUE(db3->complete_restart_recovery().is_ok());

  tpcc::ConsistencyChecker checker(&tdb);
  auto report = checker.run_all();
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().violations, 0u);
  std::uint64_t orders = 0;
  ASSERT_TRUE(db3->scan(tdb.table(tpcc::Tbl::kOrder),
                        [&](RowId, std::span<const std::uint8_t>) {
                          orders += 1;
                          return true;
                        })
                  .is_ok());
  // 30 initial + 40 pre-crash; the 10 mid-restart orders may or may not
  // have all survived the second crash's loser rollback, but committed
  // ones must be there.
  EXPECT_GE(orders, 70u);
}

}  // namespace
}  // namespace vdb::engine
