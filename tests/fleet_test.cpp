#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "engine/admin_shell.hpp"
#include "faults/classification.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_admin.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/fleet_experiment.hpp"
#include "fleet/fleet_txns.hpp"
#include "fleet/orchestrator.hpp"

namespace vdb::fleet {
namespace {

FleetConfig small_cfg(std::uint32_t shards = 2) {
  FleetConfig cfg;
  cfg.shards = shards;
  // Spec district count (the loader seeds W_YTD assuming it); everything
  // else shrunk for test speed.
  cfg.scale.warehouses = 4;
  cfg.scale.customers_per_district = 30;
  cfg.scale.items = 200;
  cfg.scale.initial_orders_per_district = 30;
  return cfg;
}

/// Drives the closed loop until the armed crash fires (bounded so a
/// never-firing hook fails the test instead of hanging it).
Status drive_until_crash(FleetDriver* driver, Fleet* fleet) {
  return driver->run_until(fleet->clock().now() + 120 * kMinute);
}

/// The one distributed transaction the crash caught in flight.
GlobalTxn* unfinished_gtxn(Fleet* fleet) {
  GlobalTxn* found = nullptr;
  for (auto& [id, g] : fleet->registry().txns()) {
    if (!g.finished) {
      EXPECT_EQ(found, nullptr) << "more than one unfinished gtxn";
      found = &g;
    }
  }
  return found;
}

TEST(FleetTest, PartitionCoversEveryWarehouseOnce) {
  Fleet fleet(small_cfg(2));
  ASSERT_TRUE(fleet.setup().is_ok());
  std::uint32_t total = 0;
  for (std::uint32_t i = 0; i < fleet.size(); ++i) {
    EXPECT_FALSE(fleet.shard(i).warehouses.empty());
    for (const std::uint32_t w : fleet.shard(i).warehouses) {
      EXPECT_EQ(fleet.shard_of(w), i);
      total += 1;
    }
  }
  EXPECT_EQ(total, fleet.scale().warehouses);
}

TEST(FleetTest, FaultFreeRunCommitsCrossShardWork) {
  FleetExperimentOptions opts;
  opts.shards = 2;
  opts.duration = 2 * kMinute;
  opts.fleet = small_cfg();
  auto result = FleetExperiment(opts).run();
  ASSERT_TRUE(result.is_ok()) << result.status().message();
  const FleetExperimentResult& r = result.value();
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(r.cross_shard_started, 0u);
  EXPECT_GT(r.cross_shard_committed, 0u);
  EXPECT_EQ(r.atomicity_violations, 0u);
  EXPECT_EQ(r.promotions, 0u);
  EXPECT_GT(r.integrity_checks, 0u);
  EXPECT_EQ(r.integrity_violations, 0u)
      << (r.integrity_messages.empty() ? "" : r.integrity_messages.front());
  EXPECT_FALSE(r.history_check_skipped);
}

TEST(FleetTest, CoordinatorCrashAfterDecisionCommitsEverywhere) {
  Fleet fleet(small_cfg());
  ASSERT_TRUE(fleet.setup().is_ok());
  obs::Observability obs;
  FleetDriver driver(&fleet, &obs, tpcc::DriverConfig{});
  FailoverOrchestrator orch(&fleet, OrchestratorConfig{}, &obs);

  std::optional<std::uint32_t> victim;
  driver.txns().arm_crash(CrashPoint::kAfterDecision, [&](std::uint32_t s) {
    victim = s;
    (void)fleet.kill_shard(s);
  });
  Status st = drive_until_crash(&driver, &fleet);
  ASSERT_FALSE(st.is_ok());
  ASSERT_TRUE(victim.has_value());

  GlobalTxn* g = unfinished_gtxn(&fleet);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->coord, *victim);
  EXPECT_TRUE(g->decided);
  EXPECT_TRUE(g->decision);
  for (const BranchRecord& b : g->branches) EXPECT_EQ(b.outcome, '?');

  // Operator restarts the dead coordinator in place: instance recovery
  // reconstructs the prepared branch and the durable COMMIT decision.
  ASSERT_TRUE(fleet.restart_shard(*victim).is_ok());
  ASSERT_TRUE(fleet.healthy());
  orch.resolve_in_doubt();

  EXPECT_TRUE(g->finished);
  for (const BranchRecord& b : g->branches) {
    EXPECT_EQ(b.outcome, 'C') << "branch on shard " << b.shard;
  }
  EXPECT_EQ(fleet.registry().atomicity_violations(), 0u);
  EXPECT_GE(orch.in_doubt_resolved(), 2u);
}

TEST(FleetTest, CoordinatorCrashBeforePrepareAbortsEverywhere) {
  Fleet fleet(small_cfg());
  ASSERT_TRUE(fleet.setup().is_ok());
  obs::Observability obs;
  FleetDriver driver(&fleet, &obs, tpcc::DriverConfig{});

  std::optional<std::uint32_t> victim;
  driver.txns().arm_crash(CrashPoint::kBeforePrepare, [&](std::uint32_t s) {
    victim = s;
    (void)fleet.kill_shard(s);
  });
  Status st = drive_until_crash(&driver, &fleet);
  ASSERT_FALSE(st.is_ok());
  ASSERT_TRUE(victim.has_value());

  // Nothing was prepared, so the interaction settled as a plain abort on
  // the spot: no branch is in doubt anywhere.
  ASSERT_FALSE(fleet.registry().txns().empty());
  const GlobalTxn& g = fleet.registry().txns().rbegin()->second;
  EXPECT_TRUE(g.finished);
  for (const BranchRecord& b : g.branches) EXPECT_EQ(b.outcome, 'A');

  ASSERT_TRUE(fleet.restart_shard(*victim).is_ok());
  EXPECT_TRUE(fleet.healthy());
  EXPECT_TRUE(fleet.shard(*victim).db->in_doubt_branches().empty());
  EXPECT_EQ(fleet.registry().atomicity_violations(), 0u);
}

TEST(FleetTest, ParticipantCrashMidPrepareAbortsEverywhere) {
  Fleet fleet(small_cfg());
  ASSERT_TRUE(fleet.setup().is_ok());
  obs::Observability obs;
  FleetDriver driver(&fleet, &obs, tpcc::DriverConfig{});

  std::optional<std::uint32_t> victim;
  driver.txns().arm_crash(CrashPoint::kMidPrepare, [&](std::uint32_t s) {
    victim = s;
    (void)fleet.kill_shard(s);
  });
  Status st = drive_until_crash(&driver, &fleet);
  ASSERT_FALSE(st.is_ok());
  ASSERT_TRUE(victim.has_value());

  // The participant died before its PREPARE: the coordinator decided
  // abort, and the dead shard's branch is a plain loser that instance
  // recovery rolls back without coordination.
  ASSERT_FALSE(fleet.registry().txns().empty());
  const GlobalTxn& g = fleet.registry().txns().rbegin()->second;
  EXPECT_NE(g.coord, *victim);
  EXPECT_TRUE(g.finished);
  EXPECT_FALSE(g.decided);
  for (const BranchRecord& b : g.branches) EXPECT_EQ(b.outcome, 'A');

  ASSERT_TRUE(fleet.restart_shard(*victim).is_ok());
  EXPECT_TRUE(fleet.healthy());
  EXPECT_TRUE(fleet.shard(*victim).db->in_doubt_branches().empty());
  EXPECT_EQ(fleet.registry().atomicity_violations(), 0u);
}

// A shard loads its own warehouses and the whole (replicated) catalog, so
// its dense paths hold no stock or warehouse row of another shard's
// warehouse, whether that id sits below or above its own.
TEST(FleetTest, ShardHoldsNoRowsOfForeignWarehouses) {
  Fleet fleet(small_cfg(2));
  ASSERT_TRUE(fleet.setup().is_ok());
  const std::uint32_t items = fleet.scale().items;
  for (std::uint32_t s = 0; s < fleet.size(); ++s) {
    for (std::uint32_t w = 1; w <= fleet.scale().warehouses; ++w) {
      const bool own = fleet.shard_of(w) == s;
      EXPECT_EQ(fleet.tdb(s).warehouse_rid(w).has_value(), own)
          << "shard " << s << " warehouse " << w;
      EXPECT_EQ(fleet.tdb(s).stock_rid(w, 1).has_value(), own)
          << "shard " << s << " warehouse " << w;
      EXPECT_EQ(fleet.tdb(s).stock_rid(w, items).has_value(), own)
          << "shard " << s << " warehouse " << w;
    }
    EXPECT_TRUE(fleet.tdb(s).item_rid(items).has_value());
  }
}

// Testbed::restart attaches the access paths before the rebuild scan, so
// the new incarnation serves exactly the entries the old one did.
TEST(FleetTest, TestbedRestartRebuildsEveryIndexEntry) {
  Fleet fleet(small_cfg(2));
  ASSERT_TRUE(fleet.setup().is_ok());
  Shard& shard = fleet.shard(0);
  const size_t entries = shard.tdb->index_entries();
  const std::uint32_t w = shard.warehouses.front();
  const auto stock = shard.tdb->stock_rid(w, 7);
  ASSERT_TRUE(stock.has_value());

  ASSERT_TRUE(shard.db->shutdown_abort().is_ok());
  ASSERT_TRUE(shard.restart().is_ok());
  EXPECT_EQ(shard.tdb->index_entries(), entries);
  EXPECT_EQ(shard.tdb->stock_rid(w, 7), stock);
}

TEST(FleetTest, RestartedShardKeepsItsAccessPaths) {
  Fleet fleet(small_cfg());
  ASSERT_TRUE(fleet.setup().is_ok());
  obs::Observability obs;
  FleetDriver driver(&fleet, &obs, tpcc::DriverConfig{});
  ASSERT_TRUE(driver.run_until(fleet.clock().now() + 1 * kMinute).is_ok());
  const size_t entries = fleet.tdb(0).index_entries();
  ASSERT_GT(entries, 0u);

  // The restarted incarnation's rebuild scan refills the access paths from
  // the recovered rows.
  ASSERT_TRUE(fleet.kill_shard(0).is_ok());
  ASSERT_TRUE(fleet.restart_shard(0).is_ok());
  EXPECT_EQ(fleet.tdb(0).index_entries(), entries);

  const std::uint64_t committed = driver.stats().committed;
  Status resumed = driver.run_until(fleet.clock().now() + 1 * kMinute);
  EXPECT_TRUE(resumed.is_ok()) << resumed.to_string();
  EXPECT_GT(driver.stats().committed, committed);
}

TEST(FleetTest, CommitLogRecordsBranchesOfCrossShardCommits) {
  Fleet fleet(small_cfg());
  ASSERT_TRUE(fleet.setup().is_ok());
  obs::Observability obs;
  FleetDriver driver(&fleet, &obs, tpcc::DriverConfig{});
  ASSERT_TRUE(driver.run_until(fleet.clock().now() + 1 * kMinute).is_ok());
  const SimTime now = fleet.clock().now();

  // The two-phase registry sees every cross-shard commit independently of
  // the driver: keyed by (coordinator, coordinator's commit LSN).
  std::map<std::pair<std::uint32_t, Lsn>, GlobalTxn*> two_phase;
  for (auto& [id, g] : fleet.registry().txns()) {
    ASSERT_TRUE(g.finished && g.decision);
    two_phase.emplace(std::pair{g.coord, g.branch(g.coord)->end_lsn}, &g);
  }
  ASSERT_FALSE(two_phase.empty());

  std::uint64_t cross = 0;
  for (const tpcc::CommitRecord& record : driver.commits()) {
    ASSERT_LT(record.shard, fleet.size());
    auto it = record.commit_lsn == 0
                  ? two_phase.end()
                  : two_phase.find({record.shard, record.commit_lsn});
    const bool is_cross = it != two_phase.end();
    EXPECT_EQ(!record.branches.empty(), is_cross);
    if (!is_cross) continue;
    cross += 1;
    GlobalTxn* g = it->second;
    ASSERT_EQ(record.branches.size(), g->branches.size());
    for (const auto& [shard, lsn] : record.branches) {
      ASSERT_NE(g->branch(shard), nullptr);
      EXPECT_EQ(lsn, g->branch(shard)->end_lsn);
    }
  }
  EXPECT_EQ(cross, two_phase.size());
  EXPECT_EQ(driver.stats().cross_shard_committed, cross);

  // Per shard, at the median LSN committed there: a single-shard commit
  // counts on its home shard, a cross-shard one on every shard where its
  // branch (read from the registry) lies above.
  for (std::uint32_t s = 0; s < fleet.size(); ++s) {
    std::vector<Lsn> lsns;
    for (const tpcc::CommitRecord& record : driver.commits()) {
      if (record.branches.empty() && record.shard == s &&
          record.commit_lsn != 0) {
        lsns.push_back(record.commit_lsn);
      }
    }
    for (const auto& [key, g] : two_phase) {
      if (const BranchRecord* b = g->branch(s)) lsns.push_back(b->end_lsn);
    }
    ASSERT_FALSE(lsns.empty());
    std::sort(lsns.begin(), lsns.end());
    const Lsn mid = lsns[lsns.size() / 2];

    std::uint64_t single = 0;
    std::uint64_t foreign_home = 0;  // cross-shard, coordinated elsewhere
    std::uint64_t multi = 0;
    for (const tpcc::CommitRecord& record : driver.commits()) {
      if (record.branches.empty()) {
        if (record.shard == s && record.commit_lsn > mid) single += 1;
        continue;
      }
      const BranchRecord* b =
          two_phase.at({record.shard, record.commit_lsn})->branch(s);
      if (b == nullptr || b->end_lsn <= mid) continue;
      multi += 1;
      if (record.shard != s) foreign_home += 1;
    }
    EXPECT_GT(single, 0u) << "shard " << s;
    EXPECT_GT(foreign_home, 0u) << "shard " << s;
    EXPECT_EQ(driver.count_lost(s, mid, now), single + multi) << "shard " << s;
    EXPECT_EQ(driver.count_lost(s, lsns.back(), now), 0u) << "shard " << s;
    EXPECT_EQ(driver.count_lost(s, 0, driver.commits().front().commit_time),
              0u);
  }
}

TEST(FleetTest, UndecidedCoordinatorCrashPresumesAbortOnPromotion) {
  Fleet fleet(small_cfg());
  ASSERT_TRUE(fleet.setup().is_ok());
  obs::Observability obs;
  FleetDriver driver(&fleet, &obs, tpcc::DriverConfig{});
  FailoverOrchestrator orch(&fleet, OrchestratorConfig{}, &obs);

  std::optional<std::uint32_t> victim;
  driver.txns().arm_crash(CrashPoint::kAfterPrepares, [&](std::uint32_t s) {
    victim = s;
    (void)fleet.kill_shard(s);
  });
  Status st = drive_until_crash(&driver, &fleet);
  ASSERT_FALSE(st.is_ok());
  ASSERT_TRUE(victim.has_value());

  GlobalTxn* g = unfinished_gtxn(&fleet);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->coord, *victim);
  EXPECT_FALSE(g->decided);

  // Failover replaces the coordinator with its standby, whose redo can
  // never contain a decision record — the presumption takes over and
  // every surviving branch must abort identically.
  ASSERT_TRUE(orch.force_failover(*victim).is_ok());
  ASSERT_TRUE(fleet.healthy());
  EXPECT_EQ(orch.promotions(), 1u);

  EXPECT_TRUE(g->finished);
  for (const BranchRecord& b : g->branches) {
    EXPECT_NE(b.outcome, 'C') << "branch on shard " << b.shard;
    if (b.shard != *victim) EXPECT_EQ(b.outcome, 'A');
  }
  EXPECT_EQ(fleet.registry().atomicity_violations(), 0u);
}

TEST(FleetTest, AdminShellShowsAndFailsOverTheFleet) {
  Fleet fleet(small_cfg());
  ASSERT_TRUE(fleet.setup().is_ok());
  obs::Observability obs;
  FleetDriver driver(&fleet, &obs, tpcc::DriverConfig{});
  FailoverOrchestrator orch(&fleet, OrchestratorConfig{}, &obs);

  // The operator's console is a shard instance's shell with the fleet
  // hooks bound on top.
  engine::AdminShell shell(&fleet.active_db(0));
  shell.bind_fleet(make_admin_hooks(&fleet, &orch, &obs));

  ASSERT_TRUE(driver.run_until(fleet.clock().now() + 1 * kMinute).is_ok());

  auto show = shell.execute("SHOW FLEET");
  ASSERT_TRUE(show.is_ok()) << show.status().message();
  EXPECT_NE(show.value().find("fleet: 2 shards"), std::string::npos);
  EXPECT_NE(show.value().find("role=primary"), std::string::npos);
  EXPECT_NE(show.value().find("atomicity_violations=0"), std::string::npos);

  // Operator-initiated switchover of shard 1 onto its standby.
  auto failover = shell.execute("ALTER FLEET FAILOVER 1");
  ASSERT_TRUE(failover.is_ok()) << failover.status().message();
  EXPECT_TRUE(fleet.healthy());
  EXPECT_EQ(orch.promotions(), 1u);
  EXPECT_TRUE(fleet.shard(1).promoted);

  show = shell.execute("SHOW FLEET");
  ASSERT_TRUE(show.is_ok());
  EXPECT_NE(show.value().find("role=promoted-standby"), std::string::npos);

  // The failover procedure is traced on the fleet statistics area and
  // surfaces through the shard shell's V$RECOVERY_PROGRESS.
  auto progress = shell.execute("V$RECOVERY_PROGRESS");
  ASSERT_TRUE(progress.is_ok());
  EXPECT_NE(progress.value().find("fleet failover shard 1"),
            std::string::npos);
  EXPECT_NE(progress.value().find("promote"), std::string::npos);
  EXPECT_NE(progress.value().find("reroute"), std::string::npos);

  EXPECT_FALSE(shell.execute("ALTER FLEET FAILOVER 9").is_ok());
}

TEST(FleetTest, AdminShellFleetCommandsRequireABinding) {
  Fleet fleet(small_cfg());
  ASSERT_TRUE(fleet.setup().is_ok());
  engine::AdminShell shell(&fleet.active_db(0));
  auto show = shell.execute("SHOW FLEET");
  ASSERT_FALSE(show.is_ok());
  EXPECT_EQ(show.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(shell.execute("ALTER FLEET FAILOVER 0").is_ok());
}

FleetExperimentResult run_single_shard_crash() {
  FleetExperimentOptions opts;
  opts.shards = 2;
  opts.scenario = faults::FleetScenario::kSingleShardCrash;
  opts.duration = 4 * kMinute;
  opts.inject_at = 1 * kMinute;
  opts.fleet = small_cfg();
  auto result = FleetExperiment(opts).run();
  EXPECT_TRUE(result.is_ok());
  return result.is_ok() ? result.value() : FleetExperimentResult{};
}

TEST(FleetTest, ExperimentDeterministicAcrossRuns) {
  const FleetExperimentResult first = run_single_shard_crash();
  const FleetExperimentResult second = run_single_shard_crash();
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.cross_shard_committed, second.cross_shard_committed);
  EXPECT_EQ(first.cross_shard_started, second.cross_shard_started);
  EXPECT_EQ(first.promotions, second.promotions);
  EXPECT_EQ(first.in_doubt_resolved, second.in_doubt_resolved);
  EXPECT_EQ(first.atomicity_violations, second.atomicity_violations);
  EXPECT_EQ(first.lost_committed, second.lost_committed);
  EXPECT_EQ(first.lost_per_shard, second.lost_per_shard);
  EXPECT_EQ(first.recovery_time, second.recovery_time);
  EXPECT_EQ(first.detection_delay, second.detection_delay);
  EXPECT_DOUBLE_EQ(first.tpmc, second.tpmc);
  EXPECT_EQ(first.series, second.series);
  EXPECT_EQ(first.atomicity_violations, 0u);
}

}  // namespace
}  // namespace vdb::fleet
