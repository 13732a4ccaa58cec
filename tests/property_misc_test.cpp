// Assorted property/model checks: scheduler ordering against a sorted
// reference, backup-set selection, and TPC-C access-path edges.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "recovery/backup.hpp"
#include "sim/scheduler.hpp"
#include "tests/test_env.hpp"
#include "tpcc/tpcc_db.hpp"
#include "tpcc/tpcc_loader.hpp"

namespace vdb {
namespace {

class SchedulerPropertyCheck : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SchedulerPropertyCheck, FiresExactlyInTimeThenFifoOrder) {
  Rng rng(GetParam());
  sim::VirtualClock clock;
  sim::Scheduler sched(&clock);

  struct Expected {
    SimTime at;
    std::uint64_t seq;
    bool operator<(const Expected& other) const {
      return std::tie(at, seq) < std::tie(other.at, other.seq);
    }
  };
  std::vector<Expected> expected;
  std::vector<std::uint64_t> fired;

  std::uint64_t seq = 0;
  for (int i = 0; i < 500; ++i) {
    const SimTime at = static_cast<SimTime>(rng.uniform(0, 10000));
    const std::uint64_t id = seq++;
    expected.push_back({at, id});
    sched.schedule_at(at, [&fired, id] { fired.push_back(id); });
  }
  // Cancel a random subset.
  // (Handles must be captured at schedule time; redo with a fresh pass.)
  sched.run_until(10000);

  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(fired.size(), expected.size());
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], expected[i].seq) << "position " << i;
  }
  EXPECT_EQ(clock.now(), 10000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyCheck,
                         ::testing::Values(3, 17, 98));

TEST(SchedulerPropertyCheck, RandomCancellation) {
  Rng rng(4242);
  sim::VirtualClock clock;
  sim::Scheduler sched(&clock);
  std::vector<sim::EventHandle> handles;
  std::vector<bool> cancelled(300, false);
  int fired = 0;
  for (int i = 0; i < 300; ++i) {
    handles.push_back(sched.schedule_at(
        static_cast<SimTime>(rng.uniform(0, 1000)), [&fired] { ++fired; }));
  }
  int expected = 300;
  for (int i = 0; i < 300; ++i) {
    if (rng.chance(0.4)) {
      handles[static_cast<size_t>(i)].cancel();
      cancelled[static_cast<size_t>(i)] = true;
      expected -= 1;
    }
  }
  sched.run_until(1000);
  EXPECT_EQ(fired, expected);
}

TEST(BackupSets, RestorePicksNewestSet) {
  testing::SimEnv env;
  testing::SmallDb db(env, testing::small_db_config(true));
  recovery::BackupManager backups(&env.host.fs(), "/backup");

  testing::put_row(*db.db, db.table, "gen1");
  ASSERT_TRUE(backups.take_backup(*db.db).is_ok());
  const Lsn first = backups.newest()->backup_lsn;

  testing::put_row(*db.db, db.table, "gen2");
  ASSERT_TRUE(backups.take_backup(*db.db).is_ok());
  const Lsn second = backups.newest()->backup_lsn;
  EXPECT_GT(second, first);
  EXPECT_EQ(backups.sets().size(), 2u);

  // restore_all uses the newest set: both rows are in its image.
  auto set = backups.restore_all(env.host.fs());
  ASSERT_TRUE(set.is_ok());
  EXPECT_EQ(set.value().backup_lsn, second);
}

TEST(TpccAccessPaths, OrderLineRangeEdges) {
  testing::SimEnv env;
  engine::DatabaseConfig cfg = testing::small_db_config();
  cfg.storage.cache_pages = 512;
  auto db = std::make_unique<engine::Database>(&env.host, &env.sched, cfg);
  ASSERT_TRUE(db->create().is_ok());
  ASSERT_TRUE(
      db->create_tablespace("TPCC", {{"/data/t1.dbf", 256}}).is_ok());
  auto user = db->create_user("TPCC", false);
  tpcc::TpccScale scale;
  scale.warehouses = 1;
  scale.customers_per_district = 20;
  scale.items = 100;
  scale.initial_orders_per_district = 20;
  tpcc::TpccDb tdb(scale);
  ASSERT_TRUE(tdb.create_schema(*db, "TPCC", user.value()).is_ok());
  ASSERT_TRUE(tdb.attach(db.get()).is_ok());
  tpcc::Loader loader(&tdb, 11);
  ASSERT_TRUE(loader.load().is_ok());

  // Empty and degenerate ranges.
  EXPECT_TRUE(tdb.order_lines_range(1, 1, 5, 5).empty());
  EXPECT_TRUE(tdb.order_lines_range(1, 1, 7, 3).empty());
  EXPECT_TRUE(tdb.order_lines(1, 1, 9999).empty());

  // [o, o+1) equals order_lines(o).
  const auto range = tdb.order_lines_range(1, 1, 3, 4);
  const auto exact = tdb.order_lines(1, 1, 3);
  EXPECT_EQ(range, exact);
  EXPECT_FALSE(exact.empty());

  // A wider range is the concatenation of its parts.
  auto wide = tdb.order_lines_range(1, 1, 3, 6);
  auto parts = tdb.order_lines_range(1, 1, 3, 5);
  const auto tail = tdb.order_lines_range(1, 1, 5, 6);
  parts.insert(parts.end(), tail.begin(), tail.end());
  EXPECT_EQ(wide, parts);

  // oldest_new_order returns the minimum pending order id.
  auto oldest = tdb.oldest_new_order(1, 1);
  ASSERT_TRUE(oldest.has_value());
  EXPECT_EQ(oldest->first, 15u);  // 30% of 20 undelivered: ids 15..20
}

}  // namespace
}  // namespace vdb
