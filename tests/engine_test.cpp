#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "engine/control_file.hpp"
#include "tests/test_env.hpp"

namespace vdb::engine {
namespace {

using testing::SimEnv;
using testing::SmallDb;
using testing::all_rows;
using testing::put_row;
using testing::row;
using testing::row_str;
using testing::small_db_config;

TEST(Engine, CreateOpensDatabase) {
  SimEnv env;
  SmallDb db(env);
  EXPECT_TRUE(db.db->is_open());
  EXPECT_EQ(db.db->state(), InstanceState::kOpen);
}

TEST(Engine, InsertReadCommit) {
  SimEnv env;
  SmallDb db(env);
  const RowId rid = put_row(*db.db, db.table, "hello");
  auto txn = db.db->begin();
  ASSERT_TRUE(txn.is_ok());
  auto back = db.db->read(txn.value(), db.table, rid);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(row_str(back.value()), "hello");
  ASSERT_TRUE(db.db->commit(txn.value()).is_ok());
}

TEST(Engine, CommitReturnsIncreasingLsns) {
  SimEnv env;
  SmallDb db(env);
  auto t1 = db.db->begin();
  ASSERT_TRUE(db.db->insert(t1.value(), db.table, row("a")).is_ok());
  auto l1 = db.db->commit(t1.value());
  auto t2 = db.db->begin();
  ASSERT_TRUE(db.db->insert(t2.value(), db.table, row("b")).is_ok());
  auto l2 = db.db->commit(t2.value());
  ASSERT_TRUE(l1.is_ok());
  ASSERT_TRUE(l2.is_ok());
  EXPECT_LT(l1.value(), l2.value());
}

TEST(Engine, ReadOnlyCommitHasNoLsn) {
  SimEnv env;
  SmallDb db(env);
  const RowId rid = put_row(*db.db, db.table, "x");
  auto txn = db.db->begin();
  ASSERT_TRUE(db.db->read(txn.value(), db.table, rid).is_ok());
  auto lsn = db.db->commit(txn.value());
  ASSERT_TRUE(lsn.is_ok());
  EXPECT_EQ(lsn.value(), 0u);
}

TEST(Engine, RollbackUndoesEverything) {
  SimEnv env;
  SmallDb db(env);
  const RowId keep = put_row(*db.db, db.table, "keep");

  auto txn = db.db->begin();
  ASSERT_TRUE(txn.is_ok());
  ASSERT_TRUE(db.db->insert(txn.value(), db.table, row("tmp1")).is_ok());
  ASSERT_TRUE(db.db->update(txn.value(), db.table, keep, row("mutated")).is_ok());
  ASSERT_TRUE(db.db->erase(txn.value(), db.table, keep).is_ok());
  ASSERT_TRUE(db.db->rollback(txn.value()).is_ok());

  const auto rows = all_rows(*db.db, db.table);
  EXPECT_EQ(rows, (std::vector<std::string>{"keep"}));
}

TEST(Engine, RowTooLargeRejected) {
  SimEnv env;
  SmallDb db(env);
  auto txn = db.db->begin();
  std::vector<std::uint8_t> huge(1000);
  EXPECT_EQ(db.db->insert(txn.value(), db.table, huge).code(),
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(db.db->rollback(txn.value()).is_ok());
}

TEST(Engine, ObserversSeeChangesIncludingRollback) {
  SimEnv env;
  SmallDb db(env);
  std::vector<std::string> events;
  db.db->register_observer(db.table, [&](const RowChange& change) {
    switch (change.kind) {
      case RowChange::Kind::kInsert: events.push_back("ins"); break;
      case RowChange::Kind::kUpdate: events.push_back("upd"); break;
      case RowChange::Kind::kDelete: events.push_back("del"); break;
    }
  });
  auto txn = db.db->begin();
  ASSERT_TRUE(db.db->insert(txn.value(), db.table, row("a")).is_ok());
  ASSERT_TRUE(db.db->rollback(txn.value()).is_ok());
  EXPECT_EQ(events, (std::vector<std::string>{"ins", "del"}));
}

TEST(Engine, DropTableRemovesAccess) {
  SimEnv env;
  SmallDb db(env);
  put_row(*db.db, db.table, "x");
  ASSERT_TRUE(db.db->drop_table("accounts").is_ok());
  auto txn = db.db->begin();
  EXPECT_EQ(db.db->insert(txn.value(), db.table, row("y")).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(db.db->table_id("accounts").code(), ErrorCode::kNotFound);
}

TEST(Engine, TablespaceOfflineBlocksDml) {
  SimEnv env;
  SmallDb db(env);
  const RowId rid = put_row(*db.db, db.table, "x");
  ASSERT_TRUE(db.db->alter_tablespace_offline("USERS").is_ok());
  auto txn = db.db->begin();
  EXPECT_FALSE(db.db->read(txn.value(), db.table, rid).is_ok());
  ASSERT_TRUE(db.db->rollback(txn.value()).is_ok());
  // OFFLINE NORMAL: comes back without recovery.
  ASSERT_TRUE(db.db->alter_tablespace_online("USERS").is_ok());
  auto txn2 = db.db->begin();
  EXPECT_TRUE(db.db->read(txn2.value(), db.table, rid).is_ok());
  ASSERT_TRUE(db.db->commit(txn2.value()).is_ok());
}

TEST(Engine, CleanShutdownAndStartup) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  std::vector<std::string> expect;
  {
    SmallDb db(env, cfg);
    for (int i = 0; i < 50; ++i) {
      expect.push_back("row" + std::to_string(i));
      put_row(*db.db, db.table, expect.back());
    }
    ASSERT_TRUE(db.db->shutdown().is_ok());
    EXPECT_FALSE(db.db->is_open());
  }
  auto db2 = std::make_unique<Database>(&env.host, &env.sched, cfg);
  ASSERT_TRUE(db2->startup().is_ok());
  auto table = db2->table_id("accounts");
  ASSERT_TRUE(table.is_ok());
  auto rows = all_rows(*db2, table.value());
  std::sort(rows.begin(), rows.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(rows, expect);
}

TEST(Engine, CrashRecoveryPreservesCommitted) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  SmallDb db(env, cfg);
  for (int i = 0; i < 100; ++i) {
    put_row(*db.db, db.table, "c" + std::to_string(i));
  }
  // One uncommitted transaction dies with the instance.
  auto doomed = db.db->begin();
  ASSERT_TRUE(db.db->insert(doomed.value(), db.table, row("doomed")).is_ok());
  ASSERT_TRUE(db.db->shutdown_abort().is_ok());
  EXPECT_EQ(db.db->state(), InstanceState::kCrashed);

  auto db2 = std::make_unique<Database>(&env.host, &env.sched, cfg);
  ASSERT_TRUE(db2->startup().is_ok());
  auto table = db2->table_id("accounts");
  ASSERT_TRUE(table.is_ok());
  const auto rows = all_rows(*db2, table.value());
  EXPECT_EQ(rows.size(), 100u);
  for (const auto& r : rows) EXPECT_NE(r, "doomed");
}

TEST(Engine, NologgingChangesAreNotCrashSafe) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  SmallDb db(env, cfg);
  ASSERT_TRUE(db.db->set_table_logging("accounts", false).is_ok());
  put_row(*db.db, db.table, "unlogged");
  ASSERT_TRUE(db.db->set_table_logging("accounts", true).is_ok());
  put_row(*db.db, db.table, "logged");
  ASSERT_TRUE(db.db->shutdown_abort().is_ok());

  auto db2 = std::make_unique<Database>(&env.host, &env.sched, cfg);
  ASSERT_TRUE(db2->startup().is_ok());
  auto rows = all_rows(*db2, db2->table_id("accounts").value());
  // The logged row survives; the unlogged one may or may not (it is lost
  // here because no checkpoint flushed it).
  EXPECT_NE(std::find(rows.begin(), rows.end(), "logged"), rows.end());
}

TEST(Engine, CheckpointCountersAdvance) {
  SimEnv env;
  obs::Observability stats;
  engine::DatabaseConfig cfg = small_db_config();
  cfg.redo.file_size_bytes = 64 * 1024;  // switch often
  cfg.checkpoint_timeout = 5 * kSecond;
  cfg.obs = &stats;
  SmallDb db(env, cfg);
  for (int i = 0; i < 300; ++i) {
    put_row(*db.db, db.table, std::string(40, 'x'));
    env.sched.run_due();
  }
  obs::MetricsRegistry& reg = stats.registry();
  EXPECT_GT(reg.counter("checkpoints full")->value(), 0u);
  EXPECT_GT(reg.counter("log switches")->value(), 0u);
  // Idle time lets the log_checkpoint_timeout timer fire.
  env.sched.run_until(env.clock.now() + 30 * kSecond);
  EXPECT_GT(reg.counter("checkpoints incremental")->value(), 0u);
}

TEST(Engine, ControlFileSurvivesOneCopyLoss) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  SmallDb db(env, cfg);
  put_row(*db.db, db.table, "x");
  ASSERT_TRUE(db.db->shutdown().is_ok());
  // The operator deletes one control file copy; the multiplexed copy saves
  // the day.
  ASSERT_TRUE(env.host.fs().remove(cfg.control_files[0]).is_ok());
  auto db2 = std::make_unique<Database>(&env.host, &env.sched, cfg);
  EXPECT_TRUE(db2->startup().is_ok());
}

TEST(Engine, AllControlFilesLostIsFatal) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  SmallDb db(env, cfg);
  ASSERT_TRUE(db.db->shutdown().is_ok());
  for (const auto& path : cfg.control_files) {
    (void)env.host.fs().remove(path);
  }
  auto db2 = std::make_unique<Database>(&env.host, &env.sched, cfg);
  EXPECT_FALSE(db2->startup().is_ok());
}

TEST(Engine, ControlFileDataRoundtrip) {
  ControlFileData data;
  data.db_name = "test";
  data.clean_shutdown = true;
  data.recovery_position = 777;
  data.next_txn_id = 42;
  data.last_archived_seq = 5;
  storage::TablespaceInfo ts;
  ts.id = TablespaceId{0};
  ts.name = "USERS";
  data.tablespaces.push_back(ts);
  storage::DataFileInfo file;
  file.id = FileId{0};
  file.tablespace = TablespaceId{0};
  file.path = "/data/u.dbf";
  file.blocks = 10;
  file.high_water = 4;
  data.datafiles.push_back(file);

  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  data.encode(enc);
  Decoder dec(buf);
  auto back = ControlFileData::decode(dec);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().db_name, "test");
  EXPECT_TRUE(back.value().clean_shutdown);
  EXPECT_EQ(back.value().recovery_position, 777u);
  EXPECT_EQ(back.value().next_txn_id, 42u);
  ASSERT_EQ(back.value().datafiles.size(), 1u);
  EXPECT_EQ(back.value().datafiles[0].high_water, 4u);
}

TEST(Engine, CrashRecoveryWithStaleControlFileMetadata) {
  // Regression: the control file is only as fresh as the last checkpoint.
  // If datafiles grew afterwards, recovery-time extends must never truncate
  // the physical file beneath blocks that replay (or its evictions) already
  // rebuilt. A tiny cache + no checkpoints maximizes replay evictions.
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  cfg.redo.file_size_bytes = 64 * 1024 * 1024;  // no switches
  cfg.checkpoint_timeout = 0;                   // no incremental checkpoints
  cfg.storage.cache_pages = 32;                 // heavy eviction
  SmallDb db(env, cfg);
  // Grow the table far past the control-file-recorded size.
  std::vector<std::string> expect;
  for (int i = 0; i < 4000; ++i) {
    expect.push_back("grow" + std::to_string(i));
    put_row(*db.db, db.table, expect.back());
  }
  ASSERT_TRUE(db.db->shutdown_abort().is_ok());

  auto db2 = std::make_unique<Database>(&env.host, &env.sched, cfg);
  ASSERT_TRUE(db2->startup().is_ok());
  auto rows = all_rows(*db2, db2->table_id("accounts").value());
  std::sort(rows.begin(), rows.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(rows, expect);
}

/// Crash-recovery property test: random committed/uncommitted work, a crash
/// at a random point, then recovery must reproduce exactly the committed
/// state (tracked in a shadow map).
class CrashRecoveryModelCheck : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CrashRecoveryModelCheck, RecoversExactlyCommittedState) {
  SimEnv env;
  engine::DatabaseConfig cfg = small_db_config();
  cfg.redo.file_size_bytes = 128 * 1024;  // force switches mid-run
  cfg.checkpoint_timeout = 3 * kSecond;
  SmallDb db(env, cfg);
  Rng rng(GetParam());

  std::map<RowId, std::string> shadow;   // committed state
  std::vector<RowId> live;               // committed row ids

  const int txn_count = static_cast<int>(rng.uniform(20, 120));
  for (int t = 0; t < txn_count; ++t) {
    env.sched.run_due();
    auto txn = db.db->begin();
    ASSERT_TRUE(txn.is_ok());
    std::map<RowId, std::string> local = shadow;
    std::vector<RowId> local_live = live;
    const int ops = static_cast<int>(rng.uniform(1, 15));
    bool aborted = false;
    for (int op = 0; op < ops; ++op) {
      const double dice = rng.uniform01();
      if (dice < 0.5 || local_live.empty()) {
        const std::string value =
            "v" + std::to_string(t) + "_" + std::to_string(op);
        auto rid = db.db->insert(txn.value(), db.table, row(value));
        ASSERT_TRUE(rid.is_ok());
        local[rid.value()] = value;
        local_live.push_back(rid.value());
      } else if (dice < 0.8) {
        const size_t pick = static_cast<size_t>(
            rng.uniform(0, static_cast<std::int64_t>(local_live.size()) - 1));
        const std::string value = "u" + std::to_string(t);
        ASSERT_TRUE(db.db->update(txn.value(), db.table, local_live[pick],
                                  row(value))
                        .is_ok());
        local[local_live[pick]] = value;
      } else {
        const size_t pick = static_cast<size_t>(
            rng.uniform(0, static_cast<std::int64_t>(local_live.size()) - 1));
        ASSERT_TRUE(
            db.db->erase(txn.value(), db.table, local_live[pick]).is_ok());
        local.erase(local_live[pick]);
        local_live.erase(local_live.begin() + static_cast<long>(pick));
      }
    }
    if (rng.chance(0.2)) {
      ASSERT_TRUE(db.db->rollback(txn.value()).is_ok());
      aborted = true;
    } else {
      ASSERT_TRUE(db.db->commit(txn.value()).is_ok());
    }
    if (!aborted) {
      shadow = std::move(local);
      live = std::move(local_live);
    }
  }

  // Crash mid-life with possibly one transaction in flight.
  auto in_flight = db.db->begin();
  ASSERT_TRUE(in_flight.is_ok());
  ASSERT_TRUE(
      db.db->insert(in_flight.value(), db.table, row("in-flight")).is_ok());
  ASSERT_TRUE(db.db->shutdown_abort().is_ok());

  auto db2 = std::make_unique<Database>(&env.host, &env.sched, cfg);
  ASSERT_TRUE(db2->startup().is_ok());
  auto table = db2->table_id("accounts");
  ASSERT_TRUE(table.is_ok());

  std::map<RowId, std::string> recovered;
  ASSERT_TRUE(db2->scan(table.value(),
                        [&](RowId rid, std::span<const std::uint8_t> bytes) {
                          recovered[rid] = row_str(bytes);
                          return true;
                        })
                  .is_ok());
  EXPECT_EQ(recovered, shadow) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryModelCheck,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace vdb::engine
