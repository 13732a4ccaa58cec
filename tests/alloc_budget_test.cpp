// Heap allocations of the TPC-C interactions and of redo apply, counted
// (calls and bytes) by a replaced global operator new.
//
// This is its own executable because replacing operator new is
// process-wide. Counting is per thread and only inside an AllocScope, so
// gtest's own bookkeeping stays out of the numbers. Sanitizer builds skip
// the tests: their allocators replace operator new themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "engine/replay_plan.hpp"
#include "recovery/backup.hpp"
#include "sim/network.hpp"
#include "standby/standby.hpp"
#include "storage/storage_manager.hpp"
#include "tests/test_env.hpp"
#include "tpcc/tpcc_loader.hpp"
#include "tpcc/tpcc_random.hpp"
#include "tpcc/tpcc_txns.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VDB_ALLOC_COUNTING 0
#else
#define VDB_ALLOC_COUNTING 1
#endif

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocations = 0;
thread_local std::uint64_t t_bytes = 0;

}  // namespace

#if VDB_ALLOC_COUNTING
void* operator new(std::size_t n) {
  if (t_counting) {
    ++t_allocations;
    t_bytes += n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace vdb::tpcc {
namespace {

/// Counts this thread's operator-new calls and the bytes they asked for
/// while alive.
class AllocScope {
 public:
  AllocScope() {
    t_allocations = 0;
    t_bytes = 0;
    t_counting = true;
  }
  ~AllocScope() { t_counting = false; }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

  std::uint64_t count() const { return t_allocations; }
  std::uint64_t bytes() const { return t_bytes; }
};

/// A loaded database and a terminal's transaction runner over it.
struct Terminal {
  testing::SimEnv env;
  testing::SmallTpcc rig;
  TpccRandom random;
  TpccTxns txns;

  explicit Terminal(std::uint32_t orders_per_district)
      : rig(env, orders_per_district),
        random(Rng{3}, rig.tdb->scale()),
        txns(rig.tdb.get(), &random) {}

  /// Allocations of the most expensive of `runs` interactions of `type`,
  /// after `warmup` uncounted ones.
  std::uint64_t max_allocations(TxnType type, int warmup, int runs) {
    for (int i = 0; i < warmup; ++i) VDB_CHECK(txns.run(type, 1).is_ok());
    std::uint64_t worst = 0;
    for (int i = 0; i < runs; ++i) {
      AllocScope scope;
      VDB_CHECK(txns.run(type, 1).is_ok());
      worst = std::max(worst, scope.count());
    }
    return worst;
  }
};

TEST(AllocBudget, CountingSeesAllocations) {
  if (!VDB_ALLOC_COUNTING) GTEST_SKIP() << "the sanitizer owns operator new";
  AllocScope scope;
  auto* p = new std::uint64_t(1);
  delete p;
  EXPECT_EQ(scope.count(), 1u);
  EXPECT_EQ(scope.bytes(), sizeof(std::uint64_t));
}

// Stock-Level reads the order lines of a district's last 20 orders and the
// stock row of every distinct item on them. With 3 orders per district it
// reads a few dozen rows; with 40, a few hundred. Once warm, its
// allocations are a constant of the interaction, not of the rows read.
TEST(AllocBudget, StockLevelAllocationsDoNotGrowWithRowsRead) {
  if (!VDB_ALLOC_COUNTING) GTEST_SKIP() << "the sanitizer owns operator new";
  Terminal few(/*orders_per_district=*/3);
  Terminal many(/*orders_per_district=*/40);
  ASSERT_LT(few.rig.tdb->order_lines_range(1, 1, 1, 4).size(), 50u);
  ASSERT_GT(many.rig.tdb->order_lines_range(1, 1, 21, 41).size(), 150u);

  const std::uint64_t few_allocs =
      few.max_allocations(TxnType::kStockLevel, 40, 20);
  const std::uint64_t many_allocs =
      many.max_allocations(TxnType::kStockLevel, 40, 20);
  EXPECT_LE(many_allocs, few_allocs);
  // Begin's transaction-table node plus the two scratch vectors.
  EXPECT_LE(few_allocs, 4u);
}

// New-Order: 5-15 lines, each an ITEM read, a STOCK read-modify-write and
// an ORDER-LINE insert. Each write still allocates the undo images it
// keeps; its encoding and everything else are reused.
TEST(AllocBudget, NewOrderStaysUnderBudget) {
  if (!VDB_ALLOC_COUNTING) GTEST_SKIP() << "the sanitizer owns operator new";
  Terminal t(/*orders_per_district=*/100);
  for (int i = 0; i < 50; ++i) VDB_CHECK(t.txns.new_order(1).is_ok());
  constexpr int kRuns = 200;
  AllocScope scope;
  for (int i = 0; i < kRuns; ++i) VDB_CHECK(t.txns.new_order(1).is_ok());
  const double per_txn = static_cast<double>(scope.count()) / kRuns;
  EXPECT_LE(per_txn, 100.0);
}

// The initial population encodes every row into the loading thread's
// buffer and bulk-builds the B+-tree paths once. A row still allocates two
// things: the copy of its image the engine keeps for undo, and the holder
// list of its 2PL lock entry (a bulk transaction's lock table is freed when
// it drains). Pages, undo lists and path arrays grow by the page or
// geometrically. A third allocation per row, such as a fresh encoding
// vector, breaks the budget.
TEST(AllocBudget, LoadStaysUnderBudgetPerRow) {
  if (!VDB_ALLOC_COUNTING) GTEST_SKIP() << "the sanitizer owns operator new";
  testing::SimEnv env;
  auto db = std::make_unique<engine::Database>(
      &env.host, &env.sched, testing::SmallTpcc::config());
  ASSERT_TRUE(db->create().is_ok());
  ASSERT_TRUE(db->create_tablespace("TPCC", {{"/data/t1.dbf", 512},
                                             {"/data/t2.dbf", 512}})
                  .is_ok());
  auto user = db->create_user("TPCC", false);
  ASSERT_TRUE(user.is_ok());
  TpccDb tdb(testing::SmallTpcc::scale(/*orders_per_district=*/100));
  ASSERT_TRUE(tdb.create_schema(*db, "TPCC", user.value()).is_ok());
  ASSERT_TRUE(tdb.attach(db.get()).is_ok());
  Loader loader(&tdb, 7);

  AllocScope scope;
  auto stats = loader.load();
  const std::uint64_t allocations = scope.count();
  ASSERT_TRUE(stats.is_ok());
  ASSERT_GT(stats.value().rows, 10000u);
  const double per_row =
      static_cast<double>(allocations) / static_cast<double>(stats.value().rows);
  EXPECT_LE(per_row, 2.5) << allocations << " allocations for "
                          << stats.value().rows << " rows";
}

// Once every frame of the pool exists, a miss reuses its victim's frame in
// place and reads the block straight into it: evicting a dirty victim
// (write-back through the WAL hook) and loading the missed page allocate
// nothing.
TEST(AllocBudget, WarmCacheMissAllocatesNothing) {
  if (!VDB_ALLOC_COUNTING) GTEST_SKIP() << "the sanitizer owns operator new";
  sim::VirtualClock clock;
  sim::Host host{"h", &clock};
  host.add_disk("/data");
  storage::StorageParams params;
  params.cache_pages = 4;
  Lsn flushed = 0;
  storage::StorageManager sm(&host.fs(), params,
                             [&flushed](Lsn lsn) { flushed = lsn; });
  auto ts = sm.create_tablespace("TS");
  ASSERT_TRUE(ts.is_ok());
  auto file = sm.add_datafile(ts.value(), "/data/f1.dbf", 16);
  ASSERT_TRUE(file.is_ok());
  const auto page = [&](std::uint32_t block) {
    return PageId{file.value(), block};
  };
  // Fill the pool with dirty pages, then dirty every page it will evict.
  for (std::uint32_t block = 0; block < 12; ++block) {
    ASSERT_TRUE(sm.apply_format(page(block), TableId{1}, 64, block + 1)
                    .is_ok());
  }
  ASSERT_GT(sm.cache().dirty_count(), 0u);

  std::uint64_t worst = 0;
  for (std::uint32_t block = 0; block < 12; ++block) {
    AllocScope scope;
    auto ref = sm.fetch(page(block));
    ASSERT_TRUE(ref.is_ok());
    worst = std::max(worst, scope.count());
  }
  EXPECT_EQ(worst, 0u);
  EXPECT_GT(flushed, 0u);
}

// A replay plan keeps its entries, image arena, runs, item lists, page
// index and drain scratch across cycles: once one stage-and-drain cycle
// has sized them, the next one of the same shape allocates nothing.
TEST(AllocBudget, WarmReplayStagingAllocatesNothing) {
  if (!VDB_ALLOC_COUNTING) GTEST_SKIP() << "the sanitizer owns operator new";
  testing::SimEnv env;
  testing::SmallDb small(env);
  std::vector<RowId> rids;
  for (int i = 0; i < 200; ++i) {
    rids.push_back(testing::put_row(*small.db, small.table,
                                    "row" + std::to_string(i)));
  }
  // Updates and deletes dealt over the rows' pages, images of a few sizes.
  std::vector<wal::LogRecord> shapes(4);
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    shapes[k].type = k == 3 ? wal::LogRecordType::kDelete
                            : wal::LogRecordType::kUpdate;
    shapes[k].txn = TxnId{9001};
    shapes[k].dml.table = small.table;
    shapes[k].dml.before.assign(20, 'b');
    if (k != 3) shapes[k].dml.after.assign(16 + 16 * k, 'a');
  }
  constexpr std::uint64_t kRecords = 1200;
  Lsn lsn = Lsn{1} << 40;  // above anything the rows carry
  engine::RedoApplyPlan plan = small.db->make_replay_plan();
  const auto cycle = [&] {
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      wal::LogRecord& rec = shapes[i % shapes.size()];
      rec.lsn = lsn++;
      rec.dml.rid = rids[(i * 7) % rids.size()];
      plan.stage(rec);
    }
    return plan.drain();
  };
  small.db->set_recovering(true);
  auto cold = cycle();
  ASSERT_TRUE(cold.is_ok());
  ASSERT_EQ(cold.value().applied, kRecords);

  AllocScope scope;
  auto warm = cycle();
  const std::uint64_t allocations = scope.count();
  small.db->set_recovering(false);
  ASSERT_TRUE(warm.is_ok());
  EXPECT_EQ(warm.value().applied, kRecords);
  EXPECT_EQ(allocations, 0u);
}

// Shipping an archive to the standby stores its bytes once, on the
// standby's disk; managed recovery then parses that copy in place and
// stages into a plan kept across archives. The bytes allocated for one
// archive's ship and apply stay below the archive's (charged) size.
TEST(AllocBudget, StandbyArchiveApplyCopiesLessThanTheArchive) {
  if (!VDB_ALLOC_COUNTING) GTEST_SKIP() << "the sanitizer owns operator new";
  testing::SimEnv env;
  engine::DatabaseConfig cfg = testing::small_db_config(/*archive=*/true);
  cfg.redo.file_size_bytes = 64 * 1024;
  testing::SmallDb primary(env, cfg);
  recovery::BackupManager backups(&env.host.fs(), "/backup");
  sim::Host standby_host("standby", &env.clock);
  for (const char* dir : {"/data", "/redo", "/arch", "/backup"}) {
    standby_host.add_disk(dir);
  }
  sim::NetworkLink link;
  standby::StandbyConfig scfg;
  scfg.db = cfg;
  standby::StandbyDatabase standby(&standby_host, &env.sched, scfg, &link);
  ASSERT_TRUE(standby.instantiate_from(*primary.db, backups).is_ok());

  struct Shipment {
    std::string path;
    std::uint64_t seq;
    SimTime done_at;
  };
  std::vector<Shipment> archives;
  primary.db->archiver().on_archived =
      [&](const std::string& path, std::uint64_t seq, SimTime done_at) {
        archives.push_back({path, seq, done_at});
      };
  std::vector<RowId> rids;
  for (int i = 0; i < 100; ++i) {
    rids.push_back(testing::put_row(*primary.db, primary.table,
                                    std::string(60, 'r')));
  }
  for (int i = 0; archives.size() < 3; ++i) {
    auto txn = primary.db->begin();
    ASSERT_TRUE(txn.is_ok());
    ASSERT_TRUE(primary.db
                    ->update(txn.value(), primary.table, rids[i % rids.size()],
                             testing::row(std::string(60, 'a' + i % 26)))
                    .is_ok());
    ASSERT_TRUE(primary.db->commit(txn.value()).is_ok());
  }

  sim::SimFs& primary_fs = env.host.fs();
  const auto ship = [&](const Shipment& a) {
    standby.on_primary_archive(primary_fs, a.path, a.seq, a.done_at);
  };
  ship(archives[0]);  // warms the plan
  const Shipment& measured = archives[1];
  auto charged = primary_fs.charged_size(measured.path);
  ASSERT_TRUE(charged.is_ok());
  AllocScope scope;
  ship(measured);
  const std::uint64_t bytes = scope.bytes();
  EXPECT_EQ(standby.archives_applied(), 2u);
  EXPECT_LT(bytes, charged.value())
      << "archive " << primary_fs.size(measured.path).value() << " bytes, "
      << charged.value() << " charged";
}

}  // namespace
}  // namespace vdb::tpcc
