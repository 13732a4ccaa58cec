// Microbenchmarks (google-benchmark): real CPU cost of the hot paths that
// every simulated experiment exercises millions of times. These guard the
// wall-clock budget of the paper-reproduction suite.
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "index/bplus_tree.hpp"
#include "recovery/backup.hpp"
#include "sim/host.hpp"
#include "sim/network.hpp"
#include "standby/standby.hpp"
#include "storage/buffer_cache.hpp"
#include "storage/page.hpp"
#include "tests/test_env.hpp"
#include "tpcc/schema.hpp"
#include "tpcc/tpcc_db.hpp"
#include "tpcc/tpcc_loader.hpp"
#include "tpcc/tpcc_txns.hpp"
#include "txn/coordinator.hpp"
#include "wal/log_record.hpp"

namespace {

using namespace vdb;

void BM_Crc32c(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(256)->Arg(8192);

void BM_PageSlotWrite(benchmark::State& state) {
  storage::Page page;
  page.format(TableId{1}, 96);
  std::vector<std::uint8_t> payload(80, 0x42);
  std::uint16_t slot = 0;
  for (auto _ : state) {
    page.set_slot(slot, payload);
    slot = static_cast<std::uint16_t>((slot + 1) % page.capacity());
  }
}
BENCHMARK(BM_PageSlotWrite);

void BM_PageChecksum(benchmark::State& state) {
  storage::Page page;
  page.format(TableId{1}, 96);
  for (auto _ : state) {
    page.update_checksum();
    benchmark::DoNotOptimize(page.verify_checksum());
  }
}
BENCHMARK(BM_PageChecksum);

void BM_BTreeInsertErase(benchmark::State& state) {
  index::BPlusTree<std::uint64_t, int> tree;
  Rng rng(1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    tree.insert(i, 0);
    if (i > 1000) tree.erase(i - 1000);
    ++i;
  }
}
BENCHMARK(BM_BTreeInsertErase);

void BM_BTreeLookup(benchmark::State& state) {
  index::BPlusTree<std::uint64_t, int> tree;
  for (std::uint64_t i = 0; i < 100000; ++i) tree.insert(i, 1);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.find(static_cast<std::uint64_t>(rng.uniform(0, 99999))));
  }
}
BENCHMARK(BM_BTreeLookup);

/// Backing store that serves pages from memory with zero simulated cost:
/// isolates the BufferCache bookkeeping (hash lookup, LRU, pin counts) that
/// every tpcc_txns page access pays.
class NullPageStore : public storage::PageStore {
 public:
  Status load_page(PageId, storage::Page* out, sim::IoMode) override {
    out->format(TableId{1}, 96);
    return Status::ok();
  }
  Status store_page(PageId, storage::Page&, sim::IoMode, bool) override {
    return Status::ok();
  }
};

void BM_BufferCacheFetchSame(benchmark::State& state) {
  NullPageStore store;
  storage::BufferCache cache(&store, 2048, [](Lsn) {});
  const PageId id{FileId{0}, 7};
  (void)cache.fetch(id);  // warm
  for (auto _ : state) {
    auto ref = cache.fetch(id);
    benchmark::DoNotOptimize(ref.value().page());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferCacheFetchSame);

void BM_BufferCacheFetchSpread(benchmark::State& state) {
  NullPageStore store;
  storage::BufferCache cache(&store, 2048, [](Lsn) {});
  for (std::uint32_t b = 0; b < 1024; ++b) {
    (void)cache.fetch(PageId{FileId{0}, b});  // warm
  }
  std::uint32_t block = 0;
  for (auto _ : state) {
    auto ref = cache.fetch(PageId{FileId{0}, block});
    benchmark::DoNotOptimize(ref.value().page());
    block = (block + 1) % 1024;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferCacheFetchSpread);

/// Every fetch misses a full cache: the cost of choosing and dropping a
/// victim, at a small cache (512 frames) and the default size (2048).
void BM_BufferCacheMissEvict(benchmark::State& state) {
  NullPageStore store;
  const auto frames = static_cast<std::uint32_t>(state.range(0));
  storage::BufferCache cache(&store, frames, [](Lsn) {});
  std::uint32_t block = 0;
  for (; block < frames; ++block) {
    (void)cache.fetch(PageId{FileId{0}, block});  // fill
  }
  for (auto _ : state) {
    auto ref = cache.fetch(PageId{FileId{0}, block++});
    benchmark::DoNotOptimize(ref.value().page());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferCacheMissEvict)->Arg(512)->Arg(2048);

void BM_BufferCacheCheckpointSweep(benchmark::State& state) {
  NullPageStore store;
  sim::VirtualClock clock;
  storage::BufferCache cache(&store, 4096, [](Lsn) {});
  // Resident set of 4096 pages, 256 of them dirty per checkpoint — the
  // shape of an incremental-checkpoint sweep mid-run.
  for (std::uint32_t b = 0; b < 4096; ++b) {
    (void)cache.fetch(PageId{FileId{0}, b});
  }
  Rng rng(17);
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      const PageId id{FileId{0},
                      static_cast<std::uint32_t>(rng.uniform(0, 4095))};
      auto ref = cache.fetch(id);
      cache.mark_dirty(id, clock.now());
    }
    benchmark::DoNotOptimize(cache.checkpoint().pages_written);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_BufferCacheCheckpointSweep);

void BM_LogRecordEncodeDecode(benchmark::State& state) {
  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kUpdate;
  rec.txn = TxnId{42};
  rec.lsn = 1;
  rec.dml.table = TableId{3};
  rec.dml.rid = RowId{PageId{FileId{0}, 10}, 5};
  rec.dml.before.assign(300, 7);
  rec.dml.after = rec.dml.before;
  rec.dml.after[120] = 9;
  // Steady state of the zero-copy pipeline: the arena is reused across
  // iterations (clear keeps capacity) and the decoder works in place, so
  // after warm-up neither direction allocates.
  std::vector<std::uint8_t> buf;
  for (auto _ : state) {
    buf.clear();
    wal::frame_record(rec, &buf);
    int count = 0;
    (void)wal::parse_records(buf, [&](const wal::LogRecord&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_LogRecordEncodeDecode);

void BM_RedoApplyPlanReplay(benchmark::State& state) {
  // One drain cycle (stage + drain) of range(0) DML records dealt
  // round-robin over the table's pages. The drain fetches, guards, applies
  // and dirty-marks every page, inline on the calling thread.
  const auto records = static_cast<std::size_t>(state.range(0));
  engine::DatabaseConfig cfg = testing::small_db_config();
  testing::SimEnv env;
  testing::SmallDb db(env, cfg);
  std::vector<std::uint8_t> payload(48, 1);
  for (int i = 0; i < 4096; ++i) {
    auto txn = db.db->begin();
    (void)db.db->insert(txn.value(), db.table, payload);
    (void)db.db->commit(txn.value());
  }
  // Deal the rows out page by page so consecutive records hit different
  // pages: a drain of n records touches min(n, pages) runs.
  std::map<PageId, std::vector<RowId>> by_page;
  (void)db.db->scan(db.table, [&](RowId rid, std::span<const std::uint8_t>) {
    by_page[rid.page].push_back(rid);
    return true;
  });
  std::vector<RowId> rids;
  for (std::size_t k = 0; rids.size() < records; ++k) {
    for (const auto& [page, rows] : by_page) {
      if (rids.size() < records) rids.push_back(rows[k % rows.size()]);
    }
  }

  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kUpdate;
  rec.txn = TxnId{9001};
  rec.dml.table = db.table;
  rec.dml.before = payload;
  rec.dml.after = payload;
  rec.dml.after[0] = 2;
  Lsn lsn = Lsn{1} << 40;  // above anything the workload wrote
  db.db->set_recovering(true);
  for (auto _ : state) {
    engine::RedoApplyPlan plan = db.db->make_replay_plan();
    for (const RowId& rid : rids) {
      rec.lsn = lsn++;
      rec.dml.rid = rid;
      plan.stage(rec);
    }
    auto stats = plan.drain();
    VDB_CHECK(stats.is_ok());
    benchmark::DoNotOptimize(stats.value().applied);
  }
  state.counters["pages"] = static_cast<double>(by_page.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rids.size()));
}
BENCHMARK(BM_RedoApplyPlanReplay)
    ->ArgName("records")
    ->Arg(32)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(32768);

void BM_InstanceRecoveryReplay(benchmark::State& state) {
  // End-to-end instance recovery: a workload of committed single-row
  // transactions past the last checkpoint, SHUTDOWN ABORT, then startup()
  // on a fresh incarnation — scan, staged parallel apply, loser rollback,
  // and the post-recovery checkpoint. The crashed state is rebuilt outside
  // the timed region.
  std::vector<std::uint8_t> payload(48, 1);
  for (auto _ : state) {
    state.PauseTiming();
    auto env = std::make_unique<testing::SimEnv>();
    auto db = std::make_unique<testing::SmallDb>(*env);
    for (int i = 0; i < 256; ++i) {
      auto txn = db->db->begin();
      (void)db->db->insert(txn.value(), db->table, payload);
      (void)db->db->commit(txn.value());
    }
    VDB_CHECK(db->db->shutdown_abort().is_ok());
    auto next = std::make_unique<engine::Database>(
        &env->host, &env->sched, testing::small_db_config());
    state.ResumeTiming();

    VDB_CHECK(next->startup().is_ok());

    state.PauseTiming();
    next.reset();
    db.reset();
    env.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_InstanceRecoveryReplay);

// Crashed state for the early-open benchmarks: committed inserts flushed
// by a checkpoint, then updates over those (now on-disk) pages so the
// restart leaves a genuine per-page redo backlog staged behind the open.
struct EarlyOpenScenario {
  std::unique_ptr<testing::SimEnv> env;
  std::unique_ptr<testing::SmallDb> db;
  std::unique_ptr<engine::Database> next;

  explicit EarlyOpenScenario(const engine::DatabaseConfig& cfg) {
    std::vector<std::uint8_t> payload(48, 1);
    std::vector<std::uint8_t> changed(48, 2);
    env = std::make_unique<testing::SimEnv>();
    db = std::make_unique<testing::SmallDb>(*env, cfg);
    std::vector<RowId> rids;
    for (int i = 0; i < 256; ++i) {
      auto txn = db->db->begin();
      auto rid = db->db->insert(txn.value(), db->table, payload);
      VDB_CHECK(rid.is_ok());
      rids.push_back(rid.value());
      (void)db->db->commit(txn.value());
    }
    VDB_CHECK(db->db->checkpoint_now().is_ok());
    for (const RowId& rid : rids) {
      auto txn = db->db->begin();
      (void)db->db->update(txn.value(), db->table, rid, changed);
      (void)db->db->commit(txn.value());
    }
    VDB_CHECK(db->db->shutdown_abort().is_ok());
    next = std::make_unique<engine::Database>(&env->host, &env->sched, cfg);
  }
};

void BM_EarlyOpenAnalysis(benchmark::State& state) {
  // Early-open restart (M3): the timed region is startup() alone — log
  // analysis, per-page run staging, loser check, object rebuild, and the
  // early open. The redo backlog stays staged behind the open; draining a
  // page of it is BM_OnDemandPageRecover's subject.
  engine::DatabaseConfig cfg = testing::small_db_config();
  cfg.restart_mode = engine::RestartMode::kM3OnDemand;
  for (auto _ : state) {
    state.PauseTiming();
    auto scenario = std::make_unique<EarlyOpenScenario>(cfg);
    state.ResumeTiming();

    VDB_CHECK(scenario->next->startup().is_ok());

    state.PauseTiming();
    VDB_CHECK(scenario->next->complete_restart_recovery().is_ok());
    scenario.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_EarlyOpenAnalysis);

void BM_OnDemandPageRecover(benchmark::State& state) {
  // Single-page on-demand roll-forward behind an early open: the fetch-
  // gate hit, one retained-run drain (fetch + LSN guard + apply +
  // mark_dirty), and the coordinator's wait-event/tracer bookkeeping.
  engine::DatabaseConfig cfg = testing::small_db_config();
  cfg.restart_mode = engine::RestartMode::kM3OnDemand;
  std::int64_t pages = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto scenario = std::make_unique<EarlyOpenScenario>(cfg);
    VDB_CHECK(scenario->next->startup().is_ok());
    engine::RestartCoordinator* rc = scenario->next->restart_coordinator();
    VDB_CHECK(rc != nullptr && rc->has_pending());
    const std::vector<PageId> pending = rc->pending_pages();
    state.ResumeTiming();

    for (PageId pid : pending) {
      VDB_CHECK(rc->recover_page(pid).is_ok());
    }

    state.PauseTiming();
    pages += static_cast<std::int64_t>(pending.size());
    VDB_CHECK(scenario->next->complete_restart_recovery().is_ok());
    scenario.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(pages);
}
BENCHMARK(BM_OnDemandPageRecover);

void BM_CustomerRowCodec(benchmark::State& state) {
  // The widest row: eleven InlineString fields, c_data near its 500 bytes.
  // Only the encoded byte vector touches the heap.
  tpcc::CustomerRow row;
  row.c_first = "FIRSTNAMEFIRSTNA";
  row.c_last = "BARBARBAR";
  row.c_data = std::string(450, 'd');
  for (auto _ : state) {
    const auto bytes = tpcc::to_bytes(row);
    benchmark::DoNotOptimize(tpcc::from_bytes<tpcc::CustomerRow>(bytes));
  }
}
BENCHMARK(BM_CustomerRowCodec);

void BM_EngineInsertCommit(benchmark::State& state) {
  testing::SimEnv env;
  testing::SmallDb db(env, testing::small_db_config());
  std::vector<std::uint8_t> payload(48, 1);
  for (auto _ : state) {
    auto txn = db.db->begin();
    (void)db.db->insert(txn.value(), db.table, payload);
    (void)db.db->commit(txn.value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineInsertCommit);

/// One interaction's pass through the serial 2PL table on a warm table:
/// `rows` row locks, a third of them exclusive, then the end that releases
/// them. 8 rows is a Payment, 55 the mix's mean, 400 a Stock-Level. Each
/// iteration locks a different set of rows.
void BM_LockMediateEnd(benchmark::State& state) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::k2pl, nullptr);
  const auto rows = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t next = 1;
  std::uint32_t base = 0;
  for (auto _ : state) {
    const TxnId txn{next++};
    for (std::uint32_t r = 0; r < rows; ++r) {
      const auto target = txn::LockTarget::for_row(
          TableId{1 + r % 9},
          RowId{PageId{FileId{1}, base + r * 37},
                static_cast<std::uint16_t>(r % 50)});
      const auto mode =
          r % 3 == 0 ? txn::AccessMode::kWrite : txn::AccessMode::kRead;
      VDB_CHECK(cc->mediate(txn, target, mode, false).is_ok());
    }
    cc->end(txn, true);
    base = (base + 7919) % 100000;
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_LockMediateEnd)->Arg(8)->Arg(55)->Arg(400);

/// The key-to-row lookups New-Order and Payment make most: one stock_rid
/// and one customer_rid per iteration, over 4096 pre-drawn keys of the
/// one-warehouse rig below.
void BM_TpccAccessPath(benchmark::State& state) {
  testing::SimEnv env;
  testing::SmallTpcc rig(env);
  const tpcc::TpccScale& scale = rig.tdb->scale();
  struct Keys {
    std::uint32_t item, district, customer;
  };
  Rng rng(5);
  std::vector<Keys> keys(4096);
  for (Keys& k : keys) {
    k.item = static_cast<std::uint32_t>(rng.uniform(1, scale.items));
    k.district = static_cast<std::uint32_t>(
        rng.uniform(1, scale.districts_per_warehouse));
    k.customer = static_cast<std::uint32_t>(
        rng.uniform(1, scale.customers_per_district));
  }
  size_t i = 0;
  for (auto _ : state) {
    const Keys& k = keys[i++ % keys.size()];
    benchmark::DoNotOptimize(rig.tdb->stock_rid(1, k.item));
    benchmark::DoNotOptimize(rig.tdb->customer_rid(1, k.district, k.customer));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TpccAccessPath);

/// Restart's access-path rebuild on the one-warehouse rig below: attach
/// (which clears every path) and one rebuild scan of both datafiles, which
/// decodes every live row and rebuilds the dense and B+-tree paths.
void BM_TpccRebuildAccessPaths(benchmark::State& state) {
  testing::SimEnv env;
  testing::SmallTpcc rig(env);
  VDB_CHECK(rig.db->checkpoint_now().is_ok());  // the scan reads the files
  const size_t entries = rig.tdb->index_entries();
  for (auto _ : state) {
    VDB_CHECK(rig.tdb->attach(rig.db.get()).is_ok());
    VDB_CHECK(rig.db->rebuild_object_state().is_ok());
  }
  VDB_CHECK(rig.tdb->index_entries() == entries);
  state.counters["entries"] = static_cast<double>(entries);
}
BENCHMARK(BM_TpccRebuildAccessPaths)->Unit(benchmark::kMillisecond);

/// One initial population (Loader::load) at the default scale into a
/// fresh database laid out as an experiment's testbed: two 512-block
/// datafiles and a 2048-frame cache. Building the instance and its schema,
/// and tearing them down, stay outside the timing. Reports microseconds
/// per loaded row.
void BM_TpccLoad(benchmark::State& state) {
  struct Fresh {
    testing::SimEnv env;
    std::unique_ptr<engine::Database> db;
    std::unique_ptr<tpcc::TpccDb> tdb;
  };
  engine::DatabaseConfig cfg = testing::small_db_config();
  cfg.storage.cache_pages = 2048;
  std::uint64_t rows = 0;
  double load_us = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fresh = std::make_unique<Fresh>();
    fresh->db = std::make_unique<engine::Database>(&fresh->env.host,
                                                   &fresh->env.sched, cfg);
    VDB_CHECK(fresh->db->create().is_ok());
    VDB_CHECK(fresh->db
                  ->create_tablespace("TPCC", {{"/data/tpcc01.dbf", 512},
                                               {"/data/tpcc02.dbf", 512}})
                  .is_ok());
    auto user = fresh->db->create_user("TPCC", false);
    VDB_CHECK(user.is_ok());
    fresh->tdb = std::make_unique<tpcc::TpccDb>(tpcc::TpccScale{});
    VDB_CHECK(
        fresh->tdb->create_schema(*fresh->db, "TPCC", user.value()).is_ok());
    VDB_CHECK(fresh->tdb->attach(fresh->db.get()).is_ok());
    tpcc::Loader loader(fresh->tdb.get(), 7);
    state.ResumeTiming();

    const auto start = std::chrono::steady_clock::now();
    auto stats = loader.load();
    load_us += std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count();

    state.PauseTiming();
    VDB_CHECK(stats.is_ok());
    rows += stats.value().rows;
    fresh.reset();
    state.ResumeTiming();
  }
  state.counters["us_per_row"] = load_us / static_cast<double>(rows);
}
BENCHMARK(BM_TpccLoad)->Unit(benchmark::kMillisecond);

constexpr std::size_t kShippedArchives = 24;

/// Standby managed recovery of one shipped archive of New-Order redo:
/// read on the primary, ship, store on the standby, then parse, note, stage
/// and drain it. The archives (2 MiB charged, about 1.1 MiB stored, each)
/// are produced up front and each iteration ships the next one, so every
/// apply writes its pages.
void BM_StandbyApplyArchive(benchmark::State& state) {
  testing::SimEnv env;
  engine::DatabaseConfig cfg = testing::SmallTpcc::config();
  cfg.redo.archive_mode = true;
  cfg.redo.file_size_bytes = 2 * 1024 * 1024;
  testing::SmallTpcc rig(env, 100, cfg);
  recovery::BackupManager backups(&env.host.fs(), "/backup");
  sim::Host standby_host("standby", &env.clock);
  for (const char* dir : {"/data", "/redo", "/arch", "/backup"}) {
    standby_host.add_disk(dir);
  }
  sim::NetworkLink link;
  standby::StandbyConfig scfg;
  scfg.db = cfg;
  standby::StandbyDatabase standby(&standby_host, &env.sched, scfg, &link);
  VDB_CHECK(standby.instantiate_from(*rig.db, backups).is_ok());

  struct Shipment {
    std::string path;
    std::uint64_t seq;
    SimTime done_at;
  };
  std::vector<Shipment> archives;
  rig.db->archiver().on_archived =
      [&](const std::string& path, std::uint64_t seq, SimTime done_at) {
        archives.push_back({path, seq, done_at});
      };
  tpcc::TpccRandom random(Rng{3}, rig.tdb->scale());
  tpcc::TpccTxns txns(rig.tdb.get(), &random);
  while (archives.size() < kShippedArchives) {
    VDB_CHECK(txns.run(tpcc::TxnType::kNewOrder, 1).is_ok());
  }
  std::uint64_t bytes = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const Shipment& a = archives[next++ % archives.size()];
    bytes += env.host.fs().size(a.path).value();
    standby.on_primary_archive(env.host.fs(), a.path, a.seq, a.done_at);
  }
  VDB_CHECK(standby.archives_applied() ==
            static_cast<std::uint64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_StandbyApplyArchive)
    ->Iterations(kShippedArchives)
    ->Unit(benchmark::kMicrosecond);

/// One TPC-C interaction of `type` per iteration, on warehouse 1 of a
/// loaded one-warehouse database whose working set the cache holds.
void run_tpcc_profile(benchmark::State& state, tpcc::TxnType type) {
  testing::SimEnv env;
  testing::SmallTpcc rig(env);
  tpcc::TpccRandom random(Rng{3}, rig.tdb->scale());
  tpcc::TpccTxns txns(rig.tdb.get(), &random);
  for (auto _ : state) {
    auto outcome = txns.run(type, 1);
    VDB_CHECK(outcome.is_ok());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_TpccNewOrder(benchmark::State& state) {
  run_tpcc_profile(state, tpcc::TxnType::kNewOrder);
}
BENCHMARK(BM_TpccNewOrder);

void BM_TpccPayment(benchmark::State& state) {
  run_tpcc_profile(state, tpcc::TxnType::kPayment);
}
BENCHMARK(BM_TpccPayment);

/// Reads ~200 ORDER-LINE rows and the STOCK quantity of every distinct
/// item on them: the read path at its widest.
void BM_TpccStockLevel(benchmark::State& state) {
  run_tpcc_profile(state, tpcc::TxnType::kStockLevel);
}
BENCHMARK(BM_TpccStockLevel);

}  // namespace

BENCHMARK_MAIN();
