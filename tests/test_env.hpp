// Shared test fixtures: a simulated machine and small-database helpers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/database.hpp"
#include "sim/host.hpp"
#include "sim/scheduler.hpp"
#include "tpcc/tpcc_db.hpp"
#include "tpcc/tpcc_loader.hpp"

namespace vdb::testing {

/// One simulated machine with the standard four-disk layout.
struct SimEnv {
  sim::VirtualClock clock;
  sim::Scheduler sched{&clock};
  sim::Host host{"test", &clock};

  SimEnv() {
    host.add_disk("/data");
    host.add_disk("/redo");
    host.add_disk("/arch");
    host.add_disk("/backup");
  }
};

inline engine::DatabaseConfig small_db_config(bool archive = false) {
  engine::DatabaseConfig cfg;
  cfg.redo.file_size_bytes = 1 * 1024 * 1024;
  cfg.redo.groups = 3;
  cfg.redo.archive_mode = archive;
  cfg.checkpoint_timeout = 30 * kSecond;
  cfg.storage.cache_pages = 256;
  return cfg;
}

/// A fresh database with one USERS tablespace and an "accounts" table.
struct SmallDb {
  std::unique_ptr<engine::Database> db;
  TableId table{};
  UserId user{};

  explicit SmallDb(SimEnv& env,
                   engine::DatabaseConfig cfg = small_db_config()) {
    db = std::make_unique<engine::Database>(&env.host, &env.sched, cfg);
    VDB_CHECK(db->create().is_ok());
    VDB_CHECK(
        db->create_tablespace("USERS", {{"/data/users01.dbf", 64}}).is_ok());
    auto u = db->create_user("APP", false);
    VDB_CHECK(u.is_ok());
    user = u.value();
    auto t = db->create_table("accounts", "USERS", 64, user);
    VDB_CHECK(t.is_ok());
    table = t.value();
  }
};

inline std::vector<std::uint8_t> row(const std::string& s) {
  return {s.begin(), s.end()};
}

inline std::string row_str(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

/// One row read through transaction `txn`, as a string.
inline Result<std::string> read_str(engine::Database& db, TxnId txn,
                                    TableId table, RowId rid) {
  std::vector<std::uint8_t> bytes;
  VDB_RETURN_IF_ERROR(db.read(txn, table, rid, &bytes));
  return row_str(bytes);
}

/// Inserts a row in its own committed transaction; returns its RowId.
inline RowId put_row(engine::Database& db, TableId table,
                     const std::string& value) {
  auto txn = db.begin();
  VDB_CHECK(txn.is_ok());
  auto rid = db.insert(txn.value(), table, row(value));
  VDB_CHECK_MSG(rid.is_ok(), rid.status().to_string());
  VDB_CHECK(db.commit(txn.value()).is_ok());
  return rid.value();
}

/// All live rows of a table as strings (scan order).
inline std::vector<std::string> all_rows(engine::Database& db, TableId table) {
  std::vector<std::string> out;
  VDB_CHECK(db.scan(table, [&](RowId, std::span<const std::uint8_t> bytes) {
                out.push_back(row_str(bytes));
                return true;
              }).is_ok());
  return out;
}

/// A loaded one-warehouse TPC-C database (100 customers per district,
/// 1000 items) with a cache that holds all of it: the rig the TPC-C
/// micro-benchmarks and the allocation-budget tests drive.
struct SmallTpcc {
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<tpcc::TpccDb> tdb;

  explicit SmallTpcc(SimEnv& env, std::uint32_t orders_per_district = 100,
                     const engine::DatabaseConfig& cfg = config()) {
    db = std::make_unique<engine::Database>(&env.host, &env.sched, cfg);
    VDB_CHECK(db->create().is_ok());
    VDB_CHECK(db->create_tablespace("TPCC", {{"/data/t1.dbf", 512},
                                             {"/data/t2.dbf", 512}})
                  .is_ok());
    auto user = db->create_user("TPCC", false);
    VDB_CHECK(user.is_ok());
    tdb = std::make_unique<tpcc::TpccDb>(scale(orders_per_district));
    VDB_CHECK(tdb->create_schema(*db, "TPCC", user.value()).is_ok());
    VDB_CHECK(tdb->attach(db.get()).is_ok());
    tpcc::Loader loader(tdb.get(), 7);
    VDB_CHECK(loader.load().is_ok());
  }

  /// The rig's database: 16 MiB redo files, no archiving, a 2048-page
  /// cache.
  static engine::DatabaseConfig config() {
    engine::DatabaseConfig cfg = small_db_config();
    cfg.redo.file_size_bytes = 16 * 1024 * 1024;
    cfg.storage.cache_pages = 2048;
    return cfg;
  }

  static tpcc::TpccScale scale(std::uint32_t orders_per_district) {
    tpcc::TpccScale s;
    s.warehouses = 1;
    s.customers_per_district = 100;
    s.items = 1000;
    s.initial_orders_per_district = orders_per_district;
    return s;
  }
};

}  // namespace vdb::testing
