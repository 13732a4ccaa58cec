#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "tests/test_env.hpp"
#include "tpcc/consistency.hpp"
#include "tpcc/schema.hpp"
#include "tpcc/tpcc_db.hpp"
#include "tpcc/tpcc_driver.hpp"
#include "tpcc/tpcc_loader.hpp"
#include "tpcc/tpcc_random.hpp"
#include "tpcc/tpcc_txns.hpp"

namespace vdb::tpcc {
namespace {

using testing::SimEnv;
using testing::small_db_config;

TEST(TpccSchema, RowCodecsRoundtrip) {
  CustomerRow c;
  c.c_id = 5;
  c.c_d_id = 3;
  c.c_w_id = 1;
  c.c_first = "First";
  c.c_middle = "OE";
  c.c_last = "BARBARBAR";
  c.c_credit = "BC";
  c.c_balance = -42.5;
  c.c_data = std::string(500, 'd');
  const auto bytes = to_bytes(c);
  EXPECT_LE(bytes.size(), CustomerRow::kSlotSize);
  const auto back = from_bytes<CustomerRow>(bytes);
  EXPECT_EQ(back.c_last, "BARBARBAR");
  EXPECT_DOUBLE_EQ(back.c_balance, -42.5);
  EXPECT_EQ(back.c_data.size(), 500u);

  StockRow s;
  s.s_i_id = 7;
  s.s_w_id = 2;
  s.s_quantity = -3;  // can go below zero per spec arithmetic
  for (auto& d : s.s_dist) d = std::string(24, 'x');
  s.s_data = std::string(50, 'y');
  const auto sbytes = to_bytes(s);
  EXPECT_LE(sbytes.size(), StockRow::kSlotSize);
  const auto sback = from_bytes<StockRow>(sbytes);
  EXPECT_EQ(sback.s_quantity, -3);
  EXPECT_EQ(sback.s_dist[9].size(), 24u);

  OrderRow o;
  o.o_id = 1;
  o.o_carrier_id = -1;
  o.o_ol_cnt = 15;
  const auto oback = from_bytes<OrderRow>(to_bytes(o));
  EXPECT_EQ(oback.o_carrier_id, -1);
  EXPECT_EQ(oback.o_ol_cnt, 15);
}

TEST(TpccSchema, MaximalRowsFitSlots) {
  // Worst-case string fields must fit the declared slot sizes.
  WarehouseRow w;
  w.w_name = std::string(10, 'x');
  w.w_street_1 = w.w_street_2 = w.w_city = std::string(20, 'x');
  w.w_state = "XX";
  w.w_zip = "123456789";
  EXPECT_LE(to_bytes(w).size(), WarehouseRow::kSlotSize);

  OrderLineRow ol;
  ol.ol_dist_info = std::string(24, 'x');
  EXPECT_LE(to_bytes(ol).size(), OrderLineRow::kSlotSize);

  ItemRow item;
  item.i_name = std::string(24, 'x');
  item.i_data = std::string(50, 'x');
  EXPECT_LE(to_bytes(item).size(), ItemRow::kSlotSize);

  HistoryRow h;
  h.h_data = std::string(24, 'x');
  EXPECT_LE(to_bytes(h).size(), HistoryRow::kSlotSize);
}

TEST(TpccRandom, LastNameSyllables) {
  TpccRandom tr(Rng{1}, TpccScale{});
  EXPECT_EQ(tr.last_name(0), "BARBARBAR");
  EXPECT_EQ(tr.last_name(371), "PRICALLYOUGHT");
  EXPECT_EQ(tr.last_name(999), "EINGEINGEING");
}

TEST(TpccRandom, GeneratorsRespectScale) {
  TpccScale scale;
  scale.warehouses = 3;
  scale.customers_per_district = 50;
  scale.items = 100;
  TpccRandom tr(Rng{2}, scale);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LE(tr.nurand_customer_id(), 50u);
    EXPECT_GE(tr.nurand_customer_id(), 1u);
    EXPECT_LE(tr.nurand_item_id(), 100u);
    EXPECT_GE(tr.nurand_item_id(), 1u);
    EXPECT_LE(tr.warehouse_id(), 3u);
    EXPECT_GE(tr.warehouse_id(), 1u);
    EXPECT_LE(tr.district_id(), 10u);
  }
}

/// Full TPC-C environment on a small scale.
class TpccFixture : public ::testing::Test {
 protected:
  SimEnv env_;
  engine::DatabaseConfig cfg_;
  std::unique_ptr<engine::Database> db_;
  TpccScale scale_;
  std::unique_ptr<TpccDb> tdb_;
  std::uint32_t warehouses_ = 1;

  void SetUp() override {
    cfg_ = small_db_config();
    cfg_.redo.file_size_bytes = 2 * 1024 * 1024;
    cfg_.storage.cache_pages = 1024;
    scale_.warehouses = warehouses_;
    scale_.customers_per_district = 30;
    scale_.items = 200;
    scale_.initial_orders_per_district = 30;

    db_ = std::make_unique<engine::Database>(&env_.host, &env_.sched, cfg_);
    ASSERT_TRUE(db_->create().is_ok());
    ASSERT_TRUE(db_->create_tablespace("TPCC", {{"/data/tpcc01.dbf", 256},
                                                {"/data/tpcc02.dbf", 256}})
                    .is_ok());
    auto user = db_->create_user("TPCC", false);
    ASSERT_TRUE(user.is_ok());
    tdb_ = std::make_unique<TpccDb>(scale_);
    ASSERT_TRUE(tdb_->create_schema(*db_, "TPCC", user.value()).is_ok());
    ASSERT_TRUE(tdb_->attach(db_.get()).is_ok());
    Loader loader(tdb_.get(), 99);
    auto stats = loader.load();
    ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  }
};

TEST_F(TpccFixture, LoaderPopulatesSpecCardinalities) {
  auto count = [&](Tbl t) {
    std::uint64_t n = 0;
    VDB_CHECK(db_->scan(tdb_->table(t),
                        [&](RowId, std::span<const std::uint8_t>) {
                          n += 1;
                          return true;
                        })
                  .is_ok());
    return n;
  };
  EXPECT_EQ(count(Tbl::kWarehouse), 1u);
  EXPECT_EQ(count(Tbl::kDistrict), 10u);
  EXPECT_EQ(count(Tbl::kCustomer), 300u);   // 30 × 10 districts
  EXPECT_EQ(count(Tbl::kHistory), 300u);
  EXPECT_EQ(count(Tbl::kItem), 200u);
  EXPECT_EQ(count(Tbl::kStock), 200u);
  EXPECT_EQ(count(Tbl::kOrder), 300u);
  EXPECT_EQ(count(Tbl::kNewOrder), 90u);    // 30% undelivered
  EXPECT_GT(count(Tbl::kOrderLine), 300u * 5);
}

// The loader's rows are a pure function of its seed. Their CRC32C, table by
// table in scan order, is pinned: a change to how the loader or the Rng
// draws its strings that moves any byte of any row fails here. The
// simulated benches compare row counts and timings, not string contents,
// so this is the only check on them.
TEST_F(TpccFixture, LoaderRowsMatchPinnedDigest) {
  std::uint32_t crc = 0;
  std::uint64_t rows = 0;
  for (size_t i = 0; i < kTableCount; ++i) {
    ASSERT_TRUE(db_->scan(tdb_->table(static_cast<Tbl>(i)),
                          [&](RowId, std::span<const std::uint8_t> bytes) {
                            crc = crc32c(bytes, crc);
                            rows += 1;
                            return true;
                          })
                    .is_ok());
  }
  EXPECT_EQ(rows, 4317u);
  EXPECT_EQ(crc, 2788685549u);
}

// The dense access paths end at the scale: New-Order's unused item id
// (items + 1) and keys past any other dimension have no row, and a key past
// one dimension never aliases the next position's row.
TEST_F(TpccFixture, DensePathsEndAtTheScale) {
  EXPECT_TRUE(tdb_->item_rid(scale_.items).has_value());
  EXPECT_FALSE(tdb_->item_rid(scale_.items + 1).has_value());
  EXPECT_FALSE(tdb_->item_rid(0).has_value());
  EXPECT_TRUE(tdb_->stock_rid(1, scale_.items).has_value());
  EXPECT_FALSE(tdb_->stock_rid(1, scale_.items + 1).has_value());
  EXPECT_FALSE(tdb_->warehouse_rid(2).has_value());
  EXPECT_FALSE(tdb_->district_rid(1, 11).has_value());
  EXPECT_FALSE(tdb_->customer_rid(1, 1, scale_.customers_per_district + 1)
                   .has_value());
  EXPECT_FALSE(tdb_->customer_rid(1, 2, 0).has_value());
}

// A dense path keeps a key's first row, as a unique index does, and a
// delete notification clears the key only while it still maps to the
// deleted row: the rollback of a duplicate insert must not strip the
// original's entry.
TEST_F(TpccFixture, DensePathErasesOnlyTheMatchingRow) {
  const RowId original = *tdb_->warehouse_rid(1);
  const size_t entries = tdb_->index_entries();

  auto txn = db_->begin();
  ASSERT_TRUE(txn.is_ok());
  WarehouseRow dup;
  dup.w_id = 1;
  dup.w_name = "DUP";
  ASSERT_TRUE(tdb_->insert_row(txn.value(), Tbl::kWarehouse, dup).is_ok());
  EXPECT_EQ(tdb_->warehouse_rid(1), original);
  EXPECT_EQ(tdb_->index_entries(), entries);
  ASSERT_TRUE(db_->rollback(txn.value()).is_ok());
  EXPECT_EQ(tdb_->warehouse_rid(1), original);
  EXPECT_EQ(tdb_->index_entries(), entries);

  txn = db_->begin();
  ASSERT_TRUE(txn.is_ok());
  ASSERT_TRUE(
      db_->erase(txn.value(), tdb_->table(Tbl::kWarehouse), original).is_ok());
  EXPECT_FALSE(tdb_->warehouse_rid(1).has_value());
  EXPECT_EQ(tdb_->index_entries(), entries - 1);
  ASSERT_TRUE(db_->rollback(txn.value()).is_ok());
  EXPECT_EQ(tdb_->warehouse_rid(1), original);
  EXPECT_EQ(tdb_->index_entries(), entries);
}

TEST_F(TpccFixture, IndexesMatchHeapAfterLoad) {
  // Every order row is reachable through its index.
  std::uint64_t checked = 0;
  ASSERT_TRUE(db_->scan(tdb_->table(Tbl::kOrder),
                        [&](RowId rid, std::span<const std::uint8_t> bytes) {
                          auto r = from_bytes<OrderRow>(bytes);
                          auto idx =
                              tdb_->order_rid(r.o_w_id, r.o_d_id, r.o_id);
                          EXPECT_TRUE(idx.has_value());
                          if (idx) EXPECT_EQ(*idx, rid);
                          checked += 1;
                          return true;
                        })
                  .is_ok());
  EXPECT_EQ(checked, 300u);
}

TEST_F(TpccFixture, InitialStateIsConsistent) {
  ConsistencyChecker checker(tdb_.get());
  auto report = checker.run_all();
  ASSERT_TRUE(report.is_ok());
  for (const auto& msg : report.value().messages) ADD_FAILURE() << msg;
  EXPECT_EQ(report.value().violations, 0u);
  EXPECT_GE(report.value().checks_run, 7u);
}

TEST_F(TpccFixture, CustomersByNameOrderedById) {
  // Pick a known customer and look it up by name.
  auto rid = tdb_->customer_rid(1, 1, 1);
  ASSERT_TRUE(rid.has_value());
  auto txn = db_->begin();
  auto cust = tdb_->read_row<CustomerRow>(txn.value(), Tbl::kCustomer, *rid);
  ASSERT_TRUE(cust.is_ok());
  ASSERT_TRUE(db_->commit(txn.value()).is_ok());

  auto matches = tdb_->customers_by_name(1, 1, cust.value().c_last);
  ASSERT_FALSE(matches.empty());
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_LT(matches[i - 1].first, matches[i].first);
  }
}

// A bulk build keeps the first rid the scan met for each key, and an entry
// the tree already held when the scan ended (a standby's loser rollback
// re-inserts rows through the observers) over any the scan collected.
TEST(TreePath, FinishKeepsHeldEntriesAndFirstRidPerKey) {
  const auto rid = [](std::uint32_t block) {
    return RowId{PageId{FileId{1}, block}, 0};
  };
  TreePath<std::tuple<std::uint32_t>> path;
  path.add({5}, rid(1), /*collect=*/false);
  for (const auto& [key, block] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {5, 2}, {3, 3}, {9, 4}, {3, 5}, {9, 6}}) {
    path.add({key}, rid(block), /*collect=*/true);
  }
  EXPECT_EQ(path.size(), 1u);  // collected pairs wait for finish()
  path.finish();
  ASSERT_TRUE(path.validate());
  std::vector<std::pair<std::uint32_t, RowId>> entries;
  path.for_each([&](const std::tuple<std::uint32_t>& key, const RowId& r) {
    entries.emplace_back(std::get<0>(key), r);
    return true;
  });
  const std::vector<std::pair<std::uint32_t, RowId>> expected{
      {3, rid(3)}, {5, rid(1)}, {9, rid(4)}};
  EXPECT_EQ(entries, expected);
}

/// A B+-tree path entry as (path, key fields, rid); a last name becomes
/// its sixteen bytes.
using TreeEntry =
    std::tuple<int, std::vector<std::uint32_t>, std::string, RowId>;

std::vector<TreeEntry> tree_entries(const TpccDb& tdb) {
  std::vector<TreeEntry> out;
  tdb.for_each_tree_entry([&](int path, const auto& key, RowId rid) {
    TreeEntry entry{path, {}, {}, rid};
    std::apply(
        [&](const auto&... field) {
          const auto put = [&](const auto& f) {
            if constexpr (std::is_same_v<std::decay_t<decltype(f)>, NameArr>) {
              std::get<2>(entry).assign(f.begin(), f.end());
            } else {
              std::get<1>(entry).push_back(f);
            }
          };
          (put(field), ...);
        },
        key);
    out.push_back(std::move(entry));
  });
  return out;
}

// A crash restart rebuilds the B+-tree paths in bulk from the rebuild
// scan: every path holds the (key, rid) set it held before the crash, and
// where two rows share a key the path keeps the one the scan meets first,
// the lowest (file, block, slot), as row-by-row inserts in scan order did.
TEST_F(TpccFixture, RestartRebuildKeepsEveryAccessPath) {
  // The load ran NOLOGGING; make it durable as the harness's backup does.
  ASSERT_TRUE(db_->checkpoint_now().is_ok());
  TpccRandom random(Rng{11}, scale_);
  TpccTxns txns(tdb_.get(), &random);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(txns.run(TxnType::kNewOrder, 1).is_ok());
    ASSERT_TRUE(txns.run(TxnType::kPayment, 1).is_ok());
    if (i % 10 == 0) ASSERT_TRUE(txns.run(TxnType::kDelivery, 1).is_ok());
  }
  const auto restart = [&] {
    ASSERT_TRUE(db_->shutdown_abort().is_ok());
    auto fresh =
        std::make_unique<engine::Database>(&env_.host, &env_.sched, cfg_);
    fresh->set_on_mounted(
        [this](engine::Database& d) { ASSERT_TRUE(tdb_->attach(&d).is_ok()); });
    ASSERT_TRUE(fresh->startup().is_ok());
    db_ = std::move(fresh);
  };

  const std::vector<TreeEntry> before = tree_entries(*tdb_);
  const size_t entries = tdb_->index_entries();
  ASSERT_GT(before.size(), 1000u);
  restart();
  EXPECT_EQ(tdb_->index_entries(), entries);
  const std::vector<TreeEntry> after = tree_entries(*tdb_);
  EXPECT_TRUE(before == after);
  for (int path = 0; path < 5; ++path) {
    EXPECT_TRUE(std::any_of(after.begin(), after.end(), [&](const auto& e) {
      return std::get<0>(e) == path;
    })) << "path " << path;
  }

  // Duplicate keys: a second ORDER row for order (1, 1, 5) and a second
  // ORDER-LINE row for its line 1, committed to the heap. A unique path
  // keeps the original while the database runs.
  const RowId order = *tdb_->order_rid(1, 1, 5);
  const RowId line = tdb_->order_lines(1, 1, 5).front();
  auto txn = db_->begin();
  ASSERT_TRUE(txn.is_ok());
  auto order_row = tdb_->read_row<OrderRow>(txn.value(), Tbl::kOrder, order);
  auto line_row =
      tdb_->read_row<OrderLineRow>(txn.value(), Tbl::kOrderLine, line);
  ASSERT_TRUE(order_row.is_ok() && line_row.is_ok());
  auto order_dup =
      tdb_->insert_row(txn.value(), Tbl::kOrder, order_row.value());
  auto line_dup =
      tdb_->insert_row(txn.value(), Tbl::kOrderLine, line_row.value());
  ASSERT_TRUE(order_dup.is_ok() && line_dup.is_ok());
  ASSERT_TRUE(db_->commit(txn.value()).is_ok());
  EXPECT_EQ(tdb_->order_rid(1, 1, 5), order);
  EXPECT_EQ(tdb_->index_entries(), entries);

  restart();
  EXPECT_EQ(tdb_->index_entries(), entries);
  EXPECT_EQ(tdb_->order_rid(1, 1, 5), std::min(order, order_dup.value()));
  EXPECT_EQ(tdb_->order_lines(1, 1, 5).front(),
            std::min(line, line_dup.value()));
  const std::vector<std::uint32_t> by_customer{1, 1, order_row.value().o_c_id,
                                               5};
  const std::vector<TreeEntry> rebuilt = tree_entries(*tdb_);
  const auto it = std::find_if(rebuilt.begin(), rebuilt.end(),
                               [&](const TreeEntry& e) {
                                 return std::get<0>(e) == 2 &&
                                        std::get<1>(e) == by_customer;
                               });
  ASSERT_NE(it, rebuilt.end());
  EXPECT_EQ(std::get<3>(*it), std::min(order, order_dup.value()));
}

// The loader bulk-builds the B+-tree paths from the rows it inserts; a
// restart builds them from its rebuild scan of the datafiles. Both hold the
// same entries, dense paths included.
TEST_F(TpccFixture, LoadedAccessPathsEqualARebuildScans) {
  const std::vector<TreeEntry> loaded = tree_entries(*tdb_);
  const size_t entries = tdb_->index_entries();
  ASSERT_GT(loaded.size(), 1000u);

  // The load ran NOLOGGING; make it durable as the harness's backup does.
  ASSERT_TRUE(db_->checkpoint_now().is_ok());
  ASSERT_TRUE(db_->shutdown_abort().is_ok());
  auto fresh =
      std::make_unique<engine::Database>(&env_.host, &env_.sched, cfg_);
  fresh->set_on_mounted(
      [this](engine::Database& d) { ASSERT_TRUE(tdb_->attach(&d).is_ok()); });
  ASSERT_TRUE(fresh->startup().is_ok());
  db_ = std::move(fresh);

  EXPECT_EQ(tdb_->index_entries(), entries);
  EXPECT_TRUE(tree_entries(*tdb_) == loaded);
}

// The access paths decode only a row's key fields. For every loaded row of
// the nine tables the key view equals the full decode's fields (HISTORY,
// which no path keys, decodes in full), and a row cut short inside its key
// still aborts, as the full decode does.
TEST_F(TpccFixture, KeyViewsMatchTheFullDecode) {
  const auto each_row = [&](Tbl t, const auto& check) {
    std::uint64_t rows = 0;
    ASSERT_TRUE(db_->scan(tdb_->table(t),
                          [&](RowId, std::span<const std::uint8_t> bytes) {
                            check(bytes);
                            rows += 1;
                            return true;
                          })
                    .is_ok());
    EXPECT_GT(rows, 0u) << table_name(t);
  };
  using Bytes = std::span<const std::uint8_t>;
  each_row(Tbl::kWarehouse, [](Bytes b) {
    EXPECT_EQ(from_bytes<WarehouseKey>(b).w_id, from_bytes<WarehouseRow>(b).w_id);
  });
  each_row(Tbl::kDistrict, [](Bytes b) {
    const auto k = from_bytes<DistrictKey>(b);
    const auto r = from_bytes<DistrictRow>(b);
    EXPECT_EQ(std::tie(k.d_id, k.d_w_id), std::tie(r.d_id, r.d_w_id));
  });
  each_row(Tbl::kCustomer, [](Bytes b) {
    const auto k = from_bytes<CustomerKey>(b);
    const auto r = from_bytes<CustomerRow>(b);
    EXPECT_EQ(std::tie(k.c_id, k.c_d_id, k.c_w_id),
              std::tie(r.c_id, r.c_d_id, r.c_w_id));
    EXPECT_EQ(k.c_last.view(), r.c_last.view());
  });
  each_row(Tbl::kHistory, [](Bytes b) { (void)from_bytes<HistoryRow>(b); });
  each_row(Tbl::kNewOrder, [](Bytes b) {
    const auto r = from_bytes<NewOrderRow>(b);
    EXPECT_EQ(to_bytes(r), std::vector<std::uint8_t>(b.begin(), b.end()));
  });
  each_row(Tbl::kOrder, [](Bytes b) {
    const auto k = from_bytes<OrderKey>(b);
    const auto r = from_bytes<OrderRow>(b);
    EXPECT_EQ(std::tie(k.o_id, k.o_d_id, k.o_w_id, k.o_c_id),
              std::tie(r.o_id, r.o_d_id, r.o_w_id, r.o_c_id));
  });
  each_row(Tbl::kOrderLine, [](Bytes b) {
    const auto k = from_bytes<OrderLineKey>(b);
    const auto r = from_bytes<OrderLineRow>(b);
    EXPECT_EQ(std::tie(k.ol_o_id, k.ol_d_id, k.ol_w_id, k.ol_number),
              std::tie(r.ol_o_id, r.ol_d_id, r.ol_w_id, r.ol_number));
  });
  each_row(Tbl::kItem, [](Bytes b) {
    EXPECT_EQ(from_bytes<ItemKey>(b).i_id, from_bytes<ItemRow>(b).i_id);
  });
  each_row(Tbl::kStock, [](Bytes b) {
    const auto k = from_bytes<StockQuantity>(b);
    const auto r = from_bytes<StockRow>(b);
    EXPECT_EQ(std::tie(k.s_i_id, k.s_w_id), std::tie(r.s_i_id, r.s_w_id));
  });

  OrderLineRow line;
  line.ol_o_id = 1;
  const std::vector<std::uint8_t> bytes = to_bytes(line);
  const Bytes cut(bytes.data(), 12);  // ends before ol_number
  EXPECT_DEATH((void)from_bytes<OrderLineRow>(cut), "row decode failed");
  EXPECT_DEATH((void)from_bytes<OrderLineKey>(cut), "row decode failed");
}

TEST_F(TpccFixture, EachTransactionTypeExecutes) {
  TpccRandom random(Rng{7}, scale_);
  TpccTxns txns(tdb_.get(), &random);
  for (TxnType type : {TxnType::kNewOrder, TxnType::kPayment,
                       TxnType::kOrderStatus, TxnType::kDelivery,
                       TxnType::kStockLevel}) {
    auto outcome = txns.run(type, 1);
    ASSERT_TRUE(outcome.is_ok())
        << to_string(type) << ": " << outcome.status().to_string();
    EXPECT_TRUE(outcome.value().committed ||
                outcome.value().intentional_rollback);
  }
}

TEST_F(TpccFixture, NewOrderAdvancesDistrictAndStock) {
  auto d_rid = tdb_->district_rid(1, 1);
  ASSERT_TRUE(d_rid.has_value());
  auto txn0 = db_->begin();
  const auto before =
      tdb_->read_row<DistrictRow>(txn0.value(), Tbl::kDistrict, *d_rid);
  ASSERT_TRUE(db_->commit(txn0.value()).is_ok());

  TpccRandom random(Rng{8}, scale_);
  TpccTxns txns(tdb_.get(), &random);
  int committed = 0;
  for (int i = 0; i < 40; ++i) {
    auto outcome = txns.new_order(1);
    ASSERT_TRUE(outcome.is_ok());
    if (outcome.value().committed) committed += 1;
  }
  EXPECT_GT(committed, 30);

  auto txn1 = db_->begin();
  const auto after =
      tdb_->read_row<DistrictRow>(txn1.value(), Tbl::kDistrict, *d_rid);
  ASSERT_TRUE(db_->commit(txn1.value()).is_ok());
  EXPECT_GT(after.value().d_next_o_id, before.value().d_next_o_id);
}

/// The fixture at two warehouses, so New-Order draws remote stock lines and
/// Payment draws remote customers.
class TpccTwoWarehouseFixture : public TpccFixture {
 protected:
  TpccTwoWarehouseFixture() { warehouses_ = 2; }
};

/// Identity route over the fixture's database that records every call.
class CountingRoute final : public TxnRoute {
 public:
  explicit CountingRoute(TpccDb* db) : inner_(db) {}

  TpccDb& db(std::uint32_t w) override {
    calls_.emplace_back('d', w);
    return inner_.db(w);
  }
  Result<TxnId> begin(std::uint32_t home) override {
    begins += 1;
    return inner_.begin(home);
  }
  Result<TxnId> txn(std::uint32_t w) override {
    calls_.emplace_back('t', w);
    return inner_.txn(w);
  }
  Result<Lsn> commit() override {
    commits += 1;
    return inner_.commit();
  }
  Status rollback() override {
    rollbacks += 1;
    return inner_.rollback();
  }

  void reset() {
    begins = commits = rollbacks = 0;
    calls_.clear();
  }
  bool touched(std::uint32_t w) const {
    for (const auto& [op, wh] : calls_) {
      if (wh == w) return true;
    }
    return false;
  }
  /// The first call naming `w` asked for its transaction, so no row of w
  /// was reached before the route could open a branch on w's owner.
  bool txn_first(std::uint32_t w) const {
    for (const auto& [op, wh] : calls_) {
      if (wh == w) return op == 't';
    }
    return false;
  }

  int begins = 0;
  int commits = 0;
  int rollbacks = 0;

 private:
  LocalRoute inner_;
  std::vector<std::pair<char, std::uint32_t>> calls_;
};

TEST_F(TpccTwoWarehouseFixture, ProfilesHonourTheRouteContract) {
  TpccRandom random(Rng{17}, scale_);
  CountingRoute route(tdb_.get());
  TpccTxns txns(&route, &random);

  // Every profile begins once and ends once: commit on success, rollback
  // on the invalid-item path.
  auto check_ends = [&](const TxnOutcome& outcome) {
    EXPECT_EQ(route.begins, 1) << to_string(outcome.type);
    if (outcome.intentional_rollback) {
      EXPECT_EQ(route.commits, 0);
      EXPECT_EQ(route.rollbacks, 1);
    } else {
      EXPECT_TRUE(outcome.committed) << to_string(outcome.type);
      EXPECT_EQ(route.commits, 1) << to_string(outcome.type);
      EXPECT_EQ(route.rollbacks, 0) << to_string(outcome.type);
    }
  };
  for (TxnType type : {TxnType::kNewOrder, TxnType::kPayment,
                       TxnType::kOrderStatus, TxnType::kDelivery,
                       TxnType::kStockLevel}) {
    route.reset();
    auto outcome = txns.run(type, 1);
    ASSERT_TRUE(outcome.is_ok())
        << to_string(type) << ": " << outcome.status().to_string();
    check_ends(outcome.value());
  }

  // New-Order until both a business rollback and a remote stock line show
  // up; the remote warehouse's transaction is asked for before its rows.
  bool rolled_back = false;
  bool remote_stock = false;
  for (int i = 0; i < 1000 && !(rolled_back && remote_stock); ++i) {
    route.reset();
    auto outcome = txns.new_order(1);
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    check_ends(outcome.value());
    rolled_back |= outcome.value().intentional_rollback;
    if (route.touched(2)) {
      remote_stock = true;
      EXPECT_TRUE(route.txn_first(2));
    }
  }
  EXPECT_TRUE(rolled_back);
  EXPECT_TRUE(remote_stock);

  // Payment until a remote customer shows up; same order of asks.
  bool remote_customer = false;
  for (int i = 0; i < 200 && !remote_customer; ++i) {
    route.reset();
    auto outcome = txns.payment(1);
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    check_ends(outcome.value());
    if (route.touched(2)) {
      remote_customer = true;
      EXPECT_TRUE(route.txn_first(2));
    }
  }
  EXPECT_TRUE(remote_customer);
}

TEST_F(TpccFixture, WorkloadStaysConsistent) {
  Driver driver(tdb_.get(), &env_.sched, DriverConfig{31, 10 * kSecond});
  const SimTime start = env_.clock.now();
  ASSERT_TRUE(driver.run_until(start + 60 * kSecond).is_ok());
  EXPECT_GT(driver.stats().committed, 100u);

  ConsistencyChecker checker(tdb_.get());
  auto report = checker.run_all();
  ASSERT_TRUE(report.is_ok());
  for (const auto& msg : report.value().messages) ADD_FAILURE() << msg;
  EXPECT_EQ(report.value().violations, 0u);
}

TEST_F(TpccFixture, DriverMixApproximatesSpec) {
  Driver driver(tdb_.get(), &env_.sched, DriverConfig{41, 10 * kSecond});
  const SimTime start = env_.clock.now();
  ASSERT_TRUE(driver.run_until(start + 120 * kSecond).is_ok());
  const auto& stats = driver.stats();
  const double total = static_cast<double>(stats.committed);
  ASSERT_GT(total, 500);
  const double new_order_share =
      static_cast<double>(
          stats.committed_by_type[static_cast<size_t>(TxnType::kNewOrder)]) /
      total;
  const double payment_share =
      static_cast<double>(
          stats.committed_by_type[static_cast<size_t>(TxnType::kPayment)]) /
      total;
  EXPECT_NEAR(new_order_share, 10.0 / 23.0, 0.05);
  EXPECT_NEAR(payment_share, 10.0 / 23.0, 0.05);
}

TEST_F(TpccFixture, DriverRecordsCommitLsns) {
  Driver driver(tdb_.get(), &env_.sched, DriverConfig{51, 10 * kSecond});
  const SimTime start = env_.clock.now();
  ASSERT_TRUE(driver.run_until(start + 20 * kSecond).is_ok());
  ASSERT_FALSE(driver.commits().empty());
  // Write transactions carry increasing commit LSNs.
  Lsn last = 0;
  for (const auto& commit : driver.commits()) {
    if (commit.commit_lsn == 0) continue;  // read-only
    EXPECT_GT(commit.commit_lsn, last);
    last = commit.commit_lsn;
  }
  EXPECT_GT(last, 0u);
  // count_lost: everything above an LSN in the middle is "lost".
  const Lsn mid = last / 2;
  EXPECT_GT(driver.count_lost(mid, env_.clock.now()), 0u);
  EXPECT_EQ(driver.count_lost(last, env_.clock.now()), 0u);
}

TEST_F(TpccFixture, ConsistencyCheckerDetectsSeededCorruption) {
  // Corrupt one warehouse ytd and verify the checker notices.
  auto w_rid = tdb_->warehouse_rid(1);
  ASSERT_TRUE(w_rid.has_value());
  auto txn = db_->begin();
  auto wh = tdb_->read_row<WarehouseRow>(txn.value(), Tbl::kWarehouse, *w_rid);
  ASSERT_TRUE(wh.is_ok());
  WarehouseRow bad = wh.value();
  bad.w_ytd += 1234.0;
  ASSERT_TRUE(tdb_->update_row(txn.value(), Tbl::kWarehouse, *w_rid, bad)
                  .is_ok());
  ASSERT_TRUE(db_->commit(txn.value()).is_ok());

  ConsistencyChecker checker(tdb_.get());
  auto report = checker.run_all();
  ASSERT_TRUE(report.is_ok());
  EXPECT_GT(report.value().violations, 0u);
}

TEST_F(TpccFixture, ConsistencyCheckerDetectsLostOrderLine) {
  // Remove one order line behind the benchmark's back.
  std::optional<RowId> victim;
  ASSERT_TRUE(db_->scan(tdb_->table(Tbl::kOrderLine),
                        [&](RowId rid, std::span<const std::uint8_t>) {
                          victim = rid;
                          return false;
                        })
                  .is_ok());
  ASSERT_TRUE(victim.has_value());
  auto txn = db_->begin();
  ASSERT_TRUE(db_->erase(txn.value(), tdb_->table(Tbl::kOrderLine), *victim)
                  .is_ok());
  ASSERT_TRUE(db_->commit(txn.value()).is_ok());

  ConsistencyChecker checker(tdb_.get());
  auto report = checker.run_all();
  ASSERT_TRUE(report.is_ok());
  EXPECT_GT(report.value().violations, 0u);
}

}  // namespace
}  // namespace vdb::tpcc
