// TPC-C database binding: schema creation, access-path indexes, and typed
// row accessors over the engine's byte-row API.
//
// Indexes are application-side access paths keyed by the business keys the
// five transactions need. The five fixed-cardinality tables (clause 1.2:
// WAREHOUSE, DISTRICT, CUSTOMER, ITEM and STOCK gain and lose no rows after
// the load) are served by dense vectors indexed by the key's position;
// the others by B+-trees. All are maintained by engine row observers
// during normal processing (including rollbacks) and rebuilt through the
// engine's rebuild hook after any recovery — mirroring how the real
// benchmark's access paths come back after Oracle recovers.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/database.hpp"
#include "index/bplus_tree.hpp"
#include "tpcc/schema.hpp"
#include "tpcc/tpcc_random.hpp"

namespace vdb::tpcc {

enum class Tbl : std::uint8_t {
  kWarehouse = 0,
  kDistrict,
  kCustomer,
  kHistory,
  kNewOrder,
  kOrder,
  kOrderLine,
  kItem,
  kStock,
};
constexpr size_t kTableCount = 9;
const char* table_name(Tbl t);

/// Access path of a fixed-cardinality table: RowIds by the key's dense
/// position, an absent position holding an invalid RowId. It grows on
/// insert. As in a unique index, a position keeps its first RowId until
/// that RowId is erased.
class DenseIndex {
 public:
  /// Position of a key outside the table's cardinality.
  static constexpr std::size_t kNoPos = ~std::size_t{0};

  void insert(std::size_t pos, RowId rid);
  /// Clears `pos` only while it still maps to `rid`.
  void erase(std::size_t pos, RowId rid);
  std::optional<RowId> find(std::size_t pos) const;
  std::size_t size() const { return size_; }
  void clear();

 private:
  std::vector<RowId> rids_;
  std::size_t size_ = 0;  // valid positions
};

/// A B+-tree access path that a bulk build fills: a rebuild scan, or the
/// initial load. While one runs, add() collects (key, rid) pairs instead
/// of inserting; finish() then stable-sorts them behind the entries the
/// tree already holds, keeps the first rid of each key (what inserting them
/// in arrival order keeps), builds the tree bottom-up, and frees the
/// pairs.
template <typename Key>
class TreePath : public index::BPlusTree<Key, RowId> {
 public:
  void add(const Key& key, RowId rid, bool collect) {
    if (collect) {
      pending_.emplace_back(key, rid);
    } else {
      this->insert(key, rid);
    }
  }

  void finish() {
    std::vector<std::pair<Key, RowId>> pairs = std::exchange(pending_, {});
    if (pairs.empty()) return;
    // Entries that reached the tree before the scan ended (a standby's
    // loser rollback re-inserts rows through the observers) go first, so
    // they keep their keys as they would under row-by-row inserts.
    std::vector<std::pair<Key, RowId>> held;
    held.reserve(this->size());
    this->for_each([&](const Key& key, const RowId& rid) {
      held.emplace_back(key, rid);
      return true;
    });
    pairs.insert(pairs.begin(), held.begin(), held.end());
    const auto by_key = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    // A load collects orders, new orders and order lines in key order.
    if (!std::is_sorted(pairs.begin(), pairs.end(), by_key)) {
      std::stable_sort(pairs.begin(), pairs.end(), by_key);
    }
    const auto same_key = [](const auto& a, const auto& b) {
      return !(a.first < b.first) && !(b.first < a.first);
    };
    pairs.erase(std::unique(pairs.begin(), pairs.end(), same_key),
                pairs.end());
    this->assign_sorted(pairs);
  }

 private:
  std::vector<std::pair<Key, RowId>> pending_;
};

/// Fixed-width last-name key segment.
using NameArr = std::array<char, 16>;
NameArr to_name_arr(std::string_view s);

class TpccDb {
 public:
  explicit TpccDb(TpccScale scale) : scale_(scale) {}

  /// Creates the nine tables (fresh database, open instance).
  Status create_schema(engine::Database& db, const std::string& tablespace,
                       UserId owner);

  /// Binds to an instance: resolves table ids, wires row observers and the
  /// post-recovery rebuild hook, clears in-memory indexes. Call before
  /// startup()/activation for recovered instances so the rebuild scan
  /// repopulates the indexes; for a freshly created database call it right
  /// after create_schema (the loader's inserts then populate the indexes
  /// through the observers).
  Status attach(engine::Database* db);

  /// A bulk build of the B+-tree paths. From begin_bulk_build() on, the
  /// rows the observers see reach those paths as collected (key, rid)
  /// pairs, which the paths do not answer from; finish_bulk_build() builds
  /// each path once from them. The loader brackets the initial population
  /// with the pair, and every rebuild scan runs the same build.
  void begin_bulk_build();
  void finish_bulk_build();

  engine::Database& db() { return *db_; }
  bool attached() const { return db_ != nullptr; }
  TableId table(Tbl t) const { return tables_[static_cast<size_t>(t)]; }
  const TpccScale& scale() const { return scale_; }

  // --- access paths ---------------------------------------------------------

  std::optional<RowId> warehouse_rid(std::uint32_t w) const;
  std::optional<RowId> district_rid(std::uint32_t w, std::uint32_t d) const;
  std::optional<RowId> customer_rid(std::uint32_t w, std::uint32_t d,
                                    std::uint32_t c) const;
  /// Customers with the given last name, ordered by c_id (clause 2.5.2.2
  /// approximated: selection by id order rather than first-name order).
  std::vector<std::pair<std::uint32_t, RowId>> customers_by_name(
      std::uint32_t w, std::uint32_t d, std::string_view last) const;
  std::optional<RowId> item_rid(std::uint32_t i) const;
  std::optional<RowId> stock_rid(std::uint32_t w, std::uint32_t i) const;
  std::optional<RowId> order_rid(std::uint32_t w, std::uint32_t d,
                                 std::uint32_t o) const;
  /// Highest o_id order of a customer.
  std::optional<std::pair<std::uint32_t, RowId>> last_order_of_customer(
      std::uint32_t w, std::uint32_t d, std::uint32_t c) const;
  /// Lowest o_id pending new-order of a district.
  std::optional<std::pair<std::uint32_t, RowId>> oldest_new_order(
      std::uint32_t w, std::uint32_t d) const;
  std::optional<RowId> new_order_rid(std::uint32_t w, std::uint32_t d,
                                     std::uint32_t o) const;
  /// Order lines of one order, in line order.
  std::vector<RowId> order_lines(std::uint32_t w, std::uint32_t d,
                                 std::uint32_t o) const;
  /// Order lines of orders with o1 <= o_id < o2 (Stock-Level).
  std::vector<RowId> order_lines_range(std::uint32_t w, std::uint32_t d,
                                       std::uint32_t o1,
                                       std::uint32_t o2) const;

  // --- typed row I/O ---------------------------------------------------------

  /// Reads and decodes one row. `Row` may also be a prefix view of the
  /// table's row type (StockQuantity). The bytes pass through a buffer
  /// owned by the calling thread, so a read allocates nothing once the
  /// buffer has grown to the widest slot.
  template <typename Row>
  Result<Row> read_row(TxnId txn, Tbl t, RowId rid) {
    std::vector<std::uint8_t>& bytes = row_buffer();
    VDB_RETURN_IF_ERROR(db_->read(txn, table(t), rid, &bytes));
    return from_bytes<Row>(bytes);
  }

  /// Encodes the row into a buffer owned by the calling thread, so a
  /// write allocates nothing for its encoding once the buffer has grown to
  /// the widest slot. The engine hands that span to the row observers, and
  /// it lives only until the thread encodes again: no observer may write a
  /// row inside a notification.
  template <typename Row>
  Result<RowId> insert_row(TxnId txn, Tbl t, const Row& row) {
    return db_->insert(txn, table(t), encode(row));
  }

  template <typename Row>
  Status update_row(TxnId txn, Tbl t, RowId rid, const Row& row) {
    return db_->update(txn, table(t), rid, encode(row));
  }

  size_t index_entries() const;
  void clear_indexes();

  /// Visits every entry of the five B+-tree paths as fn(path, key, rid):
  /// path 0 is customer-by-name, then order, order-by-customer, new-order
  /// and order-line, each in key order.
  template <typename Fn>
  void for_each_tree_entry(Fn&& fn) const {
    std::shared_lock lock(index_mu_);
    int path = 0;
    const auto visit = [&](const auto& tree) {
      tree.for_each([&](const auto& key, const RowId& rid) {
        fn(path, key, rid);
        return true;
      });
      path += 1;
    };
    visit(name_idx_);
    visit(order_idx_);
    visit(order_cust_idx_);
    visit(new_order_idx_);
    visit(order_line_idx_);
  }

 private:
  /// The calling thread's read buffer (coordinator workers share a TpccDb).
  static std::vector<std::uint8_t>& row_buffer();
  /// The calling thread's encoding of `row`, valid until it encodes again.
  template <typename Row>
  static std::span<const std::uint8_t> encode(const Row& row) {
    std::vector<std::uint8_t>& out = encode_buffer();
    out.clear();
    Encoder enc(&out);
    row.encode(enc);
    return out;
  }
  static std::vector<std::uint8_t>& encode_buffer();
  void apply_index_change(Tbl t, const engine::RowChange& change);
  /// Adds (`insert`) or removes the row's access-path entries, decoding
  /// only its key fields. The caller holds index_mu_ exclusive.
  void index_row(Tbl t, RowId rid, std::span<const std::uint8_t> row,
                 bool insert);
  std::optional<Tbl> tbl_of(TableId id) const;

  // Dense positions of the fixed-cardinality keys, in key order;
  // DenseIndex::kNoPos for a key outside the scale (an unused item id,
  // or a row damaged on disk).
  std::size_t warehouse_pos(std::uint32_t w) const;
  std::size_t district_pos(std::uint32_t w, std::uint32_t d) const;
  std::size_t customer_pos(std::uint32_t w, std::uint32_t d,
                           std::uint32_t c) const;
  std::size_t item_pos(std::uint32_t i) const;
  std::size_t stock_pos(std::uint32_t w, std::uint32_t i) const;

  TpccScale scale_;
  engine::Database* db_ = nullptr;
  std::array<TableId, kTableCount> tables_{};

  /// Guards the indexes when a transaction coordinator drives the engine
  /// with worker threads: observers mutate under an exclusive lock, the
  /// access-path readers above take it shared. Uncontended (the serial
  /// driver) it is a few atomic ops per call.
  mutable std::shared_mutex index_mu_;

  using U32 = std::uint32_t;
  DenseIndex warehouse_idx_;
  DenseIndex district_idx_;
  DenseIndex customer_idx_;
  DenseIndex item_idx_;
  DenseIndex stock_idx_;
  TreePath<std::tuple<U32, U32, NameArr, U32>> name_idx_;
  TreePath<std::tuple<U32, U32, U32>> order_idx_;
  TreePath<std::tuple<U32, U32, U32, U32>> order_cust_idx_;
  TreePath<std::tuple<U32, U32, U32>> new_order_idx_;
  TreePath<std::tuple<U32, U32, U32, U32>> order_line_idx_;
  /// True during a bulk build (the B+-tree paths' add() collects);
  /// finish_bulk_build() builds them and clears it.
  bool bulk_building_ = false;
  /// index_mu_, held by a rebuild scan from its first row to its end.
  std::unique_lock<std::shared_mutex> scan_lock_;
};

}  // namespace vdb::tpcc
