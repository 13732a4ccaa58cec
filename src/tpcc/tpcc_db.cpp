#include "tpcc/tpcc_db.hpp"

#include <algorithm>
#include <cstring>

namespace vdb::tpcc {

const char* table_name(Tbl t) {
  switch (t) {
    case Tbl::kWarehouse: return kWarehouseTable;
    case Tbl::kDistrict: return kDistrictTable;
    case Tbl::kCustomer: return kCustomerTable;
    case Tbl::kHistory: return kHistoryTable;
    case Tbl::kNewOrder: return kNewOrderTable;
    case Tbl::kOrder: return kOrderTable;
    case Tbl::kOrderLine: return kOrderLineTable;
    case Tbl::kItem: return kItemTable;
    case Tbl::kStock: return kStockTable;
  }
  return "?";
}

void DenseIndex::insert(std::size_t pos, RowId rid) {
  if (pos == kNoPos) return;
  if (pos >= rids_.size()) rids_.resize(pos + 1, RowId::invalid());
  if (rids_[pos].valid()) return;
  rids_[pos] = rid;
  size_ += 1;
}

void DenseIndex::erase(std::size_t pos, RowId rid) {
  if (pos >= rids_.size() || rids_[pos] != rid) return;
  rids_[pos] = RowId::invalid();
  size_ -= 1;
}

std::optional<RowId> DenseIndex::find(std::size_t pos) const {
  if (pos >= rids_.size() || !rids_[pos].valid()) return std::nullopt;
  return rids_[pos];
}

void DenseIndex::clear() {
  rids_.clear();
  size_ = 0;
}

NameArr to_name_arr(std::string_view s) {
  NameArr arr{};
  std::memcpy(arr.data(), s.data(), std::min(s.size(), arr.size()));
  return arr;
}

namespace {

struct SlotSpec {
  Tbl tbl;
  std::uint16_t slot_size;
};

constexpr SlotSpec kSlots[kTableCount] = {
    {Tbl::kWarehouse, WarehouseRow::kSlotSize},
    {Tbl::kDistrict, DistrictRow::kSlotSize},
    {Tbl::kCustomer, CustomerRow::kSlotSize},
    {Tbl::kHistory, HistoryRow::kSlotSize},
    {Tbl::kNewOrder, NewOrderRow::kSlotSize},
    {Tbl::kOrder, OrderRow::kSlotSize},
    {Tbl::kOrderLine, OrderLineRow::kSlotSize},
    {Tbl::kItem, ItemRow::kSlotSize},
    {Tbl::kStock, StockRow::kSlotSize},
};

}  // namespace

Status TpccDb::create_schema(engine::Database& db,
                             const std::string& tablespace, UserId owner) {
  for (const SlotSpec& spec : kSlots) {
    auto table = db.create_table(table_name(spec.tbl), tablespace,
                                 spec.slot_size, owner);
    if (!table.is_ok()) return table.status();
  }
  return Status::ok();
}

Status TpccDb::attach(engine::Database* db) {
  db_ = db;
  clear_indexes();
  for (const SlotSpec& spec : kSlots) {
    auto id = db_->table_id(table_name(spec.tbl));
    if (!id.is_ok()) return id.status();
    tables_[static_cast<size_t>(spec.tbl)] = id.value();

    const Tbl tbl = spec.tbl;
    db_->register_observer(id.value(),
                           [this, tbl](const engine::RowChange& change) {
                             apply_index_change(tbl, change);
                           });
  }
  db_->set_rebuild_hook(
      [this](TableId table, RowId rid, std::span<const std::uint8_t> row) {
        auto tbl = tbl_of(table);
        if (!tbl.has_value()) return;
        // The scan's first row starts the bulk build and holds index_mu_
        // until the scan ends: no reader may see a half-built path.
        if (!scan_lock_.owns_lock()) {
          scan_lock_ = std::unique_lock(index_mu_);
          bulk_building_ = true;
        }
        index_row(*tbl, rid, row, /*insert=*/true);
      },
      [this] { finish_bulk_build(); });
  return Status::ok();
}

void TpccDb::begin_bulk_build() {
  std::unique_lock lock(index_mu_);
  bulk_building_ = true;
}

void TpccDb::finish_bulk_build() {
  std::unique_lock lock = scan_lock_.owns_lock()
                              ? std::move(scan_lock_)
                              : std::unique_lock(index_mu_);
  if (!bulk_building_) return;
  bulk_building_ = false;
  name_idx_.finish();
  order_idx_.finish();
  order_cust_idx_.finish();
  new_order_idx_.finish();
  order_line_idx_.finish();
}

std::vector<std::uint8_t>& TpccDb::row_buffer() {
  thread_local std::vector<std::uint8_t> buffer;
  return buffer;
}

std::vector<std::uint8_t>& TpccDb::encode_buffer() {
  thread_local std::vector<std::uint8_t> buffer;
  return buffer;
}

std::size_t TpccDb::warehouse_pos(std::uint32_t w) const {
  if (w < 1 || w > scale_.warehouses) return DenseIndex::kNoPos;
  return w - 1;
}

std::size_t TpccDb::district_pos(std::uint32_t w, std::uint32_t d) const {
  const std::size_t wp = warehouse_pos(w);
  if (wp == DenseIndex::kNoPos || d < 1 ||
      d > scale_.districts_per_warehouse) {
    return DenseIndex::kNoPos;
  }
  return wp * scale_.districts_per_warehouse + (d - 1);
}

std::size_t TpccDb::customer_pos(std::uint32_t w, std::uint32_t d,
                                 std::uint32_t c) const {
  const std::size_t dp = district_pos(w, d);
  if (dp == DenseIndex::kNoPos || c < 1 ||
      c > scale_.customers_per_district) {
    return DenseIndex::kNoPos;
  }
  return dp * scale_.customers_per_district + (c - 1);
}

std::size_t TpccDb::item_pos(std::uint32_t i) const {
  if (i < 1 || i > scale_.items) return DenseIndex::kNoPos;
  return i - 1;
}

std::size_t TpccDb::stock_pos(std::uint32_t w, std::uint32_t i) const {
  const std::size_t wp = warehouse_pos(w);
  const std::size_t ip = item_pos(i);
  if (wp == DenseIndex::kNoPos || ip == DenseIndex::kNoPos) {
    return DenseIndex::kNoPos;
  }
  return wp * scale_.items + ip;
}

std::optional<Tbl> TpccDb::tbl_of(TableId id) const {
  for (size_t i = 0; i < kTableCount; ++i) {
    if (tables_[i] == id) return static_cast<Tbl>(i);
  }
  return std::nullopt;
}

void TpccDb::apply_index_change(Tbl t, const engine::RowChange& change) {
  std::unique_lock lock(index_mu_);
  switch (change.kind) {
    case engine::RowChange::Kind::kInsert:
      index_row(t, change.rid, change.after, /*insert=*/true);
      break;
    case engine::RowChange::Kind::kDelete:
      index_row(t, change.rid, change.before, /*insert=*/false);
      break;
    case engine::RowChange::Kind::kUpdate:
      // TPC-C business keys are immutable; nothing moves.
      break;
  }
}

void TpccDb::index_row(Tbl t, RowId rid, std::span<const std::uint8_t> row,
                       bool insert) {
  const auto dense = [&](DenseIndex& idx, std::size_t pos) {
    if (insert) {
      idx.insert(pos, rid);
    } else {
      idx.erase(pos, rid);
    }
  };
  // Erase only if the path still maps the business key to *this* row. A
  // concurrent transaction that aborted a duplicate-key insert delivers a
  // delete notification for a key another (committed) row legitimately
  // owns; an unconditional erase would strip the survivor's entry. The
  // dense paths apply the same rule in DenseIndex::erase.
  const auto tree = [&](auto& idx, const auto& key) {
    if (insert) {
      idx.add(key, rid, bulk_building_);
      return;
    }
    const RowId* cur = idx.find(key);
    if (cur != nullptr && *cur == rid) idx.erase(key);
  };
  switch (t) {
    case Tbl::kWarehouse: {
      const auto k = from_bytes<WarehouseKey>(row);
      dense(warehouse_idx_, warehouse_pos(k.w_id));
      break;
    }
    case Tbl::kDistrict: {
      const auto k = from_bytes<DistrictKey>(row);
      dense(district_idx_, district_pos(k.d_w_id, k.d_id));
      break;
    }
    case Tbl::kCustomer: {
      const auto k = from_bytes<CustomerKey>(row);
      dense(customer_idx_, customer_pos(k.c_w_id, k.c_d_id, k.c_id));
      tree(name_idx_,
           std::tuple{k.c_w_id, k.c_d_id, to_name_arr(k.c_last), k.c_id});
      break;
    }
    case Tbl::kHistory:
      break;  // no access path
    case Tbl::kNewOrder: {
      const auto k = from_bytes<NewOrderRow>(row);
      tree(new_order_idx_, std::tuple{k.no_w_id, k.no_d_id, k.no_o_id});
      break;
    }
    case Tbl::kOrder: {
      const auto k = from_bytes<OrderKey>(row);
      tree(order_idx_, std::tuple{k.o_w_id, k.o_d_id, k.o_id});
      tree(order_cust_idx_, std::tuple{k.o_w_id, k.o_d_id, k.o_c_id, k.o_id});
      break;
    }
    case Tbl::kOrderLine: {
      const auto k = from_bytes<OrderLineKey>(row);
      tree(order_line_idx_,
           std::tuple{k.ol_w_id, k.ol_d_id, k.ol_o_id, U32{k.ol_number}});
      break;
    }
    case Tbl::kItem: {
      const auto k = from_bytes<ItemKey>(row);
      dense(item_idx_, item_pos(k.i_id));
      break;
    }
    case Tbl::kStock: {
      const auto k = from_bytes<StockQuantity>(row);
      dense(stock_idx_, stock_pos(k.s_w_id, k.s_i_id));
      break;
    }
  }
}

std::optional<RowId> TpccDb::warehouse_rid(std::uint32_t w) const {
  std::shared_lock lock(index_mu_);
  return warehouse_idx_.find(warehouse_pos(w));
}

std::optional<RowId> TpccDb::district_rid(std::uint32_t w,
                                          std::uint32_t d) const {
  std::shared_lock lock(index_mu_);
  return district_idx_.find(district_pos(w, d));
}

std::optional<RowId> TpccDb::customer_rid(std::uint32_t w, std::uint32_t d,
                                          std::uint32_t c) const {
  std::shared_lock lock(index_mu_);
  return customer_idx_.find(customer_pos(w, d, c));
}

std::vector<std::pair<std::uint32_t, RowId>> TpccDb::customers_by_name(
    std::uint32_t w, std::uint32_t d, std::string_view last) const {
  std::shared_lock lock(index_mu_);
  std::vector<std::pair<std::uint32_t, RowId>> out;
  const NameArr name = to_name_arr(last);
  name_idx_.scan_range(
      {w, d, name, 0}, {w, d, name, ~0u},
      [&](const std::tuple<std::uint32_t, std::uint32_t, NameArr,
                           std::uint32_t>& key,
          const RowId& rid) {
        out.emplace_back(std::get<3>(key), rid);
        return true;
      });
  return out;
}

std::optional<RowId> TpccDb::item_rid(std::uint32_t i) const {
  std::shared_lock lock(index_mu_);
  return item_idx_.find(item_pos(i));
}

std::optional<RowId> TpccDb::stock_rid(std::uint32_t w,
                                       std::uint32_t i) const {
  std::shared_lock lock(index_mu_);
  return stock_idx_.find(stock_pos(w, i));
}

std::optional<RowId> TpccDb::order_rid(std::uint32_t w, std::uint32_t d,
                                       std::uint32_t o) const {
  std::shared_lock lock(index_mu_);
  const RowId* rid = order_idx_.find({w, d, o});
  return rid ? std::optional<RowId>(*rid) : std::nullopt;
}

std::optional<std::pair<std::uint32_t, RowId>> TpccDb::last_order_of_customer(
    std::uint32_t w, std::uint32_t d, std::uint32_t c) const {
  std::shared_lock lock(index_mu_);
  std::optional<std::pair<std::uint32_t, RowId>> out;
  order_cust_idx_.scan_range_desc(
      {w, d, c, 0}, {w, d, c, ~0u},
      [&](const std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                           std::uint32_t>& key,
          const RowId& rid) {
        out = {std::get<3>(key), rid};
        return false;  // newest only
      });
  return out;
}

std::optional<std::pair<std::uint32_t, RowId>> TpccDb::oldest_new_order(
    std::uint32_t w, std::uint32_t d) const {
  std::shared_lock lock(index_mu_);
  std::optional<std::pair<std::uint32_t, RowId>> out;
  new_order_idx_.scan_range(
      {w, d, 0}, {w, d, ~0u},
      [&](const std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>& key,
          const RowId& rid) {
        out = {std::get<2>(key), rid};
        return false;  // oldest only
      });
  return out;
}

std::optional<RowId> TpccDb::new_order_rid(std::uint32_t w, std::uint32_t d,
                                           std::uint32_t o) const {
  std::shared_lock lock(index_mu_);
  const RowId* rid = new_order_idx_.find({w, d, o});
  return rid ? std::optional<RowId>(*rid) : std::nullopt;
}

std::vector<RowId> TpccDb::order_lines(std::uint32_t w, std::uint32_t d,
                                       std::uint32_t o) const {
  std::shared_lock lock(index_mu_);
  std::vector<RowId> out;
  out.reserve(kMaxOrderLines);
  order_line_idx_.scan_range(
      {w, d, o, 0}, {w, d, o, ~0u},
      [&](const auto&, const RowId& rid) {
        out.push_back(rid);
        return true;
      });
  return out;
}

std::vector<RowId> TpccDb::order_lines_range(std::uint32_t w, std::uint32_t d,
                                             std::uint32_t o1,
                                             std::uint32_t o2) const {
  std::shared_lock lock(index_mu_);
  std::vector<RowId> out;
  if (o1 >= o2) return out;
  out.reserve(static_cast<size_t>(o2 - o1) * kMaxOrderLines);
  order_line_idx_.scan_range(
      {w, d, o1, 0}, {w, d, o2 - 1, ~0u},
      [&](const auto&, const RowId& rid) {
        out.push_back(rid);
        return true;
      });
  return out;
}

size_t TpccDb::index_entries() const {
  std::shared_lock lock(index_mu_);
  return warehouse_idx_.size() + district_idx_.size() +
         customer_idx_.size() + name_idx_.size() + item_idx_.size() +
         stock_idx_.size() + order_idx_.size() + order_cust_idx_.size() +
         new_order_idx_.size() + order_line_idx_.size();
}

void TpccDb::clear_indexes() {
  std::unique_lock lock(index_mu_);
  warehouse_idx_.clear();
  district_idx_.clear();
  customer_idx_.clear();
  name_idx_.clear();
  item_idx_.clear();
  stock_idx_.clear();
  order_idx_.clear();
  order_cust_idx_.clear();
  new_order_idx_.clear();
  order_line_idx_.clear();
}

}  // namespace vdb::tpcc
