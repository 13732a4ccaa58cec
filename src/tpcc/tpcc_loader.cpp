#include "tpcc/tpcc_loader.hpp"

#include <algorithm>
#include <numeric>

namespace vdb::tpcc {

namespace {
/// Commit-batch size: bounds per-transaction undo so bulk load never
/// exhausts a rollback segment.
constexpr std::uint32_t kBatchRows = 2000;

// Random values drawn straight into a row's field.
template <std::size_t N>
void alnum(Rng& rng, InlineString<N>& field, int min_len, int max_len) {
  field.fill([&](std::span<char> buf) {
    return rng.alnum_string(buf, min_len, max_len);
  });
}

template <std::size_t N>
void digits(Rng& rng, InlineString<N>& field, int min_len, int max_len) {
  field.fill([&](std::span<char> buf) {
    return rng.digit_string(buf, min_len, max_len);
  });
}

/// I_DATA / S_DATA (clause 4.3.3.1).
template <std::size_t N>
void item_data(TpccRandom& tr, InlineString<N>& field) {
  field.fill([&](std::span<char> buf) { return tr.data_string(buf, 26, 50); });
}

}  // namespace

Result<LoadStats> Loader::load() {
  std::vector<std::uint32_t> all;
  for (std::uint32_t w = 1; w <= db_->scale().warehouses; ++w) {
    all.push_back(w);
  }
  return load_warehouses(all);
}

Result<LoadStats> Loader::load_warehouses(
    const std::vector<std::uint32_t>& ws) {
  // The B+-tree paths are built once, from every row the load inserts,
  // rather than one tree insert per row.
  db_->begin_bulk_build();
  const Status st = load_rows(ws);
  db_->finish_bulk_build();
  VDB_RETURN_IF_ERROR(st);
  return stats_;
}

Status Loader::load_rows(const std::vector<std::uint32_t>& ws) {
  engine::Database& db = db_->db();
  // Bulk loads run NOLOGGING (redo off); the harness backs up right after.
  for (size_t i = 0; i < kTableCount; ++i) {
    VDB_RETURN_IF_ERROR(
        db.set_table_logging(table_name(static_cast<Tbl>(i)), false));
  }

  {
    auto txn = db.begin();
    if (!txn.is_ok()) return txn.status();
    TxnId cur = txn.value();
    VDB_RETURN_IF_ERROR(load_items(&cur));
    auto commit = db.commit(cur);
    if (!commit.is_ok()) return commit.status();
  }

  const TpccScale& scale = db_->scale();
  for (const std::uint32_t w : ws) {
    {
      auto txn = db.begin();
      if (!txn.is_ok()) return txn.status();
      TxnId cur = txn.value();
      VDB_RETURN_IF_ERROR(load_warehouse(cur, w));
      VDB_RETURN_IF_ERROR(load_stock(&cur, w));
      auto commit = db.commit(cur);
      if (!commit.is_ok()) return commit.status();
    }
    for (std::uint32_t d = 1; d <= scale.districts_per_warehouse; ++d) {
      auto txn = db.begin();
      if (!txn.is_ok()) return txn.status();
      VDB_RETURN_IF_ERROR(load_district(txn.value(), w, d));
      VDB_RETURN_IF_ERROR(load_customers(txn.value(), w, d));
      VDB_RETURN_IF_ERROR(load_orders(txn.value(), w, d));
      auto commit = db.commit(txn.value());
      if (!commit.is_ok()) return commit.status();
    }
  }

  for (size_t i = 0; i < kTableCount; ++i) {
    VDB_RETURN_IF_ERROR(
        db.set_table_logging(table_name(static_cast<Tbl>(i)), true));
  }
  return Status::ok();
}

void Loader::zip(InlineString<9>& field) {
  digits(rng_, field, 4, 4);
  field.append("11111");
}

Status Loader::load_items(TxnId* txn) {
  engine::Database& db = db_->db();
  TpccRandom tr(rng_.split(), db_->scale());
  std::uint32_t in_batch = 0;
  TxnId& cur = *txn;
  for (std::uint32_t i = 1; i <= db_->scale().items; ++i) {
    ItemRow row;
    row.i_id = i;
    row.i_im_id = static_cast<std::uint32_t>(rng_.uniform(1, 10000));
    alnum(rng_, row.i_name, 14, 24);
    row.i_price = static_cast<double>(rng_.uniform(100, 10000)) / 100.0;
    item_data(tr, row.i_data);
    auto rid = db_->insert_row(cur, Tbl::kItem, row);
    if (!rid.is_ok()) return rid.status();
    stats_.rows += 1;
    if (++in_batch >= kBatchRows && i < db_->scale().items) {
      in_batch = 0;
      auto commit = db.commit(cur);
      if (!commit.is_ok()) return commit.status();
      auto next = db.begin();
      if (!next.is_ok()) return next.status();
      cur = next.value();
    }
  }
  return Status::ok();
}

Status Loader::load_warehouse(TxnId txn, std::uint32_t w) {
  WarehouseRow row;
  row.w_id = w;
  alnum(rng_, row.w_name, 6, 10);
  alnum(rng_, row.w_street_1, 10, 20);
  alnum(rng_, row.w_street_2, 10, 20);
  alnum(rng_, row.w_city, 10, 20);
  alnum(rng_, row.w_state, 2, 2);
  zip(row.w_zip);
  row.w_tax = static_cast<double>(rng_.uniform(0, 2000)) / 10000.0;
  row.w_ytd = 300000.0;
  auto rid = db_->insert_row(txn, Tbl::kWarehouse, row);
  if (!rid.is_ok()) return rid.status();
  stats_.rows += 1;
  return Status::ok();
}

Status Loader::load_stock(TxnId* txn, std::uint32_t w) {
  engine::Database& db = db_->db();
  TpccRandom tr(rng_.split(), db_->scale());
  std::uint32_t in_batch = 0;
  TxnId& cur = *txn;
  for (std::uint32_t i = 1; i <= db_->scale().items; ++i) {
    StockRow row;
    row.s_i_id = i;
    row.s_w_id = w;
    row.s_quantity = static_cast<std::int32_t>(rng_.uniform(10, 100));
    for (auto& dist : row.s_dist) alnum(rng_, dist, 24, 24);
    row.s_ytd = 0;
    row.s_order_cnt = 0;
    row.s_remote_cnt = 0;
    item_data(tr, row.s_data);
    auto rid = db_->insert_row(cur, Tbl::kStock, row);
    if (!rid.is_ok()) return rid.status();
    stats_.rows += 1;
    if (++in_batch >= kBatchRows && i < db_->scale().items) {
      in_batch = 0;
      auto commit = db.commit(cur);
      if (!commit.is_ok()) return commit.status();
      auto next = db.begin();
      if (!next.is_ok()) return next.status();
      cur = next.value();
    }
  }
  return Status::ok();
}

Status Loader::load_district(TxnId txn, std::uint32_t w, std::uint32_t d) {
  DistrictRow row;
  row.d_id = d;
  row.d_w_id = w;
  alnum(rng_, row.d_name, 6, 10);
  alnum(rng_, row.d_street_1, 10, 20);
  alnum(rng_, row.d_street_2, 10, 20);
  alnum(rng_, row.d_city, 10, 20);
  alnum(rng_, row.d_state, 2, 2);
  zip(row.d_zip);
  row.d_tax = static_cast<double>(rng_.uniform(0, 2000)) / 10000.0;
  row.d_ytd = 30000.0;
  row.d_next_o_id = db_->scale().initial_orders_per_district + 1;
  auto rid = db_->insert_row(txn, Tbl::kDistrict, row);
  if (!rid.is_ok()) return rid.status();
  stats_.rows += 1;
  return Status::ok();
}

Status Loader::load_customers(TxnId txn, std::uint32_t w, std::uint32_t d) {
  TpccRandom tr(rng_.split(), db_->scale());
  const std::uint64_t now = 1;
  for (std::uint32_t c = 1; c <= db_->scale().customers_per_district; ++c) {
    CustomerRow row;
    row.c_id = c;
    row.c_d_id = d;
    row.c_w_id = w;
    alnum(rng_, row.c_first, 8, 16);
    row.c_middle = "OE";
    // NURand last names for every customer (scaled population keeps the
    // spec's skew so by-name lookups hit several matches).
    row.c_last = tr.nurand_last_name();
    alnum(rng_, row.c_street_1, 10, 20);
    alnum(rng_, row.c_street_2, 10, 20);
    alnum(rng_, row.c_city, 10, 20);
    alnum(rng_, row.c_state, 2, 2);
    zip(row.c_zip);
    digits(rng_, row.c_phone, 16, 16);
    row.c_since = now;
    row.c_credit = rng_.chance(0.10) ? "BC" : "GC";
    row.c_credit_lim = 50000.0;
    row.c_discount = static_cast<double>(rng_.uniform(0, 5000)) / 10000.0;
    row.c_balance = -10.0;
    row.c_ytd_payment = 10.0;
    row.c_payment_cnt = 1;
    row.c_delivery_cnt = 0;
    alnum(rng_, row.c_data, 300, 500);
    auto rid = db_->insert_row(txn, Tbl::kCustomer, row);
    if (!rid.is_ok()) return rid.status();
    stats_.rows += 1;

    HistoryRow hist;
    hist.h_c_id = c;
    hist.h_c_d_id = d;
    hist.h_c_w_id = w;
    hist.h_d_id = d;
    hist.h_w_id = w;
    hist.h_date = now;
    hist.h_amount = 10.0;
    alnum(rng_, hist.h_data, 12, 24);
    auto hrid = db_->insert_row(txn, Tbl::kHistory, hist);
    if (!hrid.is_ok()) return hrid.status();
    stats_.rows += 1;
  }
  return Status::ok();
}

Status Loader::load_orders(TxnId txn, std::uint32_t w, std::uint32_t d) {
  const TpccScale& scale = db_->scale();
  const std::uint32_t orders = scale.initial_orders_per_district;
  // O_C_ID: a permutation of [1, customers] stretched over the orders.
  std::vector<std::uint32_t> customers(orders);
  for (std::uint32_t i = 0; i < orders; ++i) {
    customers[i] = (i % scale.customers_per_district) + 1;
  }
  for (std::uint32_t i = orders; i > 1; --i) {
    std::swap(customers[i - 1],
              customers[static_cast<size_t>(rng_.uniform(0, i - 1))]);
  }

  const std::uint32_t undelivered_from = orders - orders * 30 / 100 + 1;
  for (std::uint32_t o = 1; o <= orders; ++o) {
    const bool delivered = o < undelivered_from;
    OrderRow order;
    order.o_id = o;
    order.o_d_id = d;
    order.o_w_id = w;
    order.o_c_id = customers[o - 1];
    order.o_entry_d = 1;
    order.o_carrier_id =
        delivered ? static_cast<std::int32_t>(rng_.uniform(1, 10)) : -1;
    order.o_ol_cnt = static_cast<std::uint8_t>(rng_.uniform(5, 15));
    order.o_all_local = 1;
    auto orid = db_->insert_row(txn, Tbl::kOrder, order);
    if (!orid.is_ok()) return orid.status();
    stats_.rows += 1;
    stats_.orders += 1;

    for (std::uint8_t line = 1; line <= order.o_ol_cnt; ++line) {
      OrderLineRow ol;
      ol.ol_o_id = o;
      ol.ol_d_id = d;
      ol.ol_w_id = w;
      ol.ol_number = line;
      ol.ol_i_id = static_cast<std::uint32_t>(rng_.uniform(1, scale.items));
      ol.ol_supply_w_id = w;
      ol.ol_delivery_d = delivered ? 1 : 0;
      ol.ol_quantity = 5;
      // Delivered initial lines have zero amount (clause 4.3.3.1), which
      // makes the customer-balance consistency condition exact.
      ol.ol_amount = delivered ? 0.0
                               : static_cast<double>(rng_.uniform(1, 999999)) /
                                     100.0;
      alnum(rng_, ol.ol_dist_info, 24, 24);
      auto lrid = db_->insert_row(txn, Tbl::kOrderLine, ol);
      if (!lrid.is_ok()) return lrid.status();
      stats_.rows += 1;
      stats_.order_lines += 1;
    }

    if (!delivered) {
      NewOrderRow no;
      no.no_o_id = o;
      no.no_d_id = d;
      no.no_w_id = w;
      auto nrid = db_->insert_row(txn, Tbl::kNewOrder, no);
      if (!nrid.is_ok()) return nrid.status();
      stats_.rows += 1;
    }
  }
  return Status::ok();
}

}  // namespace vdb::tpcc
