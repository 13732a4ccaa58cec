#include "tpcc/tpcc_txns.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <span>
#include <string_view>

namespace vdb::tpcc {

const char* to_string(TxnType t) {
  switch (t) {
    case TxnType::kNewOrder: return "NewOrder";
    case TxnType::kPayment: return "Payment";
    case TxnType::kOrderStatus: return "OrderStatus";
    case TxnType::kDelivery: return "Delivery";
    case TxnType::kStockLevel: return "StockLevel";
  }
  return "?";
}

Result<TxnId> LocalRoute::begin(std::uint32_t) {
  auto txn = db_->db().begin();
  if (txn.is_ok()) txn_ = txn.value();
  return txn;
}

Result<Lsn> LocalRoute::commit() {
  auto lsn = db_->db().commit(txn_);
  if (!lsn.is_ok()) (void)db_->db().rollback(txn_);
  return lsn;
}

Status LocalRoute::rollback() { return db_->db().rollback(txn_); }

Status TpccTxns::fail(Status original) {
  (void)route_->rollback();
  return original;
}

Result<TxnOutcome> TpccTxns::finish(TxnType type) {
  auto commit = route_->commit();
  if (!commit.is_ok()) return commit.status();
  TxnOutcome outcome{type, true, false, commit.value()};
  return outcome;
}

Result<TxnOutcome> TpccTxns::run(TxnType type, std::uint32_t w) {
  switch (type) {
    case TxnType::kNewOrder: return new_order(w);
    case TxnType::kPayment: return payment(w);
    case TxnType::kOrderStatus: return order_status(w);
    case TxnType::kDelivery: return delivery(w);
    case TxnType::kStockLevel: return stock_level(w);
  }
  return Status{ErrorCode::kInvalidArgument, "unknown transaction type"};
}

Result<RowId> TpccTxns::select_customer(std::uint32_t w, std::uint32_t d) {
  TpccDb& tdb = route_->db(w);
  Rng& rng = random_->rng();
  if (rng.chance(0.60)) {
    const std::string last = random_->nurand_last_name();
    auto matches = tdb.customers_by_name(w, d, last);
    if (!matches.empty()) {
      // Median customer, per clause 2.5.2.2.
      return matches[matches.size() / 2].second;
    }
    // Name not present in the scaled population: fall through to by-id.
  }
  const std::uint32_t c = random_->nurand_customer_id();
  auto rid = tdb.customer_rid(w, d, c);
  if (!rid.has_value()) {
    return Status{ErrorCode::kNotFound, "customer missing from index"};
  }
  return *rid;
}

Result<TxnOutcome> TpccTxns::new_order(std::uint32_t w) {
  TpccDb& home = route_->db(w);
  Rng& rng = random_->rng();
  const std::uint32_t d = random_->district_id();
  const SimTime now = home.db().clock().now();

  auto txn_r = route_->begin(w);
  if (!txn_r.is_ok()) return txn_r.status();
  const TxnId txn = txn_r.value();

  // Inputs (clause 2.4.1).
  const auto ol_cnt = static_cast<std::uint8_t>(rng.uniform(5, kMaxOrderLines));
  const bool rollback_last = rng.chance(0.01);
  struct Line {
    std::uint32_t i_id;
    std::uint32_t supply_w;
    std::uint8_t qty;
  };
  std::array<Line, kMaxOrderLines> line_buf;
  const std::span<Line> lines(line_buf.data(), ol_cnt);
  bool all_local = true;
  for (std::uint8_t i = 0; i < ol_cnt; ++i) {
    Line& line = lines[i];
    line.i_id = random_->nurand_item_id();
    if (rollback_last && i + 1 == ol_cnt) line.i_id = 0;  // unused item id
    line.supply_w = w;
    if (random_->scale().warehouses > 1 && rng.chance(0.01)) {
      do {
        line.supply_w = random_->warehouse_id();
      } while (line.supply_w == w);
      all_local = false;
    }
    line.qty = static_cast<std::uint8_t>(rng.uniform(1, 10));
  }

  // Warehouse & district (tax, order number).
  auto w_rid = home.warehouse_rid(w);
  auto d_rid = home.district_rid(w, d);
  if (!w_rid || !d_rid) {
    return fail(Status{ErrorCode::kInternal, "missing w/d"});
  }
  auto wh = home.read_row<WarehouseRow>(txn, Tbl::kWarehouse, *w_rid);
  if (!wh.is_ok()) return fail(wh.status());
  auto dist = home.read_row<DistrictRow>(txn, Tbl::kDistrict, *d_rid);
  if (!dist.is_ok()) return fail(dist.status());

  const std::uint32_t o_id = dist.value().d_next_o_id;
  DistrictRow new_dist = dist.value();
  new_dist.d_next_o_id += 1;
  Status st = home.update_row(txn, Tbl::kDistrict, *d_rid, new_dist);
  if (!st.is_ok()) return fail(st);

  auto c_rid = select_customer(w, d);
  if (!c_rid.is_ok()) return fail(c_rid.status());
  auto cust = home.read_row<CustomerRow>(txn, Tbl::kCustomer, c_rid.value());
  if (!cust.is_ok()) return fail(cust.status());

  // Order + NEW-ORDER rows.
  OrderRow order;
  order.o_id = o_id;
  order.o_d_id = d;
  order.o_w_id = w;
  order.o_c_id = cust.value().c_id;
  order.o_entry_d = now;
  order.o_carrier_id = -1;
  order.o_ol_cnt = ol_cnt;
  order.o_all_local = all_local ? 1 : 0;
  auto o_ins = home.insert_row(txn, Tbl::kOrder, order);
  if (!o_ins.is_ok()) return fail(o_ins.status());

  NewOrderRow no;
  no.no_o_id = o_id;
  no.no_d_id = d;
  no.no_w_id = w;
  auto no_ins = home.insert_row(txn, Tbl::kNewOrder, no);
  if (!no_ins.is_ok()) return fail(no_ins.status());

  // Lines.
  std::uint8_t number = 0;
  for (const Line& line : lines) {
    number += 1;
    auto i_rid = home.item_rid(line.i_id);
    if (!i_rid.has_value()) {
      // Invalid item: business rollback (clause 2.4.2.3).
      VDB_RETURN_IF_ERROR(route_->rollback());
      TxnOutcome outcome{TxnType::kNewOrder, false, true, 0};
      return outcome;
    }
    auto item = home.read_row<ItemRow>(txn, Tbl::kItem, *i_rid);
    if (!item.is_ok()) return fail(item.status());

    // Stock lives with the supplying warehouse, whose owner the route may
    // only now open a transaction on.
    auto s_txn = route_->txn(line.supply_w);
    if (!s_txn.is_ok()) return fail(s_txn.status());
    TpccDb& supply = route_->db(line.supply_w);
    auto s_rid = supply.stock_rid(line.supply_w, line.i_id);
    if (!s_rid.has_value()) {
      return fail(Status{ErrorCode::kInternal, "stock missing"});
    }
    auto stock = supply.read_row<StockRow>(s_txn.value(), Tbl::kStock, *s_rid);
    if (!stock.is_ok()) return fail(stock.status());

    StockRow new_stock = stock.value();
    if (new_stock.s_quantity >= line.qty + 10) {
      new_stock.s_quantity -= line.qty;
    } else {
      new_stock.s_quantity = new_stock.s_quantity - line.qty + 91;
    }
    new_stock.s_ytd += line.qty;
    new_stock.s_order_cnt += 1;
    if (line.supply_w != w) new_stock.s_remote_cnt += 1;
    st = supply.update_row(s_txn.value(), Tbl::kStock, *s_rid, new_stock);
    if (!st.is_ok()) return fail(st);

    OrderLineRow ol;
    ol.ol_o_id = o_id;
    ol.ol_d_id = d;
    ol.ol_w_id = w;
    ol.ol_number = number;
    ol.ol_i_id = line.i_id;
    ol.ol_supply_w_id = line.supply_w;
    ol.ol_delivery_d = 0;
    ol.ol_quantity = line.qty;
    ol.ol_amount = line.qty * item.value().i_price;
    ol.ol_dist_info = stock.value().s_dist[(d - 1) % 10];
    auto ol_ins = home.insert_row(txn, Tbl::kOrderLine, ol);
    if (!ol_ins.is_ok()) return fail(ol_ins.status());
  }

  return finish(TxnType::kNewOrder);
}

Result<TxnOutcome> TpccTxns::payment(std::uint32_t w) {
  TpccDb& home = route_->db(w);
  Rng& rng = random_->rng();
  const std::uint32_t d = random_->district_id();
  const double amount = static_cast<double>(rng.uniform(100, 500000)) / 100.0;
  const SimTime now = home.db().clock().now();

  // 15% remote customers when multiple warehouses exist (clause 2.5.1.2).
  std::uint32_t c_w = w;
  std::uint32_t c_d = d;
  if (random_->scale().warehouses > 1 && rng.chance(0.15)) {
    do {
      c_w = random_->warehouse_id();
    } while (c_w == w);
    c_d = random_->district_id();
  }

  auto txn_r = route_->begin(w);
  if (!txn_r.is_ok()) return txn_r.status();
  const TxnId txn = txn_r.value();

  auto w_rid = home.warehouse_rid(w);
  auto d_rid = home.district_rid(w, d);
  if (!w_rid || !d_rid) {
    return fail(Status{ErrorCode::kInternal, "missing w/d"});
  }
  auto wh = home.read_row<WarehouseRow>(txn, Tbl::kWarehouse, *w_rid);
  if (!wh.is_ok()) return fail(wh.status());
  WarehouseRow new_wh = wh.value();
  new_wh.w_ytd += amount;
  Status st = home.update_row(txn, Tbl::kWarehouse, *w_rid, new_wh);
  if (!st.is_ok()) return fail(st);

  auto dist = home.read_row<DistrictRow>(txn, Tbl::kDistrict, *d_rid);
  if (!dist.is_ok()) return fail(dist.status());
  DistrictRow new_dist = dist.value();
  new_dist.d_ytd += amount;
  st = home.update_row(txn, Tbl::kDistrict, *d_rid, new_dist);
  if (!st.is_ok()) return fail(st);

  // The customer, and the history row recording the payment, live with
  // the customer's warehouse.
  auto c_txn = route_->txn(c_w);
  if (!c_txn.is_ok()) return fail(c_txn.status());
  TpccDb& cdb = route_->db(c_w);
  auto c_rid = select_customer(c_w, c_d);
  if (!c_rid.is_ok()) return fail(c_rid.status());
  auto cust =
      cdb.read_row<CustomerRow>(c_txn.value(), Tbl::kCustomer, c_rid.value());
  if (!cust.is_ok()) return fail(cust.status());
  CustomerRow new_cust = cust.value();
  new_cust.c_balance -= amount;
  new_cust.c_ytd_payment += amount;
  new_cust.c_payment_cnt += 1;
  if (new_cust.c_credit == "BC") {
    // Bad-credit customers accumulate payment history in c_data.
    char info[64];
    std::snprintf(info, sizeof(info), "%u %u %u %u %u %.2f|",
                  new_cust.c_id, c_d, c_w, d, w, amount);
    // The new entry goes in front; the oldest history falls off the end.
    const auto& old_data = cust.value().c_data;
    new_cust.c_data = std::string_view(info);
    new_cust.c_data.append(std::string_view(old_data).substr(
        0, new_cust.c_data.capacity() - new_cust.c_data.size()));
  }
  st = cdb.update_row(c_txn.value(), Tbl::kCustomer, c_rid.value(), new_cust);
  if (!st.is_ok()) return fail(st);

  HistoryRow hist;
  hist.h_c_id = new_cust.c_id;
  hist.h_c_d_id = c_d;
  hist.h_c_w_id = c_w;
  hist.h_d_id = d;
  hist.h_w_id = w;
  hist.h_date = now;
  hist.h_amount = amount;
  hist.h_data = wh.value().w_name;
  hist.h_data.append("    ");
  hist.h_data.append(dist.value().d_name);
  auto h_ins = cdb.insert_row(c_txn.value(), Tbl::kHistory, hist);
  if (!h_ins.is_ok()) return fail(h_ins.status());

  return finish(TxnType::kPayment);
}

Result<TxnOutcome> TpccTxns::order_status(std::uint32_t w) {
  TpccDb& home = route_->db(w);
  const std::uint32_t d = random_->district_id();

  auto txn_r = route_->begin(w);
  if (!txn_r.is_ok()) return txn_r.status();
  const TxnId txn = txn_r.value();

  auto c_rid = select_customer(w, d);
  if (!c_rid.is_ok()) return fail(c_rid.status());
  auto cust = home.read_row<CustomerRow>(txn, Tbl::kCustomer, c_rid.value());
  if (!cust.is_ok()) return fail(cust.status());

  auto last = home.last_order_of_customer(w, d, cust.value().c_id);
  if (last.has_value()) {
    auto order = home.read_row<OrderRow>(txn, Tbl::kOrder, last->second);
    if (!order.is_ok()) return fail(order.status());
    for (RowId rid : home.order_lines(w, d, last->first)) {
      auto line = home.read_row<OrderLineRow>(txn, Tbl::kOrderLine, rid);
      if (!line.is_ok()) return fail(line.status());
    }
  }

  return finish(TxnType::kOrderStatus);
}

Result<TxnOutcome> TpccTxns::delivery(std::uint32_t w) {
  TpccDb& home = route_->db(w);
  Rng& rng = random_->rng();
  const auto carrier = static_cast<std::int32_t>(rng.uniform(1, 10));
  const SimTime now = home.db().clock().now();

  auto txn_r = route_->begin(w);
  if (!txn_r.is_ok()) return txn_r.status();
  const TxnId txn = txn_r.value();

  for (std::uint32_t d = 1; d <= random_->scale().districts_per_warehouse;
       ++d) {
    auto oldest = home.oldest_new_order(w, d);
    if (!oldest.has_value()) continue;  // district fully delivered

    auto no_rid = home.new_order_rid(w, d, oldest->first);
    if (!no_rid.has_value()) continue;
    // The index lookup above runs outside concurrency control, so the rid
    // can be stale: a concurrent abort frees the slot and an unrelated
    // insert reuses it. Re-read the row under the txn's own mediation and
    // verify the business key before erasing — under 2PL the read lock
    // pins the row until commit; under OCC the erase's early validation
    // aborts us if a writer touched the slot after this read.
    auto no_row = home.read_row<NewOrderRow>(txn, Tbl::kNewOrder, *no_rid);
    if (!no_row.is_ok()) return fail(no_row.status());
    if (no_row.value().no_w_id != w || no_row.value().no_d_id != d ||
        no_row.value().no_o_id != oldest->first) {
      return fail(Status{ErrorCode::kNotFound, "new_order slot reused"});
    }
    Status st = home.db().erase(txn, home.table(Tbl::kNewOrder), *no_rid);
    if (!st.is_ok()) return fail(st);

    auto o_rid = home.order_rid(w, d, oldest->first);
    if (!o_rid.has_value()) {
      return fail(Status{ErrorCode::kInternal, "order missing"});
    }
    auto order = home.read_row<OrderRow>(txn, Tbl::kOrder, *o_rid);
    if (!order.is_ok()) return fail(order.status());
    if (order.value().o_w_id != w || order.value().o_d_id != d ||
        order.value().o_id != oldest->first) {
      return fail(Status{ErrorCode::kNotFound, "order slot reused"});
    }
    OrderRow new_order_row = order.value();
    new_order_row.o_carrier_id = carrier;
    st = home.update_row(txn, Tbl::kOrder, *o_rid, new_order_row);
    if (!st.is_ok()) return fail(st);

    double total = 0;
    for (RowId rid : home.order_lines(w, d, oldest->first)) {
      auto line = home.read_row<OrderLineRow>(txn, Tbl::kOrderLine, rid);
      if (!line.is_ok()) return fail(line.status());
      if (line.value().ol_w_id != w || line.value().ol_d_id != d ||
          line.value().ol_o_id != oldest->first) {
        return fail(Status{ErrorCode::kNotFound, "order_line slot reused"});
      }
      OrderLineRow new_line = line.value();
      new_line.ol_delivery_d = now;
      total += new_line.ol_amount;
      st = home.update_row(txn, Tbl::kOrderLine, rid, new_line);
      if (!st.is_ok()) return fail(st);
    }

    auto c_rid = home.customer_rid(w, d, order.value().o_c_id);
    if (!c_rid.has_value()) {
      return fail(Status{ErrorCode::kInternal, "customer missing"});
    }
    auto cust = home.read_row<CustomerRow>(txn, Tbl::kCustomer, *c_rid);
    if (!cust.is_ok()) return fail(cust.status());
    CustomerRow new_cust = cust.value();
    new_cust.c_balance += total;
    new_cust.c_delivery_cnt += 1;
    st = home.update_row(txn, Tbl::kCustomer, *c_rid, new_cust);
    if (!st.is_ok()) return fail(st);
  }

  return finish(TxnType::kDelivery);
}

Result<TxnOutcome> TpccTxns::stock_level(std::uint32_t w) {
  TpccDb& home = route_->db(w);
  Rng& rng = random_->rng();
  const std::uint32_t d = random_->district_id();
  const auto threshold = static_cast<std::int32_t>(rng.uniform(10, 20));

  auto txn_r = route_->begin(w);
  if (!txn_r.is_ok()) return txn_r.status();
  const TxnId txn = txn_r.value();

  auto d_rid = home.district_rid(w, d);
  if (!d_rid.has_value()) {
    return fail(Status{ErrorCode::kInternal, "missing district"});
  }
  auto dist = home.read_row<DistrictRow>(txn, Tbl::kDistrict, *d_rid);
  if (!dist.is_ok()) return fail(dist.status());

  const std::uint32_t next = dist.value().d_next_o_id;
  const std::uint32_t from = next > 20 ? next - 20 : 1;
  const std::vector<RowId> line_rids = home.order_lines_range(w, d, from, next);
  std::vector<std::uint32_t> items;
  items.reserve(line_rids.size());
  for (RowId rid : line_rids) {
    auto line = home.read_row<OrderLineRow>(txn, Tbl::kOrderLine, rid);
    if (!line.is_ok()) return fail(line.status());
    items.push_back(line.value().ol_i_id);
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());

  std::uint32_t low = 0;
  for (std::uint32_t item : items) {
    auto s_rid = home.stock_rid(w, item);
    if (!s_rid.has_value()) continue;
    auto stock = home.read_row<StockQuantity>(txn, Tbl::kStock, *s_rid);
    if (!stock.is_ok()) return fail(stock.status());
    if (stock.value().s_quantity < threshold) low += 1;
  }
  (void)low;

  return finish(TxnType::kStockLevel);
}

}  // namespace vdb::tpcc
