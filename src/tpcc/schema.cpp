#include "tpcc/schema.hpp"

namespace vdb::tpcc {

namespace {

/// Pulls a string field into the row or fails the whole decode.
#define GET_STR(field) VDB_RETURN_IF_ERROR(row.field.decode(dec))

#define GET_NUM(field, getter)                 \
  do {                                         \
    auto _v = dec.getter();                    \
    if (!_v.is_ok()) return _v.status();       \
    row.field = _v.value();                    \
  } while (0)

}  // namespace

void WarehouseRow::encode(Encoder& enc) const {
  enc.put_u32(w_id);
  enc.put_string(w_name);
  enc.put_string(w_street_1);
  enc.put_string(w_street_2);
  enc.put_string(w_city);
  enc.put_string(w_state);
  enc.put_string(w_zip);
  enc.put_double(w_tax);
  enc.put_double(w_ytd);
}

Result<WarehouseRow> WarehouseRow::decode(Decoder& dec) {
  WarehouseRow row;
  GET_NUM(w_id, get_u32);
  GET_STR(w_name);
  GET_STR(w_street_1);
  GET_STR(w_street_2);
  GET_STR(w_city);
  GET_STR(w_state);
  GET_STR(w_zip);
  GET_NUM(w_tax, get_double);
  GET_NUM(w_ytd, get_double);
  return row;
}

void DistrictRow::encode(Encoder& enc) const {
  enc.put_u32(d_id);
  enc.put_u32(d_w_id);
  enc.put_string(d_name);
  enc.put_string(d_street_1);
  enc.put_string(d_street_2);
  enc.put_string(d_city);
  enc.put_string(d_state);
  enc.put_string(d_zip);
  enc.put_double(d_tax);
  enc.put_double(d_ytd);
  enc.put_u32(d_next_o_id);
}

Result<DistrictRow> DistrictRow::decode(Decoder& dec) {
  DistrictRow row;
  GET_NUM(d_id, get_u32);
  GET_NUM(d_w_id, get_u32);
  GET_STR(d_name);
  GET_STR(d_street_1);
  GET_STR(d_street_2);
  GET_STR(d_city);
  GET_STR(d_state);
  GET_STR(d_zip);
  GET_NUM(d_tax, get_double);
  GET_NUM(d_ytd, get_double);
  GET_NUM(d_next_o_id, get_u32);
  return row;
}

void CustomerRow::encode(Encoder& enc) const {
  enc.put_u32(c_id);
  enc.put_u32(c_d_id);
  enc.put_u32(c_w_id);
  enc.put_string(c_first);
  enc.put_string(c_middle);
  enc.put_string(c_last);
  enc.put_string(c_street_1);
  enc.put_string(c_street_2);
  enc.put_string(c_city);
  enc.put_string(c_state);
  enc.put_string(c_zip);
  enc.put_string(c_phone);
  enc.put_u64(c_since);
  enc.put_string(c_credit);
  enc.put_double(c_credit_lim);
  enc.put_double(c_discount);
  enc.put_double(c_balance);
  enc.put_double(c_ytd_payment);
  enc.put_u32(c_payment_cnt);
  enc.put_u32(c_delivery_cnt);
  enc.put_string(c_data);
}

Result<CustomerRow> CustomerRow::decode(Decoder& dec) {
  CustomerRow row;
  GET_NUM(c_id, get_u32);
  GET_NUM(c_d_id, get_u32);
  GET_NUM(c_w_id, get_u32);
  GET_STR(c_first);
  GET_STR(c_middle);
  GET_STR(c_last);
  GET_STR(c_street_1);
  GET_STR(c_street_2);
  GET_STR(c_city);
  GET_STR(c_state);
  GET_STR(c_zip);
  GET_STR(c_phone);
  GET_NUM(c_since, get_u64);
  GET_STR(c_credit);
  GET_NUM(c_credit_lim, get_double);
  GET_NUM(c_discount, get_double);
  GET_NUM(c_balance, get_double);
  GET_NUM(c_ytd_payment, get_double);
  GET_NUM(c_payment_cnt, get_u32);
  GET_NUM(c_delivery_cnt, get_u32);
  GET_STR(c_data);
  return row;
}

void HistoryRow::encode(Encoder& enc) const {
  enc.put_u32(h_c_id);
  enc.put_u32(h_c_d_id);
  enc.put_u32(h_c_w_id);
  enc.put_u32(h_d_id);
  enc.put_u32(h_w_id);
  enc.put_u64(h_date);
  enc.put_double(h_amount);
  enc.put_string(h_data);
}

Result<HistoryRow> HistoryRow::decode(Decoder& dec) {
  HistoryRow row;
  GET_NUM(h_c_id, get_u32);
  GET_NUM(h_c_d_id, get_u32);
  GET_NUM(h_c_w_id, get_u32);
  GET_NUM(h_d_id, get_u32);
  GET_NUM(h_w_id, get_u32);
  GET_NUM(h_date, get_u64);
  GET_NUM(h_amount, get_double);
  GET_STR(h_data);
  return row;
}

void NewOrderRow::encode(Encoder& enc) const {
  enc.put_u32(no_o_id);
  enc.put_u32(no_d_id);
  enc.put_u32(no_w_id);
}

Result<NewOrderRow> NewOrderRow::decode(Decoder& dec) {
  NewOrderRow row;
  GET_NUM(no_o_id, get_u32);
  GET_NUM(no_d_id, get_u32);
  GET_NUM(no_w_id, get_u32);
  return row;
}

void OrderRow::encode(Encoder& enc) const {
  enc.put_u32(o_id);
  enc.put_u32(o_d_id);
  enc.put_u32(o_w_id);
  enc.put_u32(o_c_id);
  enc.put_u64(o_entry_d);
  enc.put_i64(o_carrier_id);
  enc.put_u8(o_ol_cnt);
  enc.put_u8(o_all_local);
}

Result<OrderRow> OrderRow::decode(Decoder& dec) {
  OrderRow row;
  GET_NUM(o_id, get_u32);
  GET_NUM(o_d_id, get_u32);
  GET_NUM(o_w_id, get_u32);
  GET_NUM(o_c_id, get_u32);
  GET_NUM(o_entry_d, get_u64);
  auto carrier = dec.get_i64();
  if (!carrier.is_ok()) return carrier.status();
  row.o_carrier_id = static_cast<std::int32_t>(carrier.value());
  GET_NUM(o_ol_cnt, get_u8);
  GET_NUM(o_all_local, get_u8);
  return row;
}

void OrderLineRow::encode(Encoder& enc) const {
  enc.put_u32(ol_o_id);
  enc.put_u32(ol_d_id);
  enc.put_u32(ol_w_id);
  enc.put_u8(ol_number);
  enc.put_u32(ol_i_id);
  enc.put_u32(ol_supply_w_id);
  enc.put_u64(ol_delivery_d);
  enc.put_u8(ol_quantity);
  enc.put_double(ol_amount);
  enc.put_string(ol_dist_info);
}

Result<OrderLineRow> OrderLineRow::decode(Decoder& dec) {
  OrderLineRow row;
  GET_NUM(ol_o_id, get_u32);
  GET_NUM(ol_d_id, get_u32);
  GET_NUM(ol_w_id, get_u32);
  GET_NUM(ol_number, get_u8);
  GET_NUM(ol_i_id, get_u32);
  GET_NUM(ol_supply_w_id, get_u32);
  GET_NUM(ol_delivery_d, get_u64);
  GET_NUM(ol_quantity, get_u8);
  GET_NUM(ol_amount, get_double);
  GET_STR(ol_dist_info);
  return row;
}

void ItemRow::encode(Encoder& enc) const {
  enc.put_u32(i_id);
  enc.put_u32(i_im_id);
  enc.put_string(i_name);
  enc.put_double(i_price);
  enc.put_string(i_data);
}

Result<ItemRow> ItemRow::decode(Decoder& dec) {
  ItemRow row;
  GET_NUM(i_id, get_u32);
  GET_NUM(i_im_id, get_u32);
  GET_STR(i_name);
  GET_NUM(i_price, get_double);
  GET_STR(i_data);
  return row;
}

void StockRow::encode(Encoder& enc) const {
  enc.put_u32(s_i_id);
  enc.put_u32(s_w_id);
  enc.put_i64(s_quantity);
  for (const auto& dist : s_dist) enc.put_string(dist);
  enc.put_double(s_ytd);
  enc.put_u32(s_order_cnt);
  enc.put_u32(s_remote_cnt);
  enc.put_string(s_data);
}

Result<StockRow> StockRow::decode(Decoder& dec) {
  // The prefix is StockQuantity's by construction: Stock-Level reads it
  // alone.
  VDB_ASSIGN_OR_RETURN(StockQuantity head, StockQuantity::decode(dec));
  StockRow row;
  row.s_i_id = head.s_i_id;
  row.s_w_id = head.s_w_id;
  row.s_quantity = head.s_quantity;
  for (auto& dist : row.s_dist) VDB_RETURN_IF_ERROR(dist.decode(dec));
  GET_NUM(s_ytd, get_double);
  GET_NUM(s_order_cnt, get_u32);
  GET_NUM(s_remote_cnt, get_u32);
  GET_STR(s_data);
  return row;
}

Result<StockQuantity> StockQuantity::decode(Decoder& dec) {
  StockQuantity row;
  GET_NUM(s_i_id, get_u32);
  GET_NUM(s_w_id, get_u32);
  auto qty = dec.get_i64();
  if (!qty.is_ok()) return qty.status();
  row.s_quantity = static_cast<std::int32_t>(qty.value());
  return row;
}

Result<WarehouseKey> WarehouseKey::decode(Decoder& dec) {
  WarehouseKey row;
  GET_NUM(w_id, get_u32);
  return row;
}

Result<DistrictKey> DistrictKey::decode(Decoder& dec) {
  DistrictKey row;
  GET_NUM(d_id, get_u32);
  GET_NUM(d_w_id, get_u32);
  return row;
}

Result<CustomerKey> CustomerKey::decode(Decoder& dec) {
  CustomerKey row;
  GET_NUM(c_id, get_u32);
  GET_NUM(c_d_id, get_u32);
  GET_NUM(c_w_id, get_u32);
  for (int skipped = 0; skipped < 2; ++skipped) {  // c_first, c_middle
    auto field = dec.get_view();
    if (!field.is_ok()) return field.status();
  }
  GET_STR(c_last);
  return row;
}

Result<OrderKey> OrderKey::decode(Decoder& dec) {
  OrderKey row;
  GET_NUM(o_id, get_u32);
  GET_NUM(o_d_id, get_u32);
  GET_NUM(o_w_id, get_u32);
  GET_NUM(o_c_id, get_u32);
  return row;
}

Result<OrderLineKey> OrderLineKey::decode(Decoder& dec) {
  OrderLineKey row;
  GET_NUM(ol_o_id, get_u32);
  GET_NUM(ol_d_id, get_u32);
  GET_NUM(ol_w_id, get_u32);
  GET_NUM(ol_number, get_u8);
  return row;
}

Result<ItemKey> ItemKey::decode(Decoder& dec) {
  ItemKey row;
  GET_NUM(i_id, get_u32);
  return row;
}

}  // namespace vdb::tpcc
