// TPC-C schema: the nine tables of the standard benchmark (clause 1.3),
// with spec-faithful fields and byte-level row codecs.
//
// Rows are stored in fixed slots sized to each table's maximum serialized
// row; codecs are deterministic so recovery replay reproduces rows
// byte-for-byte (asserted by the integration tests). String fields are
// InlineStrings sized to the spec's column widths, so decoding, copying and
// encoding a row never touches the heap.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/codec.hpp"
#include "common/status.hpp"
#include "tpcc/inline_string.hpp"

namespace vdb::tpcc {

struct WarehouseRow {
  std::uint32_t w_id = 0;
  InlineString<10> w_name;
  InlineString<20> w_street_1;
  InlineString<20> w_street_2;
  InlineString<20> w_city;
  InlineString<2> w_state;
  InlineString<9> w_zip;
  double w_tax = 0;
  double w_ytd = 0;

  void encode(Encoder& enc) const;
  static Result<WarehouseRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 160;
};

struct DistrictRow {
  std::uint32_t d_id = 0;
  std::uint32_t d_w_id = 0;
  InlineString<10> d_name;
  InlineString<20> d_street_1;
  InlineString<20> d_street_2;
  InlineString<20> d_city;
  InlineString<2> d_state;
  InlineString<9> d_zip;
  double d_tax = 0;
  double d_ytd = 0;
  std::uint32_t d_next_o_id = 1;

  void encode(Encoder& enc) const;
  static Result<DistrictRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 176;
};

struct CustomerRow {
  std::uint32_t c_id = 0;
  std::uint32_t c_d_id = 0;
  std::uint32_t c_w_id = 0;
  InlineString<16> c_first;
  InlineString<2> c_middle;
  InlineString<16> c_last;
  InlineString<20> c_street_1;
  InlineString<20> c_street_2;
  InlineString<20> c_city;
  InlineString<2> c_state;
  InlineString<9> c_zip;
  InlineString<16> c_phone;
  std::uint64_t c_since = 0;
  InlineString<2> c_credit;  // "GC" or "BC"
  double c_credit_lim = 0;
  double c_discount = 0;
  double c_balance = 0;
  double c_ytd_payment = 0;
  std::uint32_t c_payment_cnt = 0;
  std::uint32_t c_delivery_cnt = 0;
  InlineString<500> c_data;

  void encode(Encoder& enc) const;
  static Result<CustomerRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 760;
};

struct HistoryRow {
  std::uint32_t h_c_id = 0;
  std::uint32_t h_c_d_id = 0;
  std::uint32_t h_c_w_id = 0;
  std::uint32_t h_d_id = 0;
  std::uint32_t h_w_id = 0;
  std::uint64_t h_date = 0;
  double h_amount = 0;
  InlineString<24> h_data;

  void encode(Encoder& enc) const;
  static Result<HistoryRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 96;
};

struct NewOrderRow {
  std::uint32_t no_o_id = 0;
  std::uint32_t no_d_id = 0;
  std::uint32_t no_w_id = 0;

  void encode(Encoder& enc) const;
  static Result<NewOrderRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 24;
};

struct OrderRow {
  std::uint32_t o_id = 0;
  std::uint32_t o_d_id = 0;
  std::uint32_t o_w_id = 0;
  std::uint32_t o_c_id = 0;
  std::uint64_t o_entry_d = 0;
  std::int32_t o_carrier_id = -1;  // -1 = not delivered
  std::uint8_t o_ol_cnt = 0;
  std::uint8_t o_all_local = 1;

  void encode(Encoder& enc) const;
  static Result<OrderRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 48;
};

struct OrderLineRow {
  std::uint32_t ol_o_id = 0;
  std::uint32_t ol_d_id = 0;
  std::uint32_t ol_w_id = 0;
  std::uint8_t ol_number = 0;
  std::uint32_t ol_i_id = 0;
  std::uint32_t ol_supply_w_id = 0;
  std::uint64_t ol_delivery_d = 0;  // 0 = not delivered
  std::uint8_t ol_quantity = 0;
  double ol_amount = 0;
  InlineString<24> ol_dist_info;

  void encode(Encoder& enc) const;
  static Result<OrderLineRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 96;
};

struct ItemRow {
  std::uint32_t i_id = 0;
  std::uint32_t i_im_id = 0;
  InlineString<24> i_name;
  double i_price = 0;
  InlineString<50> i_data;

  void encode(Encoder& enc) const;
  static Result<ItemRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 112;
};

struct StockRow {
  std::uint32_t s_i_id = 0;
  std::uint32_t s_w_id = 0;
  std::int32_t s_quantity = 0;
  std::array<InlineString<24>, 10> s_dist;
  double s_ytd = 0;
  std::uint32_t s_order_cnt = 0;
  std::uint32_t s_remote_cnt = 0;
  InlineString<50> s_data;

  void encode(Encoder& enc) const;
  static Result<StockRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 384;
};

/// The leading key and quantity fields of a STOCK row: what Stock-Level
/// reads, and the key of the stock access path. Decodes a prefix of
/// StockRow's encoding and skips the rest.
struct StockQuantity {
  std::uint32_t s_i_id = 0;
  std::uint32_t s_w_id = 0;
  std::int32_t s_quantity = 0;

  static Result<StockQuantity> decode(Decoder& dec);
};

// Key views: the fields an access path keys a row by, decoded from the
// front of the row's encoding without the rest, as StockQuantity is.
// NEW-ORDER rows are all key. HISTORY has no access path.

struct WarehouseKey {
  std::uint32_t w_id = 0;

  static Result<WarehouseKey> decode(Decoder& dec);
};

struct DistrictKey {
  std::uint32_t d_id = 0;
  std::uint32_t d_w_id = 0;

  static Result<DistrictKey> decode(Decoder& dec);
};

/// The id fields and the last name; c_first and c_middle, which sit
/// between them, are skipped.
struct CustomerKey {
  std::uint32_t c_id = 0;
  std::uint32_t c_d_id = 0;
  std::uint32_t c_w_id = 0;
  InlineString<16> c_last;

  static Result<CustomerKey> decode(Decoder& dec);
};

struct OrderKey {
  std::uint32_t o_id = 0;
  std::uint32_t o_d_id = 0;
  std::uint32_t o_w_id = 0;
  std::uint32_t o_c_id = 0;

  static Result<OrderKey> decode(Decoder& dec);
};

struct OrderLineKey {
  std::uint32_t ol_o_id = 0;
  std::uint32_t ol_d_id = 0;
  std::uint32_t ol_w_id = 0;
  std::uint8_t ol_number = 0;

  static Result<OrderLineKey> decode(Decoder& dec);
};

struct ItemKey {
  std::uint32_t i_id = 0;

  static Result<ItemKey> decode(Decoder& dec);
};

/// Most lines one order can have (clause 2.4.1.3: ol_cnt in [5, 15]).
inline constexpr std::uint32_t kMaxOrderLines = 15;

/// Canonical table names (owned by the TPCC user in the TPCC tablespace).
inline constexpr const char* kWarehouseTable = "warehouse";
inline constexpr const char* kDistrictTable = "district";
inline constexpr const char* kCustomerTable = "customer";
inline constexpr const char* kHistoryTable = "history";
inline constexpr const char* kNewOrderTable = "new_order";
inline constexpr const char* kOrderTable = "orders";
inline constexpr const char* kOrderLineTable = "order_line";
inline constexpr const char* kItemTable = "item";
inline constexpr const char* kStockTable = "stock";

/// Serializes any row type to bytes, in one allocation: no row encodes
/// past its slot.
template <typename Row>
std::vector<std::uint8_t> to_bytes(const Row& row) {
  std::vector<std::uint8_t> out;
  Encoder enc(&out);
  enc.reserve(Row::kSlotSize);
  row.encode(enc);
  return out;
}

/// Parses a row, aborting on corruption (row bytes come from our own pages;
/// damage would be an engine bug, which tests must surface loudly).
template <typename Row>
Row from_bytes(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  auto row = Row::decode(dec);
  VDB_CHECK_MSG(row.is_ok(), "row decode failed");
  return std::move(row).value();
}

}  // namespace vdb::tpcc
