// The on-page encoding of the nine TPC-C row types, pinned byte for byte.
//
// Pages, redo records and backups all carry these bytes, so a change to a
// row struct's in-memory representation must leave them untouched. Each
// row is filled with every field set (strings at their longest) and its
// encoding is pinned as length + CRC32C.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "tpcc/schema.hpp"

namespace vdb::tpcc {
namespace {

struct Golden {
  size_t size;
  std::uint32_t crc;
};

template <typename Row>
void expect_golden(const Row& row, Golden golden) {
  const std::vector<std::uint8_t> bytes = to_bytes(row);
  EXPECT_EQ(bytes.size(), golden.size);
  EXPECT_EQ(crc32c(bytes), golden.crc)
      << "actual crc 0x" << std::hex << crc32c(bytes);
  // And the decode gives back the same bytes.
  EXPECT_EQ(to_bytes(from_bytes<Row>(bytes)), bytes);
}

std::string filled(size_t n, char first) {
  std::string s(n, ' ');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>(first + i % 26);
  return s;
}

TEST(RowFormat, WarehouseGoldenBytes) {
  WarehouseRow r;
  r.w_id = 7;
  r.w_name = filled(10, 'A');
  r.w_street_1 = filled(20, 'b');
  r.w_street_2 = filled(20, 'c');
  r.w_city = filled(20, 'd');
  r.w_state = "CA";
  r.w_zip = "123411111";
  r.w_tax = 0.1234;
  r.w_ytd = 300000.5;
  expect_golden(r, {125, 0x10e22aa4});
}

TEST(RowFormat, DistrictGoldenBytes) {
  DistrictRow r;
  r.d_id = 9;
  r.d_w_id = 7;
  r.d_name = filled(10, 'E');
  r.d_street_1 = filled(20, 'f');
  r.d_street_2 = filled(20, 'g');
  r.d_city = filled(20, 'h');
  r.d_state = "NY";
  r.d_zip = "987611111";
  r.d_tax = 0.0825;
  r.d_ytd = 30000.25;
  r.d_next_o_id = 3001;
  expect_golden(r, {133, 0xe2355dbc});
}

TEST(RowFormat, CustomerGoldenBytes) {
  CustomerRow r;
  r.c_id = 2999;
  r.c_d_id = 9;
  r.c_w_id = 7;
  r.c_first = filled(16, 'i');
  r.c_middle = "OE";
  r.c_last = "CALLYCALLYCALLY";
  r.c_street_1 = filled(20, 'j');
  r.c_street_2 = filled(20, 'k');
  r.c_city = filled(20, 'l');
  r.c_state = "TX";
  r.c_zip = "555511111";
  r.c_phone = "0123456789012345";
  r.c_since = 123456789;
  r.c_credit = "BC";
  r.c_credit_lim = 50000;
  r.c_discount = 0.4321;
  r.c_balance = -10.75;
  r.c_ytd_payment = 10.5;
  r.c_payment_cnt = 3;
  r.c_delivery_cnt = 2;
  r.c_data = filled(500, 'M');
  expect_golden(r, {726, 0xab8c4e3c});
}

TEST(RowFormat, HistoryGoldenBytes) {
  HistoryRow r;
  r.h_c_id = 2999;
  r.h_c_d_id = 9;
  r.h_c_w_id = 7;
  r.h_d_id = 8;
  r.h_w_id = 6;
  r.h_date = 987654321;
  r.h_amount = 10.5;
  r.h_data = filled(24, 'n');
  expect_golden(r, {64, 0xa7776153});
}

TEST(RowFormat, NewOrderGoldenBytes) {
  NewOrderRow r;
  r.no_o_id = 3001;
  r.no_d_id = 9;
  r.no_w_id = 7;
  expect_golden(r, {12, 0x7400d4f8});
}

TEST(RowFormat, OrderGoldenBytes) {
  OrderRow r;
  r.o_id = 3001;
  r.o_d_id = 9;
  r.o_w_id = 7;
  r.o_c_id = 2999;
  r.o_entry_d = 555555;
  r.o_carrier_id = -1;
  r.o_ol_cnt = 15;
  r.o_all_local = 0;
  expect_golden(r, {34, 0x5eacc6a5});
}

TEST(RowFormat, OrderLineGoldenBytes) {
  OrderLineRow r;
  r.ol_o_id = 3001;
  r.ol_d_id = 9;
  r.ol_w_id = 7;
  r.ol_number = 15;
  r.ol_i_id = 99999;
  r.ol_supply_w_id = 6;
  r.ol_delivery_d = 777777;
  r.ol_quantity = 10;
  r.ol_amount = 9999.99;
  r.ol_dist_info = filled(24, 'o');
  expect_golden(r, {66, 0x4d76734c});
}

TEST(RowFormat, ItemGoldenBytes) {
  ItemRow r;
  r.i_id = 99999;
  r.i_im_id = 10000;
  r.i_name = filled(24, 'p');
  r.i_price = 100.0;
  r.i_data = filled(50, 'Q');
  expect_golden(r, {98, 0x8ba1d2ff});
}

TEST(RowFormat, StockGoldenBytes) {
  StockRow r;
  r.s_i_id = 99999;
  r.s_w_id = 7;
  r.s_quantity = -3;
  for (size_t i = 0; i < r.s_dist.size(); ++i) {
    r.s_dist[i] = filled(24, static_cast<char>('a' + i));
  }
  r.s_ytd = 123.0;
  r.s_order_cnt = 4;
  r.s_remote_cnt = 1;
  r.s_data = filled(50, 'R');
  expect_golden(r, {366, 0x0f94740e});
}

TEST(RowFormat, EmptyStringsGoldenBytes) {
  // Default rows: every string empty, encoded as a bare zero length.
  expect_golden(CustomerRow{}, {104, 0x85ac0989});
  expect_golden(StockRow{}, {76, 0xcc368465});
}

// A whole WAREHOUSE row encoded field by field, with a w_name of
// `name_len` bytes (the column holds 10).
std::vector<std::uint8_t> warehouse_bytes(size_t name_len) {
  std::vector<std::uint8_t> bytes;
  Encoder enc(&bytes);
  enc.put_u32(7);
  enc.put_string(std::string(name_len, 'x'));
  for (int i = 0; i < 3; ++i) enc.put_string("street");
  enc.put_string("CA");
  enc.put_string("123411111");
  enc.put_double(0.1);
  enc.put_double(0.2);
  return bytes;
}

TEST(RowFormat, StringLongerThanItsFieldIsCorruption) {
  const auto fits = warehouse_bytes(10);
  Decoder ok(fits);
  auto row = WarehouseRow::decode(ok);
  ASSERT_TRUE(row.is_ok());
  EXPECT_EQ(row.value().w_name, std::string(10, 'x'));
  EXPECT_TRUE(ok.done());

  const auto too_long = warehouse_bytes(11);
  Decoder bad(too_long);
  auto damaged = WarehouseRow::decode(bad);
  ASSERT_FALSE(damaged.is_ok());
  EXPECT_EQ(damaged.code(), ErrorCode::kCorruption);
}

TEST(RowFormat, StockQuantityDecodesTheStockPrefix) {
  StockRow s;
  s.s_i_id = 42;
  s.s_w_id = 3;
  s.s_quantity = -7;
  s.s_data = filled(50, 'S');
  const auto q = from_bytes<StockQuantity>(to_bytes(s));
  EXPECT_EQ(q.s_i_id, 42u);
  EXPECT_EQ(q.s_w_id, 3u);
  EXPECT_EQ(q.s_quantity, -7);
}

}  // namespace
}  // namespace vdb::tpcc
