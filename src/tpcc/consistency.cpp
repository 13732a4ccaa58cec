#include "tpcc/consistency.hpp"

#include <cmath>
#include <cstdio>
#include <map>

namespace vdb::tpcc {

namespace {

constexpr double kMoneyEps = 0.02;

bool money_eq(double a, double b) { return std::fabs(a - b) < kMoneyEps; }

using DKeyT = std::pair<std::uint32_t, std::uint32_t>;
using CKeyT = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

}  // namespace

void ConsistencyChecker::violation(ConsistencyReport* report,
                                   std::string message) {
  report->violations += 1;
  if (report->messages.size() < 16) {
    report->messages.push_back(std::move(message));
  }
}

Result<ConsistencyReport> ConsistencyChecker::run_all() {
  ConsistencyReport report;
  VDB_RETURN_IF_ERROR(run_local(&report));
  VDB_RETURN_IF_ERROR(check_warehouse_history(&report));
  return report;
}

Status ConsistencyChecker::run_local(ConsistencyReport* report) {
  VDB_RETURN_IF_ERROR(check_warehouse_ytd(report));
  VDB_RETURN_IF_ERROR(check_order_id_monotony(report));
  VDB_RETURN_IF_ERROR(check_new_order_contiguity(report));
  VDB_RETURN_IF_ERROR(check_order_line_counts(report));
  VDB_RETURN_IF_ERROR(check_delivery_flags(report));
  return check_customer_balance(report);
}

Status ConsistencyChecker::check_warehouse_ytd(ConsistencyReport* report) {
  report->checks_run += 1;
  std::map<std::uint32_t, double> w_ytd;
  std::map<std::uint32_t, double> d_sum;

  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kWarehouse),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<WarehouseRow>(bytes);
        w_ytd[row.w_id] = row.w_ytd;
        return true;
      }));
  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kDistrict),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<DistrictRow>(bytes);
        d_sum[row.d_w_id] += row.d_ytd;
        return true;
      }));

  for (const auto& [w, ytd] : w_ytd) {
    if (!money_eq(ytd, d_sum[w])) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "C1: W_YTD(%u)=%.2f != sum(D_YTD)=%.2f", w, ytd,
                    d_sum[w]);
      violation(report, buf);
    }
  }
  return Status::ok();
}

Status ConsistencyChecker::check_order_id_monotony(ConsistencyReport* report) {
  report->checks_run += 1;
  std::map<DKeyT, std::uint32_t> next_o;
  std::map<DKeyT, std::uint32_t> max_o;
  std::map<DKeyT, std::uint32_t> max_no;

  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kDistrict),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<DistrictRow>(bytes);
        next_o[{row.d_w_id, row.d_id}] = row.d_next_o_id;
        return true;
      }));
  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kOrder),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<OrderRow>(bytes);
        auto& v = max_o[{row.o_w_id, row.o_d_id}];
        v = std::max(v, row.o_id);
        return true;
      }));
  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kNewOrder),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<NewOrderRow>(bytes);
        auto& v = max_no[{row.no_w_id, row.no_d_id}];
        v = std::max(v, row.no_o_id);
        return true;
      }));

  for (const auto& [key, next] : next_o) {
    auto it = max_o.find(key);
    if (it != max_o.end() && it->second != next - 1) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "C2: (w%u,d%u) d_next_o_id-1=%u != max(o_id)=%u",
                    key.first, key.second, next - 1, it->second);
      violation(report, buf);
    }
    auto nit = max_no.find(key);
    if (nit != max_no.end() && nit->second > next - 1) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "C2: (w%u,d%u) max(no_o_id)=%u beyond d_next_o_id-1=%u",
                    key.first, key.second, nit->second, next - 1);
      violation(report, buf);
    }
  }
  return Status::ok();
}

Status ConsistencyChecker::check_new_order_contiguity(
    ConsistencyReport* report) {
  report->checks_run += 1;
  struct MinMaxCount {
    std::uint32_t min = ~0u;
    std::uint32_t max = 0;
    std::uint32_t count = 0;
  };
  std::map<DKeyT, MinMaxCount> stats;

  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kNewOrder),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<NewOrderRow>(bytes);
        auto& s = stats[{row.no_w_id, row.no_d_id}];
        s.min = std::min(s.min, row.no_o_id);
        s.max = std::max(s.max, row.no_o_id);
        s.count += 1;
        return true;
      }));

  for (const auto& [key, s] : stats) {
    if (s.count != s.max - s.min + 1) {
      char buf[160];
      std::snprintf(
          buf, sizeof(buf),
          "C3: (w%u,d%u) new_order count=%u != max-min+1=%u (min=%u max=%u)",
          key.first, key.second, s.count, s.max - s.min + 1, s.min, s.max);
      violation(report, buf);
    }
  }
  return Status::ok();
}

Status ConsistencyChecker::check_order_line_counts(ConsistencyReport* report) {
  report->checks_run += 1;
  std::map<CKeyT, std::uint32_t> expected;  // (w,d,o) -> ol_cnt
  std::map<CKeyT, std::uint32_t> actual;

  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kOrder),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<OrderRow>(bytes);
        expected[{row.o_w_id, row.o_d_id, row.o_id}] = row.o_ol_cnt;
        return true;
      }));
  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kOrderLine),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<OrderLineRow>(bytes);
        actual[{row.ol_w_id, row.ol_d_id, row.ol_o_id}] += 1;
        return true;
      }));

  for (const auto& [key, cnt] : expected) {
    const auto it = actual.find(key);
    const std::uint32_t have = it == actual.end() ? 0 : it->second;
    if (have != cnt) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "C4: order (w%u,d%u,o%u) has %u lines, expects %u",
                    std::get<0>(key), std::get<1>(key), std::get<2>(key),
                    have, cnt);
      violation(report, buf);
    }
  }
  for (const auto& [key, cnt] : actual) {
    if (!expected.contains(key)) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "C4: orphan order lines at (w%u,d%u,o%u)",
                    std::get<0>(key), std::get<1>(key), std::get<2>(key));
      violation(report, buf);
    }
  }
  return Status::ok();
}

Status ConsistencyChecker::check_delivery_flags(ConsistencyReport* report) {
  report->checks_run += 1;
  std::map<CKeyT, bool> has_new_order;
  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kNewOrder),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<NewOrderRow>(bytes);
        has_new_order[{row.no_w_id, row.no_d_id, row.no_o_id}] = true;
        return true;
      }));

  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kOrder),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<OrderRow>(bytes);
        const bool pending =
            has_new_order.contains({row.o_w_id, row.o_d_id, row.o_id});
        const bool undelivered = row.o_carrier_id < 0;
        if (pending != undelivered) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "C5: order (w%u,d%u,o%u) carrier=%d but new_order "
                        "row %s",
                        row.o_w_id, row.o_d_id, row.o_id, row.o_carrier_id,
                        pending ? "exists" : "missing");
          violation(report, buf);
        }
        return true;
      }));
  return Status::ok();
}

Status ConsistencyChecker::check_customer_balance(ConsistencyReport* report) {
  report->checks_run += 1;
  std::map<CKeyT, std::uint32_t> order_customer;  // (w,d,o) -> c
  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kOrder),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<OrderRow>(bytes);
        order_customer[{row.o_w_id, row.o_d_id, row.o_id}] = row.o_c_id;
        return true;
      }));

  std::map<CKeyT, double> delivered_sum;  // (w,d,c)
  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kOrderLine),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<OrderLineRow>(bytes);
        if (row.ol_delivery_d == 0) return true;
        auto it = order_customer.find({row.ol_w_id, row.ol_d_id, row.ol_o_id});
        if (it == order_customer.end()) return true;  // caught by C4
        delivered_sum[{row.ol_w_id, row.ol_d_id, it->second}] +=
            row.ol_amount;
        return true;
      }));

  std::map<CKeyT, double> payments;  // (w,d,c)
  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kHistory),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<HistoryRow>(bytes);
        payments[{row.h_c_w_id, row.h_c_d_id, row.h_c_id}] += row.h_amount;
        return true;
      }));

  VDB_RETURN_IF_ERROR(db_->db().scan(
      db_->table(Tbl::kCustomer),
      [&](RowId, std::span<const std::uint8_t> bytes) {
        auto row = from_bytes<CustomerRow>(bytes);
        const CKeyT key{row.c_w_id, row.c_d_id, row.c_id};
        const double expected =
            delivered_sum[key] - payments[key];
        if (!money_eq(row.c_balance, expected)) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "C-balance: customer (w%u,d%u,c%u) balance=%.2f, "
                        "expected %.2f",
                        row.c_w_id, row.c_d_id, row.c_id, row.c_balance,
                        expected);
          violation(report, buf);
        }
        return true;
      }));
  return Status::ok();
}

Status ConsistencyChecker::check_warehouse_history(ConsistencyReport* report) {
  return check_warehouse_history_across({db_}, report);
}

Status ConsistencyChecker::check_warehouse_history_across(
    const std::vector<TpccDb*>& dbs, ConsistencyReport* report) {
  report->checks_run += 1;
  std::map<std::uint32_t, double> history_sum;
  for (TpccDb* db : dbs) {
    VDB_RETURN_IF_ERROR(db->db().scan(
        db->table(Tbl::kHistory),
        [&](RowId, std::span<const std::uint8_t> bytes) {
          auto row = from_bytes<HistoryRow>(bytes);
          history_sum[row.h_w_id] += row.h_amount;
          return true;
        }));
  }

  for (TpccDb* db : dbs) {
    const double initial_hist = 10.0 * db->scale().districts_per_warehouse *
                                db->scale().customers_per_district;
    VDB_RETURN_IF_ERROR(db->db().scan(
        db->table(Tbl::kWarehouse),
        [&](RowId, std::span<const std::uint8_t> bytes) {
          auto row = from_bytes<WarehouseRow>(bytes);
          const double expected =
              300000.0 + history_sum[row.w_id] - initial_hist;
          if (!money_eq(row.w_ytd, expected)) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "W-history: warehouse %u ytd=%.2f, expected %.2f",
                          row.w_id, row.w_ytd, expected);
            violation(report, buf);
          }
          return true;
        }));
  }
  return Status::ok();
}

}  // namespace vdb::tpcc
