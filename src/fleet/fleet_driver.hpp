// Closed-loop TPC-C driver over the whole fleet.
//
// Same card deck, input draws and end-user failure detection as
// tpcc::Driver. Each interaction runs the single-instance TPC-C profiles
// through FleetTxns, the fleet's route: rows go to the shard that owns
// their warehouse, and a multi-shard interaction commits by two-phase
// commit. The driver keeps per-branch durability watermarks so lost
// transactions can be accounted per shard after a promotion (a committed
// interaction is lost on shard s iff one of its branches' commit LSNs lies
// above what s's recovery salvaged).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_txns.hpp"
#include "obs/metrics.hpp"
#include "tpcc/card_deck.hpp"

namespace vdb::fleet {

struct FleetDriverConfig {
  std::uint64_t seed = 42;
  SimDuration report_interval = 30 * kSecond;
};

struct FleetCommitRecord {
  tpcc::TxnType type = tpcc::TxnType::kNewOrder;
  SimTime commit_time = 0;
  SimDuration response_time = 0;
  bool cross_shard = false;
  /// (shard, branch commit LSN) per touched shard; empty branch list means
  /// read-only work with nothing to lose.
  std::vector<std::pair<std::uint32_t, Lsn>> branches;
};

struct FleetDriverStats {
  std::uint64_t committed = 0;
  std::array<std::uint64_t, tpcc::kTxnTypes> committed_by_type{};
  std::uint64_t cross_shard_committed = 0;
  std::uint64_t intentional_rollbacks = 0;
  std::uint64_t failed_attempts = 0;
};

class FleetDriver {
 public:
  FleetDriver(Fleet* fleet, obs::Observability* fleet_obs,
              FleetDriverConfig cfg);

  /// Runs the closed loop until `until`; an error return is the end-user
  /// view of a fault activating (the failure instant is clock.now()).
  Status run_until(SimTime until);

  FleetTxns& txns() { return txns_; }
  const FleetDriverStats& stats() const { return stats_; }
  const std::vector<FleetCommitRecord>& commits() const { return commits_; }

  double tpmc(SimTime from, SimTime to) const;
  double tpm_total(SimTime from, SimTime to) const;
  const std::vector<std::uint32_t>& series() const { return series_; }
  SimDuration series_interval() const { return cfg_.report_interval; }

  /// Committed-before-`before` interactions whose branch on `shard` sits
  /// above `recovered_to` — the transactions that shard's failover lost.
  std::uint64_t count_lost(std::uint32_t shard, Lsn recovered_to,
                           SimTime before) const;

 private:
  Fleet* fleet_;
  obs::Observability* obs_;
  FleetDriverConfig cfg_;
  SimTime series_origin_ = 0;
  tpcc::TpccRandom random_;
  FleetTxns txns_;
  tpcc::CardDeck deck_;
  FleetDriverStats stats_;
  std::vector<FleetCommitRecord> commits_;
  std::vector<std::uint32_t> series_;
  std::array<obs::Histogram*, tpcc::kTxnTypes> latency_hist_{};
};

}  // namespace vdb::fleet
