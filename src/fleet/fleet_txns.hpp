// The fleet's transaction route: the single-instance TPC-C profiles
// (tpcc::TpccTxns) and driver (tpcc::Driver) run over it unchanged. Each
// warehouse routes to its shard. When a remote stock line (clause 2.4.1's
// ~1%-per-line case) or a remote customer (clause 2.5.1.2's 15% case) lands
// on a foreign shard, the route opens a branch there, and the interaction
// then commits by presumed-abort two-phase commit:
//
//   1. every branch PREPAREs (redo record + log force),
//   2. the coordinator (the home shard) force-logs its COMMIT decision,
//   3. branches commit; the coordinator forgets the decision.
//
// No decision record ever means abort — that presumption is what lets a
// crashed participant resolve a branch without talking to anyone when the
// coordinator provably never decided.
//
// Crash points let the faultload kill a shard at the protocol's four
// exposed instants; the armed hook receives the natural victim (the
// coordinator, or the participant about to prepare) and fires exactly
// once.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "fleet/fleet.hpp"
#include "tpcc/tpcc_txns.hpp"

namespace vdb::fleet {

enum class CrashPoint {
  kNone = 0,
  kBeforePrepare,   // coordinator dies before any branch prepared
  kMidPrepare,      // the first participant dies before its own prepare
  kAfterPrepares,   // coordinator dies with all branches prepared, undecided
  kAfterDecision,   // coordinator dies with its COMMIT decision durable
};

class FleetTxns final : public tpcc::TxnRoute {
 public:
  explicit FleetTxns(Fleet* fleet) : fleet_(fleet) {}

  /// Arms a one-shot crash at the given protocol instant. The hook gets
  /// the victim shard the faultload scenario wants dead (coordinator for
  /// every point except kMidPrepare, which hands over the participant).
  void arm_crash(CrashPoint point,
                 std::function<void(std::uint32_t shard)> fire);
  bool crash_armed() const { return armed_ != CrashPoint::kNone; }

  // tpcc::TxnRoute, over the current interaction's branches.
  tpcc::TpccDb& db(std::uint32_t w) override;
  Result<TxnId> begin(std::uint32_t home) override;
  Result<TxnId> txn(std::uint32_t w) override;
  Result<Lsn> commit() override;
  Status rollback() override;
  std::uint32_t home_shard() const override { return home_; }
  std::span<const Branch> committed_branches() const override {
    return committed_;
  }

 private:
  /// Lazily opens a branch transaction on `shard`.
  Result<TxnId> branch_txn(std::uint32_t shard);
  /// Rolls back every open branch (business rollback / pre-2PC failure).
  void rollback_all();

  /// True (and disarms) when `point` is armed; the hook has then run.
  bool fire_crash(CrashPoint point, std::uint32_t victim);
  /// One 2PC message round trip on the inter-shard link.
  void charge_round_trip();

  /// Presumed-abort commit across branches_.size() >= 2 shards; returns
  /// the home commit LSN.
  Result<Lsn> two_phase_commit();
  /// Coordinator-side abort: prepared branches resolve on its order,
  /// unprepared ones roll back, dead shards resolve at their recovery.
  void abort_branches(GlobalTxn* g);

  Fleet* fleet_;
  CrashPoint armed_ = CrashPoint::kNone;
  std::function<void(std::uint32_t)> fire_;
  /// The current interaction: home shard, open branch per shard, and, once
  /// a two-phase commit went through, every branch that committed.
  std::uint32_t home_ = 0;
  std::map<std::uint32_t, TxnId> branches_;
  std::vector<Branch> committed_;
};

}  // namespace vdb::fleet
