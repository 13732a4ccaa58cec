#include "fleet/fleet_txns.hpp"

#include <utility>

namespace vdb::fleet {

namespace {
/// 2PC message size on the inter-shard link (request + ack per round).
constexpr std::uint64_t kMessageBytes = 512;
}  // namespace

void FleetTxns::arm_crash(CrashPoint point,
                          std::function<void(std::uint32_t)> fire) {
  armed_ = point;
  fire_ = std::move(fire);
}

bool FleetTxns::fire_crash(CrashPoint point, std::uint32_t victim) {
  if (armed_ != point) return false;
  armed_ = CrashPoint::kNone;
  auto fire = std::move(fire_);
  fire_ = nullptr;
  if (fire) fire(victim);
  return true;
}

void FleetTxns::charge_round_trip() {
  sim::VirtualClock& clock = fleet_->clock();
  const SimTime done =
      fleet_->interconnect().transfer(clock.now(), 2 * kMessageBytes);
  if (done > clock.now()) clock.advance_to(done);
}

tpcc::TpccDb& FleetTxns::db(std::uint32_t w) {
  return fleet_->tdb(fleet_->shard_of(w));
}

Result<TxnId> FleetTxns::begin(std::uint32_t home) {
  home_ = fleet_->shard_of(home);
  branches_.clear();
  committed_.clear();
  auto txn = fleet_->active_db(home_).begin();
  if (!txn.is_ok()) return txn.status();
  branches_.emplace(home_, txn.value());
  return txn.value();
}

Result<TxnId> FleetTxns::txn(std::uint32_t w) {
  return branch_txn(fleet_->shard_of(w));
}

Result<Lsn> FleetTxns::commit() {
  if (branches_.size() > 1) return two_phase_commit();
  auto lsn = fleet_->active_db(home_).commit(branches_.at(home_));
  if (!lsn.is_ok()) rollback_all();
  return lsn;
}

Status FleetTxns::rollback() {
  rollback_all();
  return Status::ok();
}

Result<TxnId> FleetTxns::branch_txn(std::uint32_t shard) {
  auto it = branches_.find(shard);
  if (it != branches_.end()) return it->second;
  charge_round_trip();  // branch-open message to the foreign shard
  auto txn = fleet_->active_db(shard).begin();
  if (!txn.is_ok()) return txn.status();
  branches_.emplace(shard, txn.value());
  return txn.value();
}

void FleetTxns::rollback_all() {
  for (const auto& [shard, txn] : branches_) {
    (void)fleet_->active_db(shard).rollback(txn);
  }
}

void FleetTxns::abort_branches(GlobalTxn* g) {
  for (auto& [shard, txn] : branches_) {
    BranchRecord* b = g->branch(shard);
    engine::Database& db = fleet_->active_db(shard);
    if (b->prepare_lsn != 0) {
      // Prepared branches roll back only on the coordinator's order —
      // which this is. A dead shard's branch stays in doubt; recovery
      // presumes abort when no decision record ever surfaces.
      if (db.is_open()) {
        if (db.resolve_prepared(g->gtxn, /*commit=*/false).is_ok()) {
          b->outcome = 'A';
        }
      }
      continue;
    }
    // Never prepared: a live shard rolls back now; a dead one has a plain
    // loser transaction that instance recovery will roll back.
    if (db.is_open()) (void)db.rollback(txn);
    b->outcome = 'A';
  }
  g->finished = g->settled();
}

Result<Lsn> FleetTxns::two_phase_commit() {
  const std::uint32_t home = home_;
  std::vector<std::uint32_t> parts;
  for (const auto& [shard, txn] : branches_) parts.push_back(shard);
  GlobalTxn& g = fleet_->registry().open(home, parts);
  engine::Database& hdb = fleet_->active_db(home);

  if (fire_crash(CrashPoint::kBeforePrepare, home)) {
    // Nothing is prepared anywhere: every branch is a plain loser.
    abort_branches(&g);
    return Status{ErrorCode::kNotOpen, "coordinator lost before prepare"};
  }

  // Phase 1: participants prepare first, the coordinator's own branch
  // last (its prepare doubles as the point of no return for phase 2).
  bool first_participant = true;
  for (const auto& [shard, txn] : branches_) {
    if (shard == home) continue;
    if (first_participant) {
      first_participant = false;
      fire_crash(CrashPoint::kMidPrepare, shard);
    }
    charge_round_trip();
    auto p = fleet_->active_db(shard).prepare(txn, g.gtxn, home);
    if (!p.is_ok()) {
      // Unreachable participant: the coordinator decides abort. Presumed
      // abort needs no decision record — branches that never prepare roll
      // back on their own at recovery.
      abort_branches(&g);
      return p.status();
    }
    g.branch(shard)->prepare_lsn = p.value();
  }
  auto hp = hdb.prepare(branches_.at(home), g.gtxn, home);
  if (!hp.is_ok()) {
    abort_branches(&g);
    return hp.status();
  }
  g.branch(home)->prepare_lsn = hp.value();

  if (fire_crash(CrashPoint::kAfterPrepares, home)) {
    // Undecided coordinator crash: every branch is in doubt until the
    // orchestrator resolves it — presumed abort, since no decision record
    // can ever surface from the coordinator's redo.
    return Status{ErrorCode::kNotOpen, "coordinator lost before decision"};
  }

  auto decision = hdb.log_coord_decision(g.gtxn, true);
  if (!decision.is_ok()) return decision.status();
  g.decided = true;
  g.decision = true;

  if (fire_crash(CrashPoint::kAfterDecision, home)) {
    // The COMMIT decision is durable in the coordinator's redo: recovery
    // must drive every prepared branch to commit.
    return Status{ErrorCode::kNotOpen, "coordinator lost after decision"};
  }

  // Phase 2: commit everywhere, coordinator first.
  auto hc = hdb.commit(branches_.at(home));
  if (!hc.is_ok()) return hc.status();
  g.branch(home)->end_lsn = hc.value();
  g.branch(home)->outcome = 'C';
  committed_.emplace_back(home, hc.value());
  for (const auto& [shard, txn] : branches_) {
    if (shard == home) continue;
    charge_round_trip();
    auto c = fleet_->active_db(shard).commit(txn);
    if (!c.is_ok()) continue;  // died post-decision: resolves at recovery
    g.branch(shard)->end_lsn = c.value();
    g.branch(shard)->outcome = 'C';
    committed_.emplace_back(shard, c.value());
  }
  g.finished = g.settled();
  if (g.finished) hdb.forget_decision(g.gtxn);
  return hc.value();
}

}  // namespace vdb::fleet
