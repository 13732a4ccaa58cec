#include "fleet/fleet.hpp"

#include <string>
#include <utility>

namespace vdb::fleet {

BranchRecord* GlobalTxn::branch(std::uint32_t shard) {
  for (BranchRecord& b : branches) {
    if (b.shard == shard) return &b;
  }
  return nullptr;
}

bool GlobalTxn::settled() const {
  for (const BranchRecord& b : branches) {
    if (b.outcome == '?') return false;
  }
  return true;
}

GlobalTxn& TwoPhaseRegistry::open(std::uint32_t coord,
                                  const std::vector<std::uint32_t>& shards) {
  GlobalTxn g;
  g.gtxn = next_gtxn_++;
  g.coord = coord;
  for (std::uint32_t s : shards) g.branches.push_back(BranchRecord{s});
  auto [it, inserted] = txns_.emplace(g.gtxn, std::move(g));
  (void)inserted;
  return it->second;
}

GlobalTxn* TwoPhaseRegistry::find(std::uint64_t gtxn) {
  auto it = txns_.find(gtxn);
  return it == txns_.end() ? nullptr : &it->second;
}

std::uint64_t TwoPhaseRegistry::atomicity_violations() const {
  std::uint64_t violations = 0;
  for (const auto& [gtxn, g] : txns_) {
    bool committed = false;
    bool aborted = false;
    for (const BranchRecord& b : g.branches) {
      if (b.outcome == 'C') committed = true;
      if (b.outcome == 'A') aborted = true;
    }
    if (committed && aborted) violations += 1;
  }
  return violations;
}

Fleet::Fleet(FleetConfig cfg)
    : cfg_(std::move(cfg)), sched_(&clock_) {
  if (cfg_.scale.warehouses < cfg_.shards * 2) {
    // Default fleet sizing: two warehouses per shard keeps every shard a
    // multi-warehouse TPC-C system (remote cases exist within a shard too).
    cfg_.scale.warehouses = cfg_.shards * 2;
  }
}

std::uint32_t Fleet::shard_of(std::uint32_t warehouse) const {
  // Knuth multiplicative hash: static, directory-free, stable across
  // restarts. Warehouse ids are 1-based and dense, so small fleets stay
  // balanced.
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(warehouse) * 2654435761ull) % cfg_.shards);
}

Status Fleet::setup() {
  if (cfg_.shards < 2) {
    return Status{ErrorCode::kInvalidArgument, "fleet needs >= 2 shards"};
  }
  shards_.clear();
  for (std::uint32_t i = 0; i < cfg_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(&sched_));
    shards_[i]->index = i;
  }
  for (std::uint32_t w = 1; w <= cfg_.scale.warehouses; ++w) {
    shards_[shard_of(w)]->warehouses.push_back(w);
  }
  for (std::uint32_t i = 0; i < cfg_.shards; ++i) {
    Shard& s = *shards_[i];
    if (s.warehouses.empty()) {
      return Status{ErrorCode::kInvalidArgument,
                    "warehouse hash left shard " + std::to_string(i) +
                        " empty; raise scale.warehouses"};
    }
    const std::string tag = "shard" + std::to_string(i);
    bench::ExperimentOptions opts;
    opts.scale = cfg_.scale;
    opts.with_standby = true;
    // The shard loads its own warehouses plus the full (replicated) item
    // catalog. A per-shard seed keeps the loads independent.
    opts.seed = cfg_.seed ^ (0x9e3779b97f4a7c15ull * (i + 1));
    VDB_RETURN_IF_ERROR(
        s.build(opts, {tag, tag + "-standby", "tpcc-" + tag}, s.warehouses));
  }
  return Status::ok();
}

Status Fleet::restart_shard(std::uint32_t i) {
  Shard& s = *shards_[i];
  if (s.promoted) {
    return Status{ErrorCode::kInvalidArgument,
                  "shard failed over; the promoted standby is the instance"};
  }
  if (s.db->is_open()) return Status::ok();  // nothing to do
  VDB_RETURN_IF_ERROR(s.restart());
  s.failed_at = 0;
  return Status::ok();
}

Status Fleet::kill_shard(std::uint32_t i) {
  Shard& s = *shards_[i];
  engine::Database& db = active_db(i);
  if (!db.is_open()) return Status::ok();  // already down
  s.failed_at = clock_.now();
  return db.shutdown_abort();
}

Result<standby::ActivationReport> Fleet::promote(std::uint32_t i) {
  Shard& s = *shards_[i];
  if (s.promoted) {
    return Status{ErrorCode::kInvalidArgument,
                  "shard already failed over; no second standby"};
  }
  if (s.db->is_open()) (void)s.db->shutdown_abort();
  auto act = s.standby->activate();
  if (!act.is_ok()) return act.status();
  VDB_RETURN_IF_ERROR(s.tdb->attach(&s.standby->db()));
  s.promoted = true;
  s.recovered_to = act.value().recovered_to;
  return act;
}

bool Fleet::healthy() const {
  for (const auto& s : shards_) {
    if (!s->serving_db().is_open()) return false;
  }
  return true;
}

}  // namespace vdb::fleet
