#include "fleet/fleet_driver.hpp"

#include <algorithm>
#include <string>

namespace vdb::fleet {

FleetDriver::FleetDriver(Fleet* fleet, obs::Observability* fleet_obs,
                         FleetDriverConfig cfg)
    : fleet_(fleet), obs_(obs::resolve(fleet_obs)), cfg_(cfg),
      series_origin_(fleet->clock().now()),
      random_(Rng{cfg.seed}, fleet->scale()), txns_(fleet, &random_),
      deck_(random_.rng()) {}

Status FleetDriver::run_until(SimTime until) {
  sim::VirtualClock& clock = fleet_->clock();
  sim::Scheduler& sched = fleet_->scheduler();
  obs::MetricsRegistry& registry = obs_->registry();
  for (size_t k = 0; k < tpcc::kTxnTypes; ++k) {
    latency_hist_[k] = registry.histogram(
        std::string("client response ") +
        tpcc::to_string(static_cast<tpcc::TxnType>(k)));
  }
  while (clock.now() < until) {
    sched.run_due();
    if (clock.now() >= until) break;

    const tpcc::TxnType type = deck_.draw(random_.rng());
    const std::uint32_t w = random_.warehouse_id();
    const SimTime begin = clock.now();
    auto outcome = txns_.run(type, w);
    if (!outcome.is_ok()) {
      const ErrorCode code = outcome.code();
      if (code == ErrorCode::kDeadlock || code == ErrorCode::kLockTimeout) {
        stats_.lock_retries += 1;
        continue;
      }
      if (code == ErrorCode::kRecoveryRequired) {
        stats_.recovery_retries += 1;
        continue;
      }
      stats_.failed_attempts += 1;
      return outcome.status();
    }
    if (outcome.value().intentional_rollback) {
      stats_.intentional_rollbacks += 1;
      continue;
    }
    if (outcome.value().committed) {
      stats_.committed += 1;
      stats_.committed_by_type[static_cast<size_t>(type)] += 1;
      if (outcome.value().cross_shard) stats_.cross_shard_committed += 1;
      FleetCommitRecord record;
      record.type = type;
      record.commit_time = clock.now();
      record.response_time = clock.now() - begin;
      record.cross_shard = outcome.value().cross_shard;
      record.branches = outcome.value().branches;
      latency_hist_[static_cast<size_t>(type)]->record(record.response_time);
      if (type == tpcc::TxnType::kNewOrder) {
        const size_t bucket = static_cast<size_t>(
            (clock.now() - series_origin_) / cfg_.report_interval);
        if (series_.size() <= bucket) series_.resize(bucket + 1, 0);
        series_[bucket] += 1;
      }
      commits_.push_back(std::move(record));
    }
  }
  return Status::ok();
}

double FleetDriver::tpmc(SimTime from, SimTime to) const {
  if (to <= from) return 0;
  std::uint64_t count = 0;
  for (const FleetCommitRecord& record : commits_) {
    if (record.type == tpcc::TxnType::kNewOrder &&
        record.commit_time >= from && record.commit_time < to) {
      count += 1;
    }
  }
  return static_cast<double>(count) / to_seconds(to - from) * 60.0;
}

double FleetDriver::tpm_total(SimTime from, SimTime to) const {
  if (to <= from) return 0;
  std::uint64_t count = 0;
  for (const FleetCommitRecord& record : commits_) {
    if (record.commit_time >= from && record.commit_time < to) count += 1;
  }
  return static_cast<double>(count) / to_seconds(to - from) * 60.0;
}

std::uint64_t FleetDriver::count_lost(std::uint32_t shard, Lsn recovered_to,
                                      SimTime before) const {
  std::uint64_t lost = 0;
  for (const FleetCommitRecord& record : commits_) {
    if (record.commit_time >= before) continue;
    for (const auto& [s, lsn] : record.branches) {
      if (s == shard && lsn != 0 && lsn > recovered_to) {
        lost += 1;
        break;
      }
    }
  }
  return lost;
}

}  // namespace vdb::fleet
