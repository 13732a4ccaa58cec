#include "fleet/fleet_experiment.hpp"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_driver.hpp"
#include "tpcc/consistency.hpp"

namespace vdb::fleet {

namespace {

/// Appends `from`'s rows into `into` with every name prefixed — the
/// per-shard V$SYSSTAT view inside one fleet snapshot.
void merge_prefixed(obs::MetricsSnapshot* into,
                    const obs::MetricsSnapshot& from,
                    const std::string& prefix) {
  for (const auto& [name, value] : from.counters) {
    into->counters.emplace_back(prefix + name, value);
  }
  for (const auto& [name, value] : from.gauges) {
    into->gauges.emplace_back(prefix + name, value);
  }
  for (const obs::WaitEventRow& row : from.wait_events) {
    obs::WaitEventRow copy = row;
    copy.event = prefix + row.event;
    into->wait_events.push_back(std::move(copy));
  }
  for (const obs::HistogramRow& row : from.histograms) {
    obs::HistogramRow copy = row;
    copy.name = prefix + row.name;
    into->histograms.push_back(std::move(copy));
  }
  for (const obs::TraceRow& row : from.recovery) {
    obs::TraceRow copy = row;
    copy.label = prefix + row.label;
    into->recovery.push_back(std::move(copy));
  }
}

}  // namespace

Result<FleetExperimentResult> FleetExperiment::run() {
  FleetConfig fcfg = opts_.fleet;
  fcfg.shards = opts_.shards;
  fcfg.seed = opts_.seed;
  Fleet fleet(fcfg);
  VDB_RETURN_IF_ERROR(fleet.setup());
  sim::VirtualClock& clock = fleet.clock();

  obs::Observability fleet_obs;
  tpcc::DriverConfig dcfg;
  dcfg.seed = opts_.seed;
  FleetDriver driver(&fleet, &fleet_obs, dcfg);
  FailoverOrchestrator orchestrator(&fleet, opts_.orchestrator, &fleet_obs);
  orchestrator.start();

  const SimTime start = clock.now();
  const SimTime end = start + opts_.duration;
  FleetExperimentResult result;
  result.shard_count = fleet.size();
  result.workload_start = start;
  result.lost_per_shard.assign(fleet.size(), 0);

  SimTime crash_at = 0;
  auto killer = [&](std::uint32_t shard) {
    if (crash_at == 0) crash_at = clock.now();
    (void)fleet.kill_shard(shard);
  };

  Status failure = Status::ok();
  if (!opts_.scenario.has_value()) {
    failure = driver.run_until(end);
    if (!failure.is_ok()) {
      return make_error(failure.code(),
                        "workload failed without fault: " + failure.message());
    }
  } else {
    const SimTime fault_time = start + opts_.inject_at;
    Status pre = driver.run_until(fault_time);
    if (!pre.is_ok()) {
      return make_error(pre.code(),
                        "pre-fault workload failed: " + pre.message());
    }

    switch (*opts_.scenario) {
      case faults::FleetScenario::kSingleShardCrash:
        // Crash with a cold redo window: a log switch just archived (and
        // shipped) the hot group, so promotion loses (almost) nothing —
        // the contrast case for kPromotionWithRedoLoss below.
        (void)fleet.active_db(0).redo().force_switch();
        killer(0);
        break;
      case faults::FleetScenario::kPromotionWithRedoLoss:
        // Crash mid-group: committed redo sits in the current, unarchived
        // online group the standby never received — promotion trades those
        // commits for availability (paper §5.3, shard-wise).
        killer(0);
        break;
      case faults::FleetScenario::kCoordinatorCrashMid2pc:
        // Armed at the exposed instant: all branches prepared, decision not
        // yet durable. The victim the hook receives is the coordinator of
        // whatever cross-shard transaction trips it first.
        driver.txns().arm_crash(CrashPoint::kAfterPrepares, killer);
        break;
      case faults::FleetScenario::kCascadingDoubleFailure:
        killer(0);
        fleet.scheduler().schedule_after(opts_.cascade_gap,
                                         [&] { killer(1); });
        break;
    }

    failure = driver.run_until(end);
  }

  result.fault_injected = crash_at != 0;
  if (result.fault_injected) {
    // Ride out the outage: probes miss, the retry ladder runs dry, the
    // orchestrator promotes and resolves; a cascading second death sends
    // the loop around again.
    while (clock.now() < end) {
      if (!orchestrator.await_fleet_healthy(end)) break;
      Status resume = driver.run_until(end);
      if (resume.is_ok()) break;
    }
  }
  orchestrator.stop();

  const auto& events = orchestrator.events();
  result.promotions = orchestrator.promotions();
  result.in_doubt_resolved = orchestrator.in_doubt_resolved();
  if (!events.empty()) {
    const SimTime procedure_start = events.front().declared_at;
    const SimTime restored = events.back().restored_at;
    result.detection_delay =
        procedure_start - events.front().failed_at;
    SimTime first_commit = 0;
    for (const tpcc::CommitRecord& record : driver.commits()) {
      if (record.commit_time >= restored) {
        first_commit = record.commit_time;
        break;
      }
    }
    obs::RecoveryTracer& tracer = fleet_obs.tracer();
    if (fleet.healthy() && first_commit != 0) {
      result.recovered = true;
      result.recovery_time = first_commit - procedure_start;
      if (tracer.active()) tracer.finish(first_commit);
    } else {
      result.recovered = false;
      result.recovery_time = end > procedure_start ? end - procedure_start
                                                   : 0;
      if (tracer.active()) tracer.finish(clock.now());
    }

    // Per-shard lost transactions: committed branches the promotion could
    // not salvage (redo still in the dead primary's unarchived group).
    for (const FailoverEvent& event : events) {
      const std::uint64_t lost = driver.count_lost(
          event.shard, event.recovered_to, event.failed_at);
      result.lost_per_shard[event.shard] += lost;
      result.lost_committed += lost;
    }
  } else if (result.fault_injected) {
    result.recovered = false;
    result.recovery_time = end > crash_at ? end - crash_at : 0;
  } else {
    result.recovered = true;
  }
  result.fault_time = crash_at;

  result.atomicity_violations = fleet.registry().atomicity_violations();
  result.cross_shard_started = fleet.registry().cross_shard_txns();

  result.tpmc = driver.tpmc(start, end);
  result.tpm_total = driver.tpm_total(start, end);
  result.committed = driver.stats().committed;
  result.cross_shard_committed = driver.stats().cross_shard_committed;
  result.intentional_rollbacks = driver.stats().intentional_rollbacks;
  result.failed_attempts = driver.stats().failed_attempts;
  result.series = driver.series();
  result.series_interval = driver.series_interval();

  // --- integrity -----------------------------------------------------------
  // Shard-local conditions first. Every loss is a whole transaction branch,
  // so the per-shard conditions hold even after a lossy promotion; only the
  // cross-shard history condition can go vacuous.
  if (fleet.healthy()) {
    for (std::uint32_t i = 0; i < fleet.size(); ++i) {
      tpcc::ConsistencyChecker checker(&fleet.tdb(i));
      tpcc::ConsistencyReport report;
      VDB_RETURN_IF_ERROR(checker.run_local(&report));
      result.integrity_checks += report.checks_run;
      result.integrity_violations += report.violations;
      for (const std::string& message : report.messages) {
        result.integrity_messages.push_back(
            "shard" + std::to_string(i) + ": " + message);
      }
    }

    // A committed cross-shard transaction that survived on one shard but
    // was wiped with another's unarchived redo leaves the fleet-global
    // history condition legitimately violated — that is accounted data
    // loss (paper §5.3), not an integrity defect, so the check is skipped
    // (and says so) whenever such a split exists.
    bool cross_loss = false;
    std::map<std::uint32_t, std::pair<Lsn, SimTime>> promoted;
    for (const FailoverEvent& event : events) {
      promoted[event.shard] = {event.recovered_to, event.failed_at};
    }
    for (const tpcc::CommitRecord& record : driver.commits()) {
      if (record.branches.size() < 2) continue;
      bool lost = false;
      bool kept = false;
      for (const auto& [shard, lsn] : record.branches) {
        auto it = promoted.find(shard);
        if (it != promoted.end() && lsn > it->second.first &&
            record.commit_time < it->second.second) {
          lost = true;
        } else {
          kept = true;
        }
      }
      if (lost && kept) cross_loss = true;
    }
    for (const auto& [gtxn, g] : fleet.registry().txns()) {
      bool wiped = false;
      bool committed = false;
      for (const BranchRecord& b : g.branches) {
        if (b.outcome == 'L') wiped = true;
        if (b.outcome == 'C') committed = true;
      }
      if (wiped && committed) cross_loss = true;
    }

    if (cross_loss) {
      result.history_check_skipped = true;
      result.integrity_messages.push_back(
          "W-history check skipped: cross-shard transactions wiped by "
          "accounted redo loss on promotion");
    } else {
      std::vector<tpcc::TpccDb*> shards;
      for (std::uint32_t i = 0; i < fleet.size(); ++i) {
        shards.push_back(&fleet.tdb(i));
      }
      tpcc::ConsistencyReport report;
      VDB_RETURN_IF_ERROR(
          tpcc::ConsistencyChecker::check_warehouse_history_across(shards,
                                                                   &report));
      result.integrity_checks += report.checks_run;
      result.integrity_violations += report.violations;
      for (std::string& message : report.messages) {
        result.integrity_messages.push_back("fleet " + std::move(message));
      }
    }
  }

  if (const obs::RecoveryTrace* trace = fleet_obs.tracer().latest()) {
    result.recovery_phases = trace->phase_rows();
  }
  result.metrics = fleet_obs.snapshot();
  for (std::uint32_t i = 0; i < fleet.size(); ++i) {
    merge_prefixed(&result.metrics, fleet.shard(i).obs->snapshot(),
                   "shard" + std::to_string(i) + " ");
  }
  return result;
}

}  // namespace vdb::fleet
