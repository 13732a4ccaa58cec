// The fleet-level dependability experiment: the paper's §4 procedure
// generalised from one instance to a sharded deployment.
//
// One experiment = build an N-shard fleet (each shard a full paper
// testbed: primary host, standby host, network link), run the fleet-wide
// TPC-C workload, inject one fleet fault scenario, let the
// FailoverOrchestrator detect / promote / re-route / resolve in-doubt
// branches, resume, and measure:
//
//  - fleet recovery time: procedure start -> first commit after the fleet
//    is whole again (end-user view, cascading failures included);
//  - per-shard lost transactions: committed branches above what that
//    shard's promotion salvaged (paper §5.3 applied shard-wise);
//  - cross-shard atomicity violations: gtxns with a committed branch on
//    one shard and an aborted one on another — the benchmark's hard zero;
//  - integrity: shard-local TPC-C consistency conditions plus the one
//    genuinely cross-shard condition (warehouse YTD vs the fleet-wide
//    payment history), skipped with a note when accounted redo loss makes
//    it vacuous.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "faults/classification.hpp"
#include "fleet/fleet.hpp"
#include "fleet/orchestrator.hpp"
#include "obs/observability.hpp"

namespace vdb::fleet {

struct FleetExperimentOptions {
  std::uint32_t shards = 2;
  std::optional<faults::FleetScenario> scenario;
  SimDuration duration = 20 * kMinute;
  SimDuration inject_at = 5 * kMinute;
  /// Cascading scenario: delay between the first and the second kill.
  SimDuration cascade_gap = 20 * kSecond;
  std::uint64_t seed = 12345;
  /// Fleet scale (fleet.shards and fleet.seed are overridden).
  FleetConfig fleet{};
  OrchestratorConfig orchestrator{};
};

struct FleetExperimentResult {
  std::uint32_t shard_count = 0;

  // Performance (fleet-wide, end-user view).
  double tpmc = 0;
  double tpm_total = 0;
  std::uint64_t committed = 0;
  std::uint64_t cross_shard_committed = 0;
  std::uint64_t intentional_rollbacks = 0;
  std::uint64_t failed_attempts = 0;
  std::vector<std::uint32_t> series;
  SimDuration series_interval = 0;

  // Two-phase commit traffic.
  std::uint64_t cross_shard_started = 0;

  // Recovery measures.
  bool fault_injected = false;
  bool recovered = false;
  SimDuration recovery_time = 0;
  SimDuration detection_delay = 0;
  std::uint64_t promotions = 0;
  std::uint64_t in_doubt_resolved = 0;
  std::uint64_t atomicity_violations = 0;
  std::vector<std::uint64_t> lost_per_shard;
  std::uint64_t lost_committed = 0;

  // Integrity.
  std::uint32_t integrity_checks = 0;
  std::uint32_t integrity_violations = 0;
  std::vector<std::string> integrity_messages;
  /// The cross-shard history check was skipped because accounted redo
  /// loss (lost transactions / wiped branches) makes it vacuous.
  bool history_check_skipped = false;

  SimTime workload_start = 0;
  SimTime fault_time = 0;

  /// Fleet statistics area plus every shard's, counters prefixed
  /// "shardN " (the per-shard V$SYSSTAT view).
  obs::MetricsSnapshot metrics;
  std::vector<std::pair<std::string, SimDuration>> recovery_phases;
};

class FleetExperiment {
 public:
  explicit FleetExperiment(FleetExperimentOptions opts)
      : opts_(std::move(opts)) {}

  /// Error return = the harness itself failed; faults the fleet failed to
  /// recover from are reported in the result instead.
  Result<FleetExperimentResult> run();

 private:
  FleetExperimentOptions opts_;
};

}  // namespace vdb::fleet
