// The dependability-benchmark experiment runner — the paper's core
// contribution, as an executable harness.
//
// One experiment = the paper's §4 procedure: build the environment (two
// hosts, four disks each, network link), create and populate the TPC-C
// database under a given recovery configuration, take the reference backup
// (and instantiate the stand-by when configured), run the TPC-C workload
// for 20 simulated minutes, optionally inject one operator fault at its
// trigger instant, detect the failure from the driver's (end-user's) point
// of view, wait the fixed detection time, run the fault's recovery
// procedure, and resume the workload.
//
// Measures (all end-user view, per the paper):
//  - performance: tpmC and the per-interval throughput series;
//  - recovery time: recovery-procedure start → first post-recovery commit;
//  - lost transactions: committed before the failure, commit LSN above
//    what recovery salvaged;
//  - integrity violations: TPC-C consistency conditions on the recovered
//    data.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "benchmark/recovery_configs.hpp"
#include "common/status.hpp"
#include "engine/db_config.hpp"
#include "faults/extended_faults.hpp"
#include "faults/fault_injector.hpp"
#include "obs/observability.hpp"
#include "tpcc/tpcc_random.hpp"

namespace vdb::bench {

struct ExperimentOptions {
  RecoveryConfigSpec config{"F40G3T10", 40, 3, 600};
  bool archive_mode = false;
  bool with_standby = false;
  std::optional<faults::FaultSpec> fault;
  /// Optional latent first fault (extension: the paper's two-fault
  /// experiments). Injected at `latent_inject_at`; typically invisible
  /// until `fault` needs the mechanism it broke.
  std::optional<faults::ExtendedFaultSpec> latent_fault;
  SimDuration latent_inject_at = 60 * kSecond;
  /// Optional storage fault (silent page corruption, torn page write,
  /// transient I/O errors), injected at `storage_inject_at`. Mutually
  /// exclusive with `fault`. Detection happens through verify-on-read;
  /// repair through online block media recovery (no full-file restore).
  std::optional<faults::ExtendedFaultSpec> storage_fault;
  SimDuration storage_inject_at = 300 * kSecond;
  SimDuration duration = 20 * kMinute;
  /// Fixed operator detection time before the recovery procedure starts
  /// (the paper's "typical detection time"; excluded from recovery time).
  SimDuration detection_time = 10 * kSecond;
  tpcc::TpccScale scale{};
  std::uint64_t seed = 12345;
  std::uint32_t datafiles = 2;
  std::uint32_t datafile_blocks = 512;  // initial size; files autoextend
  /// Buffer cache frames (the SGA sizing knob; ablation target).
  std::uint32_t cache_pages = 2048;
  /// Instance-restart scheme (M1 traditional … M4 mixed; see RestartMode).
  /// Affects crash-recovery experiments only: early modes open the
  /// database right after log analysis and recover pages on demand / in
  /// the background.
  engine::RestartMode restart_mode = engine::RestartMode::kM1Traditional;
  /// M2: stall on pending pages instead of rejecting with
  /// kRecoveryRequired.
  bool early_open_stall = false;
  /// Terminal emulators driving the engine concurrently. 1 = the original
  /// serial closed loop (no coordinator; byte-identical results regardless
  /// of cc_protocol); >1 routes the workload through the transaction
  /// coordinator with `cc_protocol` mediating conflicts.
  unsigned workers = 1;
  txn::CcProtocol cc_protocol = txn::CcProtocol::k2pl;
};

struct ExperimentResult {
  // Performance.
  double tpmc = 0;       // New-Order commits per minute over the run
  double tpm_total = 0;  // all commits per minute
  std::uint64_t committed = 0;
  std::uint64_t intentional_rollbacks = 0;
  std::uint64_t failed_attempts = 0;
  std::vector<std::uint32_t> series;  // New-Order commits per interval
  SimDuration series_interval = 0;

  // Engine behaviour. Checkpoint, log-switch, I/O-retry and CC counts are
  // statistics-area counters: read them from `metrics` (kCounterColumns).
  std::uint64_t redo_bytes = 0;  // charged redo volume generated

  // Recovery measures.
  bool fault_injected = false;
  bool recovered = false;           // service restored within the window
  bool recovery_complete = true;    // false = incomplete (lossy) recovery
  SimDuration recovery_time = 0;    // procedure start → first commit
  SimDuration detection_delay = 0;  // failure surfaced → procedure start
  /// Restart-mode study (per-mode Table 3 matrix): the configured mode as
  /// a string, procedure start → database open for service, and procedure
  /// start → first post-recovery commit. For M1 open_time ≈ the full
  /// redo+undo time; early modes open far sooner and pay the difference
  /// as on-demand/background page recovery afterwards.
  std::string restart_mode = "m1_traditional";
  SimDuration open_time = 0;
  SimDuration first_commit_time = 0;
  /// Transactions bounced by the M2 early-open gate and retried.
  std::uint64_t recovery_retries = 0;
  std::uint64_t lost_committed = 0;
  std::uint64_t archives_read = 0;

  // Storage-fault measures.
  std::uint64_t transient_errors = 0;    // device-level failures (DiskStats)
  std::uint64_t bad_blocks_found = 0;    // verify-scan hits
  std::uint64_t blocks_repaired = 0;     // online block media recovery

  // Integrity.
  std::uint32_t integrity_checks = 0;
  std::uint32_t integrity_violations = 0;
  /// Violation details, collected (not printed) so concurrent experiments
  /// never interleave diagnostics; the bench prints them at collection.
  std::vector<std::string> integrity_messages;

  SimTime workload_start = 0;
  SimTime fault_time = 0;

  // Concurrency control (workers > 1; zeros for the serial driver).
  std::string cc_protocol = "2pl";
  unsigned workers = 1;
  std::uint64_t cc_retries = 0;  // attempts resubmitted after CC aborts

  // Observability (the V$-style statistics area, serialized with every
  // bench JSON row). `recovery_phases` aggregates the recorded recovery
  // trace per phase, in phase order, zeros included; because spans tile
  // the trace, the non-detection entries sum to recovery_time to the
  // simulated tick.
  obs::MetricsSnapshot metrics;
  std::vector<std::pair<std::string, SimDuration>> recovery_phases;
};

/// A reported column that is a statistics-area counter: its bench JSON key
/// and the registry name it is read from (`ExperimentResult::metrics`).
struct CounterColumn {
  const char* key;
  const char* counter;
};

inline constexpr CounterColumn kCounterColumns[] = {
    {"full_checkpoints", "checkpoints full"},  // Table 3's "# CKPT"
    {"incremental_checkpoints", "checkpoints incremental"},
    {"log_switches", "log switches"},
    {"io_retries", "io retries"},  // transient errors absorbed by retry
    {"io_retry_exhausted", "io retries exhausted"},
    {"aborts", "cc txns aborted"},  // CC-protocol aborts, all causes
    {"wait_die_aborts", "cc wait_die aborts"},
    {"occ_validate_fails", "cc occ validate fails"},
    {"cc_lock_waits", "cc lock waits"},
};

class Experiment {
 public:
  explicit Experiment(ExperimentOptions opts) : opts_(std::move(opts)) {}

  /// Builds the whole environment, runs the experiment, returns measures.
  /// An error return means the *benchmark harness* failed (not the system
  /// under test) — unrecoverable faults are reported in the result.
  Result<ExperimentResult> run();

 private:
  ExperimentOptions opts_;
};

}  // namespace vdb::bench
