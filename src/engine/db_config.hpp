// Database instance configuration.
//
// The recovery-related knobs (redo file size, group count, checkpoint
// timeout, archive mode) are exactly the paper's Table 3 configuration
// space; the cost model carries the calibrated service demands that map
// simulated work to virtual time.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "storage/storage_manager.hpp"
#include "txn/coordinator.hpp"
#include "txn/txn_manager.hpp"
#include "wal/redo_log.hpp"

namespace vdb::obs {
class Observability;
}

namespace vdb::engine {

/// Instance-restart scheme after a crash (the restart-mode trade-off study
/// layered on the paper's recovery/performance balance; cf. the Zero
/// storage manager's instant-restart work and Lomet & Tzoumas' logical
/// recovery):
///  - M1 runs full redo + undo before the database opens (traditional);
///  - M2 opens right after log analysis builds the per-page apply plan and
///    the commit_lsn watermark; access to a not-yet-recovered page is
///    rejected (or stalls behind `early_open_stall`) while an aggressive
///    background sweeper drains the plan;
///  - M3 opens the same way but recovers pages lazily: a fetch of a page
///    with pending redo triggers single-page roll-forward, charged to the
///    recovery_read_stall wait event, with only a trickle sweeper behind it;
///  - M4 mixes both: on-demand priority replay plus an eager background
///    sweeper.
/// All four converge to byte-identical state; only *when* each page's redo
/// is applied differs.
enum class RestartMode : std::uint8_t {
  kM1Traditional = 0,
  kM2EarlyOpen,
  kM3OnDemand,
  kM4Mixed,
};

inline const char* to_string(RestartMode m) {
  switch (m) {
    case RestartMode::kM1Traditional: return "m1_traditional";
    case RestartMode::kM2EarlyOpen: return "m2_early_open";
    case RestartMode::kM3OnDemand: return "m3_on_demand";
    case RestartMode::kM4Mixed: return "m4_mixed";
  }
  return "?";
}

/// Accepts both the short form ("m3") and the full name ("m3_on_demand").
inline bool parse_restart_mode(const std::string& s, RestartMode* out) {
  if (s == "m1" || s == "m1_traditional") *out = RestartMode::kM1Traditional;
  else if (s == "m2" || s == "m2_early_open") *out = RestartMode::kM2EarlyOpen;
  else if (s == "m3" || s == "m3_on_demand") *out = RestartMode::kM3OnDemand;
  else if (s == "m4" || s == "m4_mixed") *out = RestartMode::kM4Mixed;
  else return false;
  return true;
}

/// Service-demand model: how much virtual time each unit of engine work
/// consumes. Calibrated so the simulated instance lands in the same
/// operating regime as the paper's testbed (tens of transactions per
/// second, ~0.3-0.4 MB/s of redo).
struct CostModel {
  SimDuration cpu_per_txn = 2 * kMillisecond;       // begin/plan/commit path
  SimDuration cpu_per_write_op = 500 * kMicrosecond;  // per DML row change
  SimDuration cpu_per_read_op = 200 * kMicrosecond;   // per row fetch
  SimDuration cpu_per_replay_record = 20 * kMicrosecond;
  /// Early-open restart modes (M2-M4) split cpu_per_replay_record into the
  /// serial log-analysis share (loser tracking, plan staging — paid before
  /// the database opens) and the page-apply share (paid when a page's run
  /// actually drains, on demand or in the background). The two must sum to
  /// cpu_per_replay_record so a fully drained M2-M4 restart has consumed
  /// exactly the CPU an M1 restart did.
  SimDuration cpu_per_analysis_record = 3 * kMicrosecond;
  SimDuration cpu_per_redo_apply = 17 * kMicrosecond;
  /// Fixed cost to locate/open/validate one archived log during recovery.
  /// This is the term that makes many small archive files recover slowly
  /// (paper Tables 4-5).
  SimDuration archive_file_overhead = 600 * kMillisecond;
  /// Instance start (process creation, SGA allocation) and stop.
  SimDuration instance_startup = 6 * kSecond;
  SimDuration instance_shutdown = 2 * kSecond;
  /// Per-restored-file fixed cost during restore from backup.
  SimDuration restore_file_overhead = 2 * kSecond;
  /// Per-block fixed cost for online block media recovery (RMAN
  /// BLOCKRECOVER: locate the block in the backup set and validate it).
  SimDuration restore_block_overhead = 200 * kMillisecond;
};

struct DatabaseConfig {
  std::string name = "tpcc";
  std::string data_dir = "/data";
  std::string backup_dir = "/backup";
  /// Control files are multiplexed like Oracle's: all are written, the
  /// first intact one is read.
  std::vector<std::string> control_files = {"/data/control_01.ctl",
                                            "/redo/control_02.ctl"};
  wal::RedoLogConfig redo;
  /// log_checkpoint_timeout: maximum age of a dirty buffer before the
  /// incremental checkpoint writes it out. 0 disables the timer.
  SimDuration checkpoint_timeout = 300 * kSecond;
  storage::StorageParams storage;
  txn::RollbackSegmentConfig rollback;
  CostModel cost;
  /// Unused: redo apply always runs inline on the replaying thread, and no
  /// code reads this field. It stays only because vdbbench/main.cpp still
  /// assigns it; it goes together with that assignment.
  unsigned replay_jobs = 0;
  /// Instance-restart scheme after a crash (see RestartMode).
  RestartMode restart_mode = RestartMode::kM1Traditional;
  /// M2 only: stall on access to a not-yet-recovered page (recover it on
  /// the spot, charged to recovery_read_stall) instead of rejecting with
  /// kRecoveryRequired.
  bool early_open_stall = false;
  /// Concurrency-control protocol used when a transaction coordinator
  /// drives this instance with worker threads (SHOW CC / ALTER SYSTEM SET
  /// CC). The serial driver ignores it.
  txn::CcProtocol cc_protocol = txn::CcProtocol::k2pl;
  /// Background sweeper cadence for M2-M4. 0 picks the mode default:
  /// M2/M4 sweep aggressively (short interval, large batches), M3 trickles.
  SimDuration restart_sweep_interval = 0;
  std::uint32_t restart_sweep_batch = 0;
  /// Statistics area (V$SYSSTAT / V$SYSTEM_EVENT / V$RECOVERY_PROGRESS).
  /// Normally supplied by the experiment harness so metrics survive
  /// crash-restart incarnation swaps; a Database constructed with nullptr
  /// owns a private one instead.
  obs::Observability* obs = nullptr;
};

}  // namespace vdb::engine
