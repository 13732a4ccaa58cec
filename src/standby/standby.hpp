// Stand-by database: Oracle 8i-style physical standby (the paper's §5.3).
//
// A second host holds a restored copy of the primary created from a backup
// and stays in *managed recovery*: every archived redo log the primary
// produces is shipped over the network link and replayed on arrival. On a
// primary failure the standby is activated: it finishes applying what it
// received, opens with RESETLOGS, and takes over.
//
// Managed recovery is one more replay driver over the engine's shared
// pieces: each archive is staged into a RedoApplyPlan and noted in one
// RedoAnalysis kept across archives; activation settles that analysis the
// way instance recovery settles its own (Database::settle_analysis).
//
// Two properties drive the paper's results:
//  - activation time is short and independent of the fault type and of the
//    primary's recovery configuration (Figure 6);
//  - redo in the primary's *current, unarchived* online group never reaches
//    the standby, so transactions committed there are lost on failover —
//    the smaller the redo files, the smaller that exposed window (Figure 7).
//
// Standby work (shipping writes, replay I/O, replay CPU) is accounted on
// the standby host's devices and an internal busy-until horizon, so it
// never steals time from the primary — only the archiver/network overhead
// on the primary side does, which is the performance delta in Figure 6.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "common/types.hpp"
#include "engine/database.hpp"
#include "engine/redo_analysis.hpp"
#include "engine/replay_plan.hpp"
#include "recovery/backup.hpp"
#include "sim/host.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace vdb::standby {

struct StandbyConfig {
  engine::DatabaseConfig db;
  /// Fixed switchover cost: activate command, client redirection.
  SimDuration activation_cost = 12 * kSecond;
};

struct ActivationReport {
  /// The standby is current up to here; primary commits above it are lost.
  Lsn recovered_to = 0;
  std::uint64_t archives_applied = 0;
  std::uint64_t records_applied = 0;
};

class StandbyDatabase {
 public:
  StandbyDatabase(sim::Host* standby_host, sim::Scheduler* scheduler,
                  StandbyConfig cfg, sim::NetworkLink* link);

  /// Builds the standby from a fresh primary backup: ships every datafile
  /// image across the link and mounts the standby in managed recovery.
  Status instantiate_from(engine::Database& primary,
                          recovery::BackupManager& backups);

  /// Wire this to the primary archiver's on_archived hook. Reads the
  /// archive on the primary side, ships it, and schedules its application
  /// at arrival time.
  void on_primary_archive(sim::SimFs& primary_fs, const std::string& path,
                          std::uint64_t seq, SimTime archive_done_at);

  /// Failover: drains received archives, opens with RESETLOGS. Advances the
  /// clock across the activation (this is the measured recovery time).
  Result<ActivationReport> activate();

  engine::Database& db() { return *db_; }
  Lsn applied_to() const { return applied_to_; }
  std::uint64_t archives_applied() const { return archives_applied_; }
  bool active() const { return activated_; }

 private:
  /// Applies one shipped archive (state immediately, time onto the
  /// busy-until horizon).
  void apply_archive(const std::string& standby_path);

  sim::Host* host_;
  sim::Scheduler* scheduler_;
  StandbyConfig cfg_;
  sim::NetworkLink* link_;
  std::unique_ptr<engine::Database> db_;
  /// Managed recovery's apply plan, one for every archive: a warm plan
  /// stages and drains an archive without allocating.
  std::unique_ptr<engine::RedoApplyPlan> plan_;
  Lsn applied_to_ = 0;
  std::uint64_t archives_applied_ = 0;
  std::uint64_t records_applied_ = 0;
  SimTime busy_until_ = 0;       // managed-recovery work horizon
  SimTime last_arrival_ = 0;     // latest scheduled archive arrival
  /// Transaction table of all redo applied so far, kept across archives:
  /// an archive can end mid-transaction, and activation settles it (rolls
  /// losers back, adopts PREPAREd branches in doubt, carries coordinator
  /// decisions and transaction ids over to the promoted primary).
  engine::RedoAnalysis analysis_;
  bool activated_ = false;
  bool instantiated_ = false;
};

}  // namespace vdb::standby
