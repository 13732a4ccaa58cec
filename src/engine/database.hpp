// Database: the engine facade tying storage, WAL, transactions, catalog and
// background processes together — one object per instance incarnation.
//
// Lifecycle mirrors Oracle: create() builds a brand-new database; startup()
// mounts from the control file and runs instance recovery when the previous
// incarnation did not shut down cleanly; shutdown() is clean;
// shutdown_abort() is the operator fault — the instance dies on the spot,
// losing its caches and unflushed log buffer. After a crash the *next*
// incarnation is a fresh Database constructed over the same host.
//
// Redo discipline: every change is logged before it is applied, forward
// processing and recovery replay share the same apply functions, commits
// force the log, and checkpoints (full at log switches, incremental on the
// log_checkpoint_timeout timer) bound the replay window — the machinery
// whose tuning the paper benchmarks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "engine/control_file.hpp"
#include "engine/db_config.hpp"
#include "engine/redo_analysis.hpp"
#include "engine/replay_plan.hpp"
#include "engine/restart.hpp"
#include "obs/observability.hpp"
#include "sim/host.hpp"
#include "sim/scheduler.hpp"
#include "storage/storage_manager.hpp"
#include "storage/table_heap.hpp"
#include "txn/txn_manager.hpp"
#include "wal/archiver.hpp"
#include "wal/log_record.hpp"
#include "wal/redo_log.hpp"

namespace vdb::engine {

enum class InstanceState { kClosed, kOpen, kCrashed, kRecovering };

const char* to_string(InstanceState s);

/// Row-level change notification for derived state (application indexes).
/// Fired on forward DML and runtime rollback, not during recovery replay
/// (indexes are rebuilt wholesale after recovery).
struct RowChange {
  enum class Kind { kInsert, kUpdate, kDelete } kind;
  TableId table;
  RowId rid;
  std::span<const std::uint8_t> before;
  std::span<const std::uint8_t> after;
};
using RowObserver = std::function<void(const RowChange&)>;

/// Called for every live row during post-startup rebuild scans.
using RebuildRowHook =
    std::function<void(TableId, RowId, std::span<const std::uint8_t>)>;

class Database {
 public:
  Database(sim::Host* host, sim::Scheduler* scheduler, DatabaseConfig cfg);
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- lifecycle ------------------------------------------------------------

  /// Builds a brand-new database: redo groups, control files, SYS user.
  Status create();

  /// Mounts from the control file, instance-recovers if the last shutdown
  /// was not clean, rebuilds object state, and opens.
  Status startup();

  /// Clean shutdown: checkpoint, control file marked clean.
  Status shutdown();

  /// SHUTDOWN ABORT — the operator fault. Caches and the unflushed log
  /// buffer are lost; active transactions will be rolled back by instance
  /// recovery at next startup.
  Status shutdown_abort();

  InstanceState state() const { return state_; }
  bool is_open() const { return state_ == InstanceState::kOpen; }

  // --- DDL / administration ---------------------------------------------------

  Result<TablespaceId> create_tablespace(
      const std::string& name,
      const std::vector<std::pair<std::string, std::uint32_t>>& files,
      bool autoextend = true, std::uint32_t max_blocks = 0);

  Result<UserId> create_user(const std::string& name, bool is_dba);
  Status drop_user(const std::string& name);

  Result<TableId> create_table(const std::string& name,
                               const std::string& tablespace,
                               std::uint16_t slot_size, UserId owner,
                               std::vector<catalog::ColumnDef> columns = {});
  Status drop_table(const std::string& name);
  Status set_table_logging(const std::string& name, bool logging);

  Status drop_tablespace(const std::string& name, bool delete_files);
  Status alter_tablespace_offline(const std::string& name);
  Status alter_tablespace_online(const std::string& name);
  Status alter_datafile_offline(FileId id);
  /// Brings a datafile online; fails with kRecoveryRequired until media
  /// recovery has rolled it forward.
  Status alter_datafile_online(FileId id);

  /// Changes a tablespace's block quota (recovery procedure for the
  /// "allow a tablespace to run out of space" operator fault).
  Status alter_tablespace_quota(const std::string& name,
                                std::uint32_t max_blocks);

  /// Rollback-segment administration (operator-fault surface).
  Status alter_rollback_segment_offline(std::uint32_t index);
  Status alter_rollback_segment_online(std::uint32_t index);

  /// Manual full checkpoint (also used by backup procedures).
  Status checkpoint_now();

  // --- transactions & DML -----------------------------------------------------

  Result<TxnId> begin();
  /// Commits; the returned LSN is the commit record's position (0 for
  /// read-only transactions). The driver stores it: a committed transaction
  /// is lost iff recovery later stops below this LSN.
  Result<Lsn> commit(TxnId txn);
  Status rollback(TxnId txn);

  /// Rolls back transactions stranded by a failed rollback once media
  /// recovery has made their files accessible again (SMON-style dead-
  /// transaction recovery). Prepared 2PC branches are left alone: their
  /// fate belongs to the coordinator (resolve_prepared).
  Status resolve_in_doubt_transactions();

  // --- two-phase commit (fleet) -----------------------------------------------

  /// Phase one: logs kTxnPrepare and forces it to disk. From here the
  /// branch cannot be rolled back unilaterally — recovery keeps it in
  /// doubt until the coordinator's decision is known.
  Result<Lsn> prepare(TxnId txn, std::uint64_t gtxn, std::uint32_t coord_shard);

  /// Coordinator decision record (kCoordCommit / kCoordAbort), forced to
  /// disk. After a commit decision returns, the global transaction is
  /// durably committed fleet-wide regardless of crashes.
  Result<Lsn> log_coord_decision(std::uint64_t gtxn, bool commit);

  /// The recovered/remembered outcome for a global transaction, if any
  /// survives in this instance's decision table (absence = presumed abort).
  std::optional<bool> coord_decision(std::uint64_t gtxn) const;

  /// Drops a decision once every participant acknowledged it (bounds the
  /// table; checkpoints stop carrying the entry).
  void forget_decision(std::uint64_t gtxn);

  /// In-doubt branches left behind by the last recovery (PREPAREd, no end
  /// record, no local decision), keyed by transaction id.
  const std::map<std::uint64_t, RedoAnalysis::Txn>& in_doubt_branches()
      const {
    return in_doubt_;
  }

  /// Resolves one branch to the coordinator's outcome: commit appends the
  /// branch's COMMIT record (its redo is already applied); abort compensates
  /// via the saved undo. Works both for branches still live in the
  /// transaction manager and for branches adopted from recovery. Returns
  /// the commit LSN (0 for abort / already-resolved branches).
  Result<Lsn> resolve_prepared(std::uint64_t gtxn, bool commit);

  Result<RowId> insert(TxnId txn, TableId table,
                       std::span<const std::uint8_t> row);
  Status update(TxnId txn, TableId table, RowId rid,
                std::span<const std::uint8_t> row);
  Status erase(TxnId txn, TableId table, RowId rid);
  /// Reads one row into `out`, reusing its capacity: a caller that keeps
  /// its buffer reads without allocating.
  Status read(TxnId txn, TableId table, RowId rid,
              std::vector<std::uint8_t>* out);

  /// Unlocked scan (loader, consistency checker, rebuild).
  Status scan(TableId table,
              const std::function<bool(RowId, std::span<const std::uint8_t>)>&
                  fn);

  Result<TableId> table_id(const std::string& name) const;

  // --- derived-state hooks ----------------------------------------------------

  void register_observer(TableId table, RowObserver observer);
  /// `row` sees every live row of a rebuild scan; `done`, if set, runs once
  /// the scan ends (however it ends), for owners that build in bulk.
  void set_rebuild_hook(RebuildRowHook row, std::function<void()> done = {}) {
    rebuild_hook_ = std::move(row);
    rebuild_done_ = std::move(done);
  }

  /// Invoked once the catalog is available (after mount / instance
  /// recovery) and before object state is rebuilt — the place to register
  /// observers and the rebuild hook on a fresh incarnation.
  void set_on_mounted(std::function<void(Database&)> fn) {
    on_mounted_ = std::move(fn);
  }

  /// Invoked during startup() right after instance recovery and before
  /// object state is rebuilt — the window where block media recovery can
  /// repair pages that crash replay flagged corrupt (torn writes) before
  /// the rebuild scan reads them. A returned error aborts startup.
  void set_post_recovery_hook(std::function<Status(Database&)> fn) {
    post_recovery_hook_ = std::move(fn);
  }

  // --- recovery collaboration --------------------------------------------------

  //
  // Every replay driver (instance, media, block and point-in-time recovery,
  // the stand-by's managed recovery) stages page records into a plan from
  // make_replay_plan() and applies the rest through apply_record(). Those
  // that rebuild a transaction table (instance and point-in-time recovery,
  // stand-by activation) note every record in a RedoAnalysis and hand it to
  // settle_analysis() once their redo is applied.

  /// Applies one redo record with page-LSN idempotency guards. DDL records
  /// are applied idempotently; transaction bookkeeping records are no-ops
  /// (RedoAnalysis notes them).
  Status apply_record(const wal::LogRecord& rec);

  /// Builds a partitioned apply plan wired to this instance — the shared
  /// phase-two engine for every replay driver. The driver scans the redo
  /// stream serially, stages records the plan wants(), drains at serial
  /// barriers and at end of scan. `on_skip` fires for records skipped on
  /// missing/offline datafiles.
  RedoApplyPlan make_replay_plan(
      std::function<void(Lsn, const Status&)> on_skip = nullptr,
      std::function<void(std::uint64_t)> charge_apply = nullptr);

  /// Rebuilds table heaps (and fires the rebuild hook) by scanning every
  /// online datafile once.
  Status rebuild_object_state();

  Status write_control_file(bool clean);

  /// Instance recovery (crash recovery): replay from the last checkpoint's
  /// recovery position, then roll back losers. Returns the LSN up to which
  /// the database state is current.
  Result<Lsn> instance_recovery();

  /// Settles a transaction table rebuilt from applied redo: records its
  /// coordinator decisions, adopts PREPAREd branches as in-doubt, rolls the
  /// other in-flight transactions back newest first (CLRs and ABORT records
  /// land in the redo buffer; the driver flushes), and raises the next
  /// transaction id above every id noted. Returns the number of
  /// transactions rolled back.
  Result<std::uint64_t> settle_analysis(RedoAnalysis analysis);

  /// Puts the engine in / out of recovery mode (offline files accessible).
  void set_recovering(bool on);

  // --- early-open restart modes (M2-M4) ----------------------------------------

  /// The live restart coordinator, non-null only while an early-open
  /// restart (RestartMode M2-M4) still has redo pending after the database
  /// opened. V$RECOVERY_PROGRESS reports its pending/recovered counts.
  RestartCoordinator* restart_coordinator() { return restart_.get(); }

  /// Drains every pending restart-recovery run and tears the coordinator
  /// down (fetch gate uninstalled, sweeper cancelled). No-op in M1 or once
  /// the sweeper already finished. Callers that need the replay window
  /// collapsed checkpoint afterwards.
  Status complete_restart_recovery();

  /// ALTER DATABASE SET RESTART MODE: takes effect at the next instance
  /// recovery (a restart already in progress keeps its mode).
  void set_restart_mode(RestartMode mode) { cfg_.restart_mode = mode; }

  // --- concurrent execution (transaction coordinator) ---------------------------

  /// Installs a coordinator's concurrency-control delegate and switches the
  /// instance to concurrent mode: row-conflict mediation moves from the
  /// instance's own 2PL table to the delegate, mediation may block, and
  /// every transaction entry point serializes behind the coordinator
  /// latch so worker threads can share the engine (redo arena staging,
  /// group commit, buffer cache). Passing nullptr uninstalls the delegate
  /// and returns to serial mode, where the own table refuses every
  /// conflict at once (kDeadlock). The delegate must outlive its
  /// installation.
  void set_concurrency_control(txn::ConcurrencyControl* cc) {
    concurrent_ = (cc != nullptr);
    cc_ = concurrent_ ? cc : own_cc_.get();
  }
  /// The installed coordinator delegate; nullptr in serial mode.
  txn::ConcurrencyControl* concurrency_control() const {
    return concurrent_ ? cc_ : nullptr;
  }
  /// Rows locked in the table mediating now (diagnostics / tests).
  size_t locked_count() const { return cc_->locked_count(); }

  /// ALTER SYSTEM SET CC: the protocol the next coordinator run uses.
  void set_cc_protocol(txn::CcProtocol p) { cfg_.cc_protocol = p; }

  /// Mounts from an externally supplied control-file snapshot (restore from
  /// backup, stand-by instantiation) without opening.
  Status mount_from_control(const ControlFileData& data);

  /// Finishes an externally driven recovery (point-in-time restore or
  /// stand-by activation): rebuilds object state, checkpoints, and opens.
  Status open_after_external_recovery();

  // --- component access ---------------------------------------------------------

  storage::StorageManager& storage() { return *storage_; }
  wal::RedoLog& redo() { return *redo_; }
  wal::Archiver& archiver() { return *archiver_; }
  txn::TxnManager& txns() { return txns_; }
  catalog::Catalog& cat() { return catalog_; }
  sim::Host& host() { return *host_; }
  sim::Scheduler& scheduler() { return *scheduler_; }
  sim::VirtualClock& clock() { return scheduler_->clock(); }
  const DatabaseConfig& config() const { return cfg_; }
  /// The statistics area this instance reports into — cfg.obs when the
  /// harness supplied one, else a private instance owned by this Database.
  obs::Observability& obs() { return *obs_; }
  const obs::Observability& obs() const { return *obs_; }
  storage::TableHeap* heap(TableId table);

 private:
  Status ensure_open() const;
  void advance(SimDuration d) { scheduler_->clock().advance_by(d); }

  /// Coordinator latch: held for the body of every transaction entry point
  /// while a coordinator's delegate is installed; a no-op lock in serial
  /// mode. Recursive because commit -> group-commit flush -> log-switch
  /// checkpoint re-enters the engine on the same thread.
  std::unique_lock<std::recursive_mutex> coord_guard() {
    return concurrent_
               ? std::unique_lock<std::recursive_mutex>(coord_latch_)
               : std::unique_lock<std::recursive_mutex>();
  }

  /// Full checkpoint: flush log, write all dirty pages, emit checkpoint
  /// record, advance the recovery position, persist the control file.
  Status full_checkpoint();
  /// log_checkpoint_timeout tick: age-based dirty writes + checkpoint record
  /// with the min-dirty recovery position.
  Status incremental_checkpoint();
  void on_group_finalized(const wal::RedoGroup& group);
  void schedule_background_tasks();
  void cancel_background_tasks();
  void schedule_restart_sweeper();
  void restart_sweep_tick(std::uint32_t batch);

  Lsn pseudo_lsn() const;  // for NOLOGGING changes: below any future record
  /// Logs one DML change (when the table logs) and returns its LSN. The
  /// images move into the redo record and back, so `change` comes back
  /// intact without a copy.
  Lsn log_dml(TxnId txn, wal::LogRecordType type, bool logging,
              wal::DmlChange* change);
  void notify(const RowChange& change);
  Status apply_undo_op(TxnId txn, const wal::UndoOp& op, bool log_clr);
  /// Rolls back one incomplete transaction (a recovery loser or an aborted
  /// in-doubt branch): compensates the not-yet-compensated tail of `ops`
  /// (the last `clrs_done` were already undone) and writes the ABORT
  /// record.
  Status undo_incomplete_txn(TxnId txn, const std::vector<wal::UndoOp>& ops,
                             std::uint64_t clrs_done);
  Status handle_store_failures(
      const std::vector<std::pair<PageId, Status>>& failures);

  sim::Host* host_;
  sim::Scheduler* scheduler_;
  DatabaseConfig cfg_;
  InstanceState state_ = InstanceState::kClosed;

  // Declared before the components so it outlives every instrument pointer
  // they resolved (destruction runs in reverse declaration order).
  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_ = nullptr;
  /// Instrument pointers resolved once at construction (hot-path rule).
  struct EngineMetrics {
    obs::Counter* commits = nullptr;
    obs::Counter* rollbacks = nullptr;
    obs::Counter* full_checkpoints = nullptr;
    obs::Counter* incremental_checkpoints = nullptr;
    obs::Counter* instance_recoveries = nullptr;
    obs::Counter* recovery_records = nullptr;
    obs::Counter* loser_txns = nullptr;
  } metrics_;

  std::unique_ptr<wal::RedoLog> redo_;
  std::unique_ptr<wal::Archiver> archiver_;
  std::unique_ptr<storage::StorageManager> storage_;
  txn::TxnManager txns_;
  catalog::Catalog catalog_;
  std::unordered_map<std::uint32_t, std::unique_ptr<storage::TableHeap>>
      heaps_;
  std::unordered_map<std::uint32_t, std::vector<RowObserver>> observers_;
  RebuildRowHook rebuild_hook_;
  std::function<void()> rebuild_done_;
  std::function<void(Database&)> on_mounted_;
  std::function<Status(Database&)> post_recovery_hook_;
  sim::EventHandle ckpt_timer_;
  /// Early-open restart state: set by instance_recovery in modes M2-M4
  /// while staged redo is still pending at open, torn down by
  /// complete_restart_recovery() once the last run drains.
  std::unique_ptr<RestartCoordinator> restart_;
  sim::EventHandle restart_timer_;
  std::uint64_t last_archived_seq_ = 0;
  InstanceState pre_recovery_state_ = InstanceState::kClosed;
  /// 2PC state reconstructed by recovery (and maintained at runtime):
  /// in-doubt branches awaiting their coordinator's outcome (by transaction
  /// id; resolve_prepared looks one up by gtxn), and this
  /// instance's own coordinator decision table. Ordered so checkpoint
  /// encoding is deterministic.
  std::map<std::uint64_t, RedoAnalysis::Txn> in_doubt_;
  std::map<std::uint64_t, bool> coord_decisions_;
  /// Row mediation (see set_concurrency_control): `cc_` is the own 2PL
  /// table, counting nothing, or a coordinator's delegate.
  std::unique_ptr<txn::ConcurrencyControl> own_cc_;
  txn::ConcurrencyControl* cc_ = nullptr;
  bool concurrent_ = false;
  std::recursive_mutex coord_latch_;
};

}  // namespace vdb::engine
