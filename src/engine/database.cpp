#include "engine/database.hpp"

#include <algorithm>
#include <map>

namespace vdb::engine {

const char* to_string(InstanceState s) {
  switch (s) {
    case InstanceState::kClosed: return "CLOSED";
    case InstanceState::kOpen: return "OPEN";
    case InstanceState::kCrashed: return "CRASHED";
    case InstanceState::kRecovering: return "RECOVERING";
  }
  return "?";
}

Database::Database(sim::Host* host, sim::Scheduler* scheduler,
                   DatabaseConfig cfg)
    : host_(host), scheduler_(scheduler), cfg_(std::move(cfg)),
      txns_(cfg_.rollback),
      own_cc_(txn::make_concurrency_control(txn::CcProtocol::k2pl, nullptr)),
      cc_(own_cc_.get()) {
  wal::RedoLog::Callbacks callbacks;
  callbacks.on_group_finalized = [this](const wal::RedoGroup& group) {
    on_group_finalized(group);
  };
  callbacks.force_checkpoint = [this] {
    // A log switch can only reuse a group once the recovery position moves
    // past it, and the position is clamped to the restart commit_lsn while
    // early-open redo is pending — so finish that replay first.
    (void)complete_restart_recovery();
    (void)full_checkpoint();
  };
  redo_ = std::make_unique<wal::RedoLog>(&host_->fs(), cfg_.redo,
                                         std::move(callbacks));
  archiver_ = std::make_unique<wal::Archiver>(&host_->fs(), redo_.get());
  storage_ = std::make_unique<storage::StorageManager>(
      &host_->fs(), cfg_.storage,
      [this](Lsn lsn) { (void)redo_->flush_to(lsn); });

  if (cfg_.obs != nullptr) {
    obs_ = cfg_.obs;
  } else {
    owned_obs_ = std::make_unique<obs::Observability>();
    obs_ = owned_obs_.get();
  }
  obs::MetricsRegistry& reg = obs_->registry();
  metrics_.commits = reg.counter("user commits");
  metrics_.rollbacks = reg.counter("user rollbacks");
  metrics_.full_checkpoints = reg.counter("checkpoints full");
  metrics_.incremental_checkpoints = reg.counter("checkpoints incremental");
  metrics_.instance_recoveries = reg.counter("instance recoveries");
  metrics_.recovery_records = reg.counter("recovery records replayed");
  metrics_.loser_txns = reg.counter("recovery loser txns rolled back");
  const sim::VirtualClock* clock = &scheduler_->clock();
  redo_->set_observability(obs_, clock);
  archiver_->set_observability(obs_);
  storage_->set_observability(obs_, clock);
}

Database::~Database() { cancel_background_tasks(); }

// --- lifecycle ---------------------------------------------------------------

Status Database::create() {
  VDB_CHECK_MSG(state_ == InstanceState::kClosed, "create on non-closed db");
  advance(cfg_.cost.instance_startup);
  VDB_RETURN_IF_ERROR(redo_->create());
  auto sys = catalog_.create_user("SYS", /*is_dba=*/true);
  if (!sys.is_ok()) return sys.status();
  state_ = InstanceState::kOpen;
  VDB_RETURN_IF_ERROR(write_control_file(/*clean=*/false));
  schedule_background_tasks();
  return Status::ok();
}

Status Database::startup() {
  VDB_CHECK_MSG(state_ == InstanceState::kClosed, "startup on non-closed db");
  const SimTime started_at = scheduler_->now();
  advance(cfg_.cost.instance_startup);

  auto control = ControlFile::read(host_->fs(), cfg_.control_files);
  if (!control.is_ok()) return control.status();
  const bool clean = control.value().clean_shutdown;

  // Phase tracing. When the harness already opened a trace (it timestamps
  // detection from the failure instant), this startup's phases tile into
  // it; an unclean startup with no trace in flight opens its own so plain
  // crash-recovery runs still get a V$RECOVERY_PROGRESS row. Entering
  // kRestore at started_at back-attributes the instance-start cost charged
  // above to the restore phase, and closes the harness's detection span at
  // the instant the procedure actually began.
  obs::RecoveryTracer& tr = obs_->tracer();
  const bool own_trace = !clean && !tr.active();
  if (own_trace) tr.start("instance recovery", started_at);
  obs::RecoveryTracer* tracer = tr.active() ? &tr : nullptr;
  if (tracer != nullptr) tracer->enter(obs::RecoveryPhase::kRestore, started_at);

  VDB_RETURN_IF_ERROR(mount_from_control(control.value()));
  VDB_RETURN_IF_ERROR(redo_->open_existing());

  if (!clean) {
    auto recovered = instance_recovery();
    if (!recovered.is_ok()) return recovered.status();
  }

  if (tracer != nullptr) {
    tracer->enter(obs::RecoveryPhase::kOpen, scheduler_->now());
  }
  if (post_recovery_hook_) VDB_RETURN_IF_ERROR(post_recovery_hook_(*this));

  if (on_mounted_) on_mounted_(*this);
  VDB_RETURN_IF_ERROR(rebuild_object_state());

  // Early-open restart: from here on any fetch of a page with pending redo
  // rolls it forward on the spot. Installed after the rebuild so the
  // rebuild's own scan (which patches pending pages via overlay) does not
  // trigger eager recovery.
  if (restart_ != nullptr) {
    storage_->set_fetch_gate(
        [this](PageId pid) { return restart_->on_fetch(pid); });
  }

  // Re-archive finalized groups the crashed instance had not copied yet.
  if (cfg_.redo.archive_mode) {
    for (const auto& group : redo_->groups()) {
      if (group.seq == 0 || group.current) continue;
      if (host_->fs().exists(redo_->archive_path(group.seq))) {
        (void)redo_->mark_archived(group.index, scheduler_->now());
        continue;
      }
      (void)archiver_->archive_group(group);
    }
    last_archived_seq_ =
        std::max(last_archived_seq_, archiver_->last_archived_seq());
  }

  state_ = InstanceState::kOpen;
  VDB_RETURN_IF_ERROR(write_control_file(/*clean=*/false));
  schedule_background_tasks();
  if (tracer != nullptr) {
    // A self-owned trace ends at open; a harness-owned one stays active so
    // the harness can extend it to the first post-recovery commit (resume).
    if (own_trace) {
      tracer->finish(scheduler_->now());
    } else {
      tracer->exit(scheduler_->now());
    }
  }
  return Status::ok();
}

Status Database::shutdown() {
  VDB_RETURN_IF_ERROR(ensure_open());
  cancel_background_tasks();
  VDB_RETURN_IF_ERROR(complete_restart_recovery());
  VDB_RETURN_IF_ERROR(full_checkpoint());
  advance(cfg_.cost.instance_shutdown);
  state_ = InstanceState::kClosed;
  return write_control_file(/*clean=*/true);
}

Status Database::shutdown_abort() {
  if (state_ != InstanceState::kOpen) {
    return make_error(ErrorCode::kNotOpen, "instance not running");
  }
  cancel_background_tasks();
  // The instance dies instantly: unflushed redo and all cached pages are
  // gone. Nothing is written anywhere — that is the whole point.
  redo_->discard_unflushed();
  storage_->cache().discard_all();
  txns_.clear();
  // Pending restart redo dies with the instance; the recovery position was
  // clamped below it at every checkpoint, so the next incarnation's scan
  // re-stages it from the log.
  storage_->set_fetch_gate(nullptr);
  restart_.reset();
  state_ = InstanceState::kCrashed;
  return Status::ok();
}

Status Database::mount_from_control(const ControlFileData& data) {
  catalog_ = data.catalog;
  txns_.restore_next_id(data.next_txn_id);
  last_archived_seq_ = data.last_archived_seq;
  redo_->note_recovery_position(data.recovery_position);
  for (const auto& ts : data.tablespaces) storage_->restore_tablespace(ts);
  for (const auto& file : data.datafiles) storage_->restore_datafile(file);
  return Status::ok();
}

Status Database::write_control_file(bool clean) {
  ControlFileData data;
  data.db_name = cfg_.name;
  data.clean_shutdown = clean;
  data.recovery_position = redo_->recovery_position();
  data.checkpoint_lsn = redo_->recovery_position();
  data.next_txn_id = txns_.next_id();
  data.last_archived_seq = last_archived_seq_;
  data.archive_mode = cfg_.redo.archive_mode;
  data.tablespaces = storage_->tablespaces();
  data.datafiles = storage_->files();
  data.catalog = catalog_;
  return ControlFile::write(host_->fs(), cfg_.control_files, data);
}

// --- checkpoints ---------------------------------------------------------------

Status Database::full_checkpoint() {
  obs::WaitScope wait(&obs_->waits(), &scheduler_->clock(),
                      obs::WaitEvent::kCheckpointWait);
  metrics_.full_checkpoints->inc();
  VDB_RETURN_IF_ERROR(redo_->flush());
  auto result = storage_->cache().checkpoint();
  VDB_RETURN_IF_ERROR(handle_store_failures(result.failures));

  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kCheckpoint;
  rec.recovery_start_lsn = redo_->next_lsn();
  if (restart_ != nullptr && restart_->has_pending()) {
    // Early-open restart: records below commit_lsn are applied, records
    // above it may still be pending in the retained plan — a crash now must
    // re-scan from there, not from this checkpoint.
    rec.recovery_start_lsn =
        std::min(rec.recovery_start_lsn, restart_->commit_lsn());
  }
  rec.active_txns = txns_.snapshot_active();
  for (const auto& [gtxn, commit] : coord_decisions_) {
    rec.coord_decisions.push_back(wal::CoordDecision{gtxn, commit});
  }
  redo_->append(rec);
  VDB_RETURN_IF_ERROR(redo_->flush());
  redo_->note_recovery_position(rec.recovery_start_lsn);
  return write_control_file(/*clean=*/false);
}

Status Database::incremental_checkpoint() {
  obs::WaitScope wait(&obs_->waits(), &scheduler_->clock(),
                      obs::WaitEvent::kCheckpointWait);
  metrics_.incremental_checkpoints->inc();
  VDB_RETURN_IF_ERROR(redo_->flush());
  const SimTime now = scheduler_->now();
  const SimTime cutoff =
      now >= cfg_.checkpoint_timeout ? now - cfg_.checkpoint_timeout : 0;
  auto result = storage_->cache().flush_aged(cutoff);
  VDB_RETURN_IF_ERROR(handle_store_failures(result.failures));

  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kCheckpoint;
  const Lsn min_dirty = storage_->cache().min_dirty_rec_lsn();
  rec.recovery_start_lsn =
      min_dirty == kInvalidLsn ? redo_->next_lsn() : min_dirty;
  if (restart_ != nullptr && restart_->has_pending()) {
    rec.recovery_start_lsn =
        std::min(rec.recovery_start_lsn, restart_->commit_lsn());
  }
  rec.active_txns = txns_.snapshot_active();
  for (const auto& [gtxn, commit] : coord_decisions_) {
    rec.coord_decisions.push_back(wal::CoordDecision{gtxn, commit});
  }
  redo_->append(rec);
  VDB_RETURN_IF_ERROR(redo_->flush());
  redo_->note_recovery_position(rec.recovery_start_lsn);
  return write_control_file(/*clean=*/false);
}

Status Database::alter_tablespace_quota(const std::string& name,
                                        std::uint32_t max_blocks) {
  VDB_RETURN_IF_ERROR(ensure_open());
  auto ts = storage_->find_tablespace(name);
  if (!ts.is_ok()) return ts.status();
  VDB_RETURN_IF_ERROR(storage_->set_tablespace_quota(ts.value(), max_blocks));
  return write_control_file(/*clean=*/false);
}

Status Database::alter_rollback_segment_offline(std::uint32_t index) {
  VDB_RETURN_IF_ERROR(ensure_open());
  return txns_.set_segment_offline(index);
}

Status Database::alter_rollback_segment_online(std::uint32_t index) {
  VDB_RETURN_IF_ERROR(ensure_open());
  return txns_.set_segment_online(index);
}

Status Database::checkpoint_now() {
  VDB_RETURN_IF_ERROR(ensure_open());
  return full_checkpoint();
}

Status Database::handle_store_failures(
    const std::vector<std::pair<PageId, Status>>& failures) {
  for (const auto& [pid, st] : failures) {
    if (st.code() == ErrorCode::kMediaFailure ||
        st.code() == ErrorCode::kNotFound) {
      storage_->mark_missing(pid.file);
      // Their changes live in the redo stream; media recovery will restore
      // and roll the file forward. Keep the cache clean of zombie frames.
      storage_->cache().discard_file(pid.file);
    } else if (st.code() == ErrorCode::kOffline) {
      // Dirty buffers of freshly-offlined files were already discarded.
      storage_->cache().discard_file(pid.file);
    } else if (st.code() == ErrorCode::kTransientIo) {
      // Retry budget exhausted on a background write. The frame stayed
      // dirty; the next checkpoint sweep retries once the glitch passes.
    } else {
      return st;
    }
  }
  return Status::ok();
}

void Database::on_group_finalized(const wal::RedoGroup& group) {
  if (cfg_.redo.archive_mode) {
    if (archiver_->archive_group(group).is_ok()) {
      last_archived_seq_ =
          std::max(last_archived_seq_, archiver_->last_archived_seq());
    }
  }
  // Oracle checkpoints at every log switch; this is the checkpoint the
  // paper's Table 3 counts per configuration.
  (void)full_checkpoint();
}

void Database::schedule_background_tasks() {
  if (cfg_.checkpoint_timeout > 0) {
    ckpt_timer_ = scheduler_->schedule_every(cfg_.checkpoint_timeout, [this] {
      if (state_ == InstanceState::kOpen) (void)incremental_checkpoint();
    });
  }
  if (restart_ != nullptr) schedule_restart_sweeper();
}

void Database::cancel_background_tasks() {
  ckpt_timer_.cancel();
  restart_timer_.cancel();
}

void Database::schedule_restart_sweeper() {
  // Mode defaults: M2 promises its backlog drains fast (access to pending
  // pages is rejected, so the sweeper is the only way forward); M3 leans on
  // on-demand recovery and only trickles; M4 sits in between. Explicit
  // config knobs override either half.
  SimDuration interval = 0;
  std::uint32_t batch = 0;
  switch (restart_->mode()) {
    case RestartMode::kM2EarlyOpen:
      interval = 50 * kMillisecond;
      batch = 64;
      break;
    case RestartMode::kM4Mixed:
      interval = 100 * kMillisecond;
      batch = 32;
      break;
    case RestartMode::kM3OnDemand:
    default:
      interval = 1 * kSecond;
      batch = 8;
      break;
  }
  if (cfg_.restart_sweep_interval > 0) interval = cfg_.restart_sweep_interval;
  if (cfg_.restart_sweep_batch > 0) batch = cfg_.restart_sweep_batch;
  restart_timer_ = scheduler_->schedule_every(
      interval, [this, batch] { restart_sweep_tick(batch); });
}

void Database::restart_sweep_tick(std::uint32_t batch) {
  if (restart_ == nullptr || state_ != InstanceState::kOpen) return;
  if (restart_->has_pending()) (void)restart_->sweep(batch);
  if (!restart_->has_pending()) {
    // Backlog drained: tear the coordinator down and checkpoint so the
    // replay window finally collapses to the live position.
    (void)complete_restart_recovery();
    (void)full_checkpoint();
  }
}

Status Database::complete_restart_recovery() {
  if (restart_ == nullptr) return Status::ok();
  VDB_RETURN_IF_ERROR(restart_->complete());
  storage_->set_fetch_gate(nullptr);
  restart_timer_.cancel();
  restart_.reset();
  return Status::ok();
}

// --- DDL / administration -------------------------------------------------------

Result<TablespaceId> Database::create_tablespace(
    const std::string& name,
    const std::vector<std::pair<std::string, std::uint32_t>>& files,
    bool autoextend, std::uint32_t max_blocks) {
  VDB_RETURN_IF_ERROR(ensure_open());
  auto ts = storage_->create_tablespace(name, autoextend, max_blocks);
  if (!ts.is_ok()) return ts;
  for (const auto& [path, blocks] : files) {
    auto file = storage_->add_datafile(ts.value(), path, blocks);
    if (!file.is_ok()) return file.status();
  }
  // Tablespace layout changes live in the control file, not the redo
  // stream; a sensible administrator backs up afterwards.
  VDB_RETURN_IF_ERROR(write_control_file(/*clean=*/false));
  return ts;
}

Result<UserId> Database::create_user(const std::string& name, bool is_dba) {
  VDB_RETURN_IF_ERROR(ensure_open());
  auto user = catalog_.create_user(name, is_dba);
  if (!user.is_ok()) return user;
  VDB_RETURN_IF_ERROR(write_control_file(/*clean=*/false));
  return user;
}

Status Database::drop_user(const std::string& name) {
  VDB_RETURN_IF_ERROR(ensure_open());
  VDB_RETURN_IF_ERROR(catalog_.drop_user(name));
  return write_control_file(/*clean=*/false);
}

Result<TableId> Database::create_table(const std::string& name,
                                       const std::string& tablespace,
                                       std::uint16_t slot_size, UserId owner,
                                       std::vector<catalog::ColumnDef> columns) {
  VDB_RETURN_IF_ERROR(ensure_open());
  auto ts = storage_->find_tablespace(tablespace);
  if (!ts.is_ok()) return ts.status();
  auto table =
      catalog_.create_table(name, ts.value(), slot_size, owner,
                            std::move(columns));
  if (!table.is_ok()) return table;

  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kCreateTable;
  rec.name = name;
  rec.table_id = table.value();
  rec.tablespace_id = ts.value();
  rec.owner_user = owner;
  rec.ddl_slot_size = slot_size;
  redo_->append(rec);
  VDB_RETURN_IF_ERROR(redo_->flush());

  heaps_[table.value().value] = std::make_unique<storage::TableHeap>(
      storage_.get(), table.value(), ts.value(), slot_size);
  return table;
}

Status Database::drop_table(const std::string& name) {
  VDB_RETURN_IF_ERROR(ensure_open());
  auto def = catalog_.find_table(name);
  if (!def.is_ok()) return def.status();
  const TableId id = def.value()->id;

  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kDropTable;
  rec.name = name;
  rec.table_id = id;
  redo_->append(rec);
  VDB_RETURN_IF_ERROR(redo_->flush());

  heaps_.erase(id.value);
  observers_.erase(id.value);
  return catalog_.drop_table(id);
}

Status Database::set_table_logging(const std::string& name, bool logging) {
  VDB_RETURN_IF_ERROR(ensure_open());
  auto def = catalog_.find_table(name);
  if (!def.is_ok()) return def.status();
  return catalog_.set_logging(def.value()->id, logging);
}

Status Database::drop_tablespace(const std::string& name, bool delete_files) {
  VDB_RETURN_IF_ERROR(ensure_open());
  auto ts = storage_->find_tablespace(name);
  if (!ts.is_ok()) return ts.status();

  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kDropTablespace;
  rec.name = name;
  rec.tablespace_id = ts.value();
  redo_->append(rec);
  VDB_RETURN_IF_ERROR(redo_->flush());

  for (const catalog::TableDef* table : catalog_.tables_in(ts.value())) {
    heaps_.erase(table->id.value);
    observers_.erase(table->id.value);
    (void)catalog_.drop_table(table->id);
  }
  VDB_RETURN_IF_ERROR(storage_->drop_tablespace(ts.value(), delete_files));
  return write_control_file(/*clean=*/false);
}

Status Database::alter_tablespace_offline(const std::string& name) {
  VDB_RETURN_IF_ERROR(ensure_open());
  auto ts = storage_->find_tablespace(name);
  if (!ts.is_ok()) return ts.status();
  auto info = storage_->tablespace_info(ts.value());
  if (!info.is_ok()) return info.status();
  // OFFLINE NORMAL: checkpoint the tablespace's files first so that no
  // recovery is needed to bring it back — the reason the paper measures
  // ~1 second for this fault's recovery.
  for (FileId fid : info.value()->files) {
    auto result = storage_->cache().flush_file(fid);
    VDB_RETURN_IF_ERROR(handle_store_failures(result.failures));
    VDB_RETURN_IF_ERROR(storage_->set_datafile_offline(
        fid, redo_->recovery_position(), /*clean=*/true));
  }
  VDB_RETURN_IF_ERROR(
      storage_->set_tablespace_offline(ts.value(), redo_->recovery_position()));
  return write_control_file(/*clean=*/false);
}

Status Database::alter_tablespace_online(const std::string& name) {
  VDB_RETURN_IF_ERROR(ensure_open());
  auto ts = storage_->find_tablespace(name);
  if (!ts.is_ok()) return ts.status();
  VDB_RETURN_IF_ERROR(storage_->set_tablespace_online(ts.value()));
  return write_control_file(/*clean=*/false);
}

Status Database::alter_datafile_offline(FileId id) {
  VDB_RETURN_IF_ERROR(ensure_open());
  // OFFLINE IMMEDIATE: dirty buffers lost, redo needed to come back.
  VDB_RETURN_IF_ERROR(
      storage_->set_datafile_offline(id, redo_->recovery_position()));
  return write_control_file(/*clean=*/false);
}

Status Database::alter_datafile_online(FileId id) {
  VDB_RETURN_IF_ERROR(ensure_open());
  VDB_RETURN_IF_ERROR(storage_->set_datafile_online(id));
  return write_control_file(/*clean=*/false);
}

// --- transactions & DML -----------------------------------------------------------

Result<TxnId> Database::begin() {
  // Under a coordinator the latch also serializes TxnId allocation, which
  // doubles as the wait-die age: ids grow monotonically, smaller = older.
  auto guard = coord_guard();
  VDB_RETURN_IF_ERROR(ensure_open());
  advance(cfg_.cost.cpu_per_txn);
  return txns_.begin();
}

Result<Lsn> Database::commit(TxnId txn) {
  auto guard = coord_guard();
  VDB_RETURN_IF_ERROR(ensure_open());
  auto t = txns_.get(txn);
  if (!t.is_ok()) return t.status();

  // OCC commit-time validation, under the latch so no other commit's
  // publish can interleave: a failure surfaces as an error the worker
  // answers with rollback (undoing any in-place writes).
  VDB_RETURN_IF_ERROR(cc_->validate(txn));

  if (t.value()->undo.empty()) {
    // Read-only: nothing to make durable.
    VDB_RETURN_IF_ERROR(txns_.mark_committed(txn, 0));
    cc_->end(txn, /*committed=*/true);
    metrics_.commits->inc();
    return Lsn{0};
  }

  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kCommit;
  rec.txn = txn;
  const Lsn lsn = redo_->append(rec);
  // From here the transaction's fate is sealed in the log: checkpoints
  // taken during the flush below (log-switch checkpoints) must not snapshot
  // it as active.
  VDB_RETURN_IF_ERROR(txns_.mark_end_logged(txn));
  // Group commit: piggybacks on an already-durable or in-flight flush when
  // possible; otherwise the LGWR batch carries every co-buffered commit.
  {
    obs::WaitScope sync(&obs_->waits(), &scheduler_->clock(),
                        obs::WaitEvent::kLogFileSync);
    VDB_RETURN_IF_ERROR(redo_->commit_flush(lsn));
  }

  VDB_RETURN_IF_ERROR(txns_.mark_committed(txn, lsn));
  // Publish (bump the committed write set's versions for OCC validators)
  // and release CC locks before the latch drops: a transaction that
  // mediates one of these rows next must already see the new versions.
  cc_->publish(txn);
  cc_->end(txn, /*committed=*/true);
  metrics_.commits->inc();
  return lsn;
}

Status Database::rollback(TxnId txn) {
  auto guard = coord_guard();
  VDB_RETURN_IF_ERROR(ensure_open());
  auto t = txns_.get(txn);
  if (!t.is_ok()) return t.status();

  // Compensate in strict reverse order, logging CLRs so that replay after a
  // crash reproduces the rollback. A failure (media fault mid-rollback)
  // leaves the transaction in-doubt with `compensated` recording progress;
  // resolve_in_doubt_transactions() retries after the file is recovered.
  txn::Transaction* tr = t.value();
  while (tr->compensated < tr->undo.size()) {
    const wal::UndoOp& op = tr->undo[tr->undo.size() - 1 - tr->compensated];
    VDB_RETURN_IF_ERROR(apply_undo_op(txn, op, /*log_clr=*/true));
    tr->compensated += 1;
    advance(cfg_.cost.cpu_per_write_op);
  }
  if (!tr->undo.empty()) {
    wal::LogRecord rec;
    rec.type = wal::LogRecordType::kAbort;
    rec.txn = txn;
    redo_->append(rec);
    VDB_RETURN_IF_ERROR(txns_.mark_end_logged(txn));
  }
  VDB_RETURN_IF_ERROR(txns_.mark_aborted(txn));
  cc_->end(txn, /*committed=*/false);
  metrics_.rollbacks->inc();
  return Status::ok();
}

Status Database::resolve_in_doubt_transactions() {
  // Transactions stranded by a failed rollback (media fault mid-undo) are
  // finished once their files are readable again — Oracle's SMON dead-
  // transaction recovery. PREPAREd 2PC branches stay: only their
  // coordinator may decide them.
  std::vector<TxnId> in_doubt;
  in_doubt.reserve(txns_.active_count());
  for (const auto& snap : txns_.snapshot_active()) {
    if (snap.prepared) continue;
    in_doubt.push_back(snap.txn);
  }
  for (TxnId txn : in_doubt) {
    VDB_RETURN_IF_ERROR(rollback(txn));
  }
  return Status::ok();
}

Result<Lsn> Database::prepare(TxnId txn, std::uint64_t gtxn,
                              std::uint32_t coord_shard) {
  VDB_RETURN_IF_ERROR(ensure_open());
  auto t = txns_.get(txn);
  if (!t.is_ok()) return t.status();

  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kTxnPrepare;
  rec.txn = txn;
  rec.gtxn = gtxn;
  rec.coord_shard = coord_shard;
  const Lsn lsn = redo_->append(rec);
  VDB_RETURN_IF_ERROR(txns_.mark_prepared(txn, gtxn, coord_shard, lsn));
  {
    obs::WaitScope sync(&obs_->waits(), &scheduler_->clock(),
                        obs::WaitEvent::kLogFileSync);
    VDB_RETURN_IF_ERROR(redo_->flush_to(lsn));
  }
  return lsn;
}

Result<Lsn> Database::log_coord_decision(std::uint64_t gtxn, bool commit) {
  VDB_RETURN_IF_ERROR(ensure_open());
  wal::LogRecord rec;
  rec.type = commit ? wal::LogRecordType::kCoordCommit
                    : wal::LogRecordType::kCoordAbort;
  rec.gtxn = gtxn;
  const Lsn lsn = redo_->append(rec);
  coord_decisions_[gtxn] = commit;
  {
    obs::WaitScope sync(&obs_->waits(), &scheduler_->clock(),
                        obs::WaitEvent::kLogFileSync);
    VDB_RETURN_IF_ERROR(redo_->flush_to(lsn));
  }
  return lsn;
}

std::optional<bool> Database::coord_decision(std::uint64_t gtxn) const {
  auto it = coord_decisions_.find(gtxn);
  if (it == coord_decisions_.end()) return std::nullopt;
  return it->second;
}

void Database::forget_decision(std::uint64_t gtxn) {
  coord_decisions_.erase(gtxn);
}

Result<Lsn> Database::resolve_prepared(std::uint64_t gtxn, bool commit) {
  // Branch still live in the transaction manager (coordinator and this
  // participant are both up): finish it like any runtime transaction.
  for (const auto& snap : txns_.snapshot_active()) {
    if (!snap.prepared || snap.gtxn != gtxn) continue;
    if (commit) return this->commit(snap.txn);
    // A prepared branch may be rolled back only on the coordinator's say-so,
    // which is exactly this call.
    auto t = txns_.get(snap.txn);
    if (t.is_ok()) t.value()->prepared = false;
    VDB_RETURN_IF_ERROR(rollback(snap.txn));
    return Lsn{0};
  }

  // Branch adopted from recovery: its redo is already applied; commit means
  // sealing the fate with a COMMIT record, abort means compensating the
  // saved undo images.
  auto it = std::find_if(in_doubt_.begin(), in_doubt_.end(),
                         [&](const auto& entry) {
                           return entry.second.gtxn == gtxn;
                         });
  if (it == in_doubt_.end()) return Lsn{0};  // already resolved elsewhere
  const TxnId txn{it->first};
  const RedoAnalysis::Txn branch = std::move(it->second);
  in_doubt_.erase(it);
  if (commit) {
    wal::LogRecord rec;
    rec.type = wal::LogRecordType::kCommit;
    rec.txn = txn;
    const Lsn lsn = redo_->append(rec);
    obs::WaitScope sync(&obs_->waits(), &scheduler_->clock(),
                        obs::WaitEvent::kLogFileSync);
    VDB_RETURN_IF_ERROR(redo_->commit_flush(lsn));
    metrics_.commits->inc();
    return lsn;
  }
  VDB_RETURN_IF_ERROR(undo_incomplete_txn(txn, branch.ops, branch.clrs));
  VDB_RETURN_IF_ERROR(redo_->flush());
  metrics_.rollbacks->inc();
  return Lsn{0};
}

Lsn Database::pseudo_lsn() const {
  // NOLOGGING changes stamp pages with an LSN strictly below any future
  // record so replay guards stay correct.
  const Lsn next = redo_->next_lsn();
  return next == 0 ? 0 : next - 1;
}

Lsn Database::log_dml(TxnId txn, wal::LogRecordType type, bool logging,
                      wal::DmlChange* change) {
  if (!logging) return pseudo_lsn();
  wal::LogRecord rec;
  rec.type = type;
  rec.txn = txn;
  rec.dml = std::move(*change);
  const Lsn lsn = redo_->append(rec);
  *change = std::move(rec.dml);
  return lsn;
}

storage::TableHeap* Database::heap(TableId table) {
  auto it = heaps_.find(table.value);
  return it == heaps_.end() ? nullptr : it->second.get();
}

Result<RowId> Database::insert(TxnId txn, TableId table,
                               std::span<const std::uint8_t> row) {
  auto guard = coord_guard();
  VDB_RETURN_IF_ERROR(ensure_open());
  auto def = catalog_.find_table(table);
  if (!def.is_ok()) return def.status();
  if (row.size() > def.value()->slot_size) {
    return make_error(ErrorCode::kInvalidArgument, "row exceeds slot size");
  }
  storage::TableHeap* h = heap(table);
  if (h == nullptr) {
    return make_error(ErrorCode::kInternal, "missing heap for table");
  }
  const bool logging = def.value()->logging;
  advance(cfg_.cost.cpu_per_write_op);

  auto chosen = h->choose_insert_slot();
  if (!chosen.is_ok()) return chosen.status();
  storage::TableHeap::InsertSlot& slot = chosen.value();
  const RowId rid = slot.rid;

  // Early-open restart gate, checked before anything is logged or recorded
  // for undo: a rejected insert must leave no trace.
  if (restart_ != nullptr) {
    VDB_RETURN_IF_ERROR(restart_->check_access(rid.page));
  }

  if (slot.needs_format) {
    Lsn lsn;
    if (logging) {
      wal::LogRecord fmt;
      fmt.type = wal::LogRecordType::kFormatPage;
      fmt.txn = txn;
      fmt.page = rid.page;
      fmt.format_owner = table;
      fmt.slot_size = def.value()->slot_size;
      lsn = redo_->append(fmt);
    } else {
      lsn = pseudo_lsn();
    }
    VDB_RETURN_IF_ERROR(storage_->apply_format(rid.page, table,
                                               def.value()->slot_size, lsn));
    h->adopt_page(rid.page);
  }

  // The rid only exists now that the slot is chosen, so this mediation
  // runs under the latch — a would-wait must die (may_wait=false) to keep
  // the latch from deadlocking the round. Fresh slots are all but
  // uncontended, so the conversion is theoretical.
  VDB_RETURN_IF_ERROR(cc_->mediate(txn, txn::LockTarget::for_row(table, rid),
                                   txn::AccessMode::kWrite,
                                   /*may_wait=*/false));

  wal::DmlChange change;
  change.table = table;
  change.rid = rid;
  change.after.assign(row.begin(), row.end());
  const Lsn lsn = log_dml(txn, wal::LogRecordType::kInsert, logging, &change);
  auto undo = txns_.record_op(
      txn, wal::UndoOp{lsn, wal::LogRecordType::kInsert, std::move(change)});
  if (!undo.is_ok()) return undo.status();
  VDB_RETURN_IF_ERROR(h->apply_insert(rid, row, lsn, std::move(slot.page)));
  notify(RowChange{RowChange::Kind::kInsert, table, rid, {}, row});
  return rid;
}

Status Database::update(TxnId txn, TableId table, RowId rid,
                        std::span<const std::uint8_t> row) {
  // Mediate *before* taking the latch: a blocked waiter must not hold the
  // latch its lock holder needs in order to commit and release. Only a
  // coordinator's workers may wait; the serial thread would wait on itself.
  VDB_RETURN_IF_ERROR(cc_->mediate(txn, txn::LockTarget::for_row(table, rid),
                                   txn::AccessMode::kWrite, concurrent_));
  auto guard = coord_guard();
  VDB_RETURN_IF_ERROR(ensure_open());
  auto def = catalog_.find_table(table);
  if (!def.is_ok()) return def.status();
  if (row.size() > def.value()->slot_size) {
    return make_error(ErrorCode::kInvalidArgument, "row exceeds slot size");
  }
  storage::TableHeap* h = heap(table);
  if (h == nullptr) {
    return make_error(ErrorCode::kInternal, "missing heap for table");
  }
  advance(cfg_.cost.cpu_per_write_op);

  // Early-open restart gate: reject (M2) or roll the page forward before
  // any log record or undo entry exists for this operation.
  if (restart_ != nullptr) {
    VDB_RETURN_IF_ERROR(restart_->check_access(rid.page));
  }

  wal::DmlChange change;
  change.table = table;
  change.rid = rid;
  VDB_RETURN_IF_ERROR(h->read(rid, &change.before));
  change.after.assign(row.begin(), row.end());
  const Lsn lsn = log_dml(txn, wal::LogRecordType::kUpdate,
                          def.value()->logging, &change);
  VDB_ASSIGN_OR_RETURN(
      const wal::UndoOp* undo,
      txns_.record_op(txn, wal::UndoOp{lsn, wal::LogRecordType::kUpdate,
                                       std::move(change)}));
  VDB_RETURN_IF_ERROR(h->apply_update(rid, row, lsn));
  notify(RowChange{RowChange::Kind::kUpdate, table, rid, undo->change.before,
                   row});
  return Status::ok();
}

Status Database::erase(TxnId txn, TableId table, RowId rid) {
  VDB_RETURN_IF_ERROR(cc_->mediate(txn, txn::LockTarget::for_row(table, rid),
                                   txn::AccessMode::kWrite, concurrent_));
  auto guard = coord_guard();
  VDB_RETURN_IF_ERROR(ensure_open());
  auto def = catalog_.find_table(table);
  if (!def.is_ok()) return def.status();
  storage::TableHeap* h = heap(table);
  if (h == nullptr) {
    return make_error(ErrorCode::kInternal, "missing heap for table");
  }
  advance(cfg_.cost.cpu_per_write_op);

  if (restart_ != nullptr) {
    VDB_RETURN_IF_ERROR(restart_->check_access(rid.page));
  }

  wal::DmlChange change;
  change.table = table;
  change.rid = rid;
  VDB_RETURN_IF_ERROR(h->read(rid, &change.before));
  const Lsn lsn = log_dml(txn, wal::LogRecordType::kDelete,
                          def.value()->logging, &change);
  VDB_ASSIGN_OR_RETURN(
      const wal::UndoOp* undo,
      txns_.record_op(txn, wal::UndoOp{lsn, wal::LogRecordType::kDelete,
                                       std::move(change)}));
  VDB_RETURN_IF_ERROR(h->apply_delete(rid, lsn));
  notify(RowChange{RowChange::Kind::kDelete, table, rid, undo->change.before,
                   {}});
  return Status::ok();
}

Status Database::read(TxnId txn, TableId table, RowId rid,
                      std::vector<std::uint8_t>* out) {
  VDB_RETURN_IF_ERROR(cc_->mediate(txn, txn::LockTarget::for_row(table, rid),
                                   txn::AccessMode::kRead, concurrent_));
  auto guard = coord_guard();
  VDB_RETURN_IF_ERROR(ensure_open());
  storage::TableHeap* h = heap(table);
  if (h == nullptr) {
    return make_error(ErrorCode::kInternal, "missing heap for table");
  }
  advance(cfg_.cost.cpu_per_read_op);
  if (restart_ != nullptr) {
    VDB_RETURN_IF_ERROR(restart_->check_access(rid.page));
  }
  return h->read(rid, out);
}

Status Database::scan(
    TableId table,
    const std::function<bool(RowId, std::span<const std::uint8_t>)>& fn) {
  storage::TableHeap* h = heap(table);
  if (h == nullptr) {
    return make_error(ErrorCode::kInternal, "missing heap for table");
  }
  return h->scan(fn);
}

Result<TableId> Database::table_id(const std::string& name) const {
  auto def = catalog_.find_table(name);
  if (!def.is_ok()) return def.status();
  return def.value()->id;
}

void Database::register_observer(TableId table, RowObserver observer) {
  observers_[table.value].push_back(std::move(observer));
}

void Database::notify(const RowChange& change) {
  if (state_ != InstanceState::kOpen) return;
  auto it = observers_.find(change.table.value);
  if (it == observers_.end()) return;
  for (const auto& observer : it->second) observer(change);
}

Status Database::apply_undo_op(TxnId txn, const wal::UndoOp& op,
                               bool log_clr) {
  // NOLOGGING tables get no compensation records either: their forward
  // changes never reached the redo stream.
  if (log_clr) {
    auto def = catalog_.find_table(op.change.table);
    if (def.is_ok() && !def.value()->logging) log_clr = false;
  }
  // Build the compensating record.
  wal::LogRecord clr;
  clr.txn = txn;
  clr.is_clr = true;
  clr.dml.table = op.change.table;
  clr.dml.rid = op.change.rid;
  switch (op.op) {
    case wal::LogRecordType::kInsert:
      clr.type = wal::LogRecordType::kDelete;
      clr.dml.before = op.change.after;
      break;
    case wal::LogRecordType::kUpdate:
      clr.type = wal::LogRecordType::kUpdate;
      clr.dml.before = op.change.after;
      clr.dml.after = op.change.before;
      break;
    case wal::LogRecordType::kDelete:
      clr.type = wal::LogRecordType::kInsert;
      clr.dml.after = op.change.before;
      break;
    default:
      return make_error(ErrorCode::kInternal, "bad undo op type");
  }
  // Probe the target page before logging: the compensation record must not
  // enter the redo stream unless it can actually be applied now (a CLR for
  // an unapplied change would corrupt replay).
  {
    auto probe = storage_->fetch(clr.dml.rid.page);
    if (!probe.is_ok()) return probe.status();
  }

  Lsn lsn = pseudo_lsn();
  if (log_clr) lsn = redo_->append(clr);

  if (state_ == InstanceState::kOpen) {
    // Runtime rollback: go through the heap so free-slot bookkeeping and
    // application observers stay consistent.
    storage::TableHeap* h = heap(clr.dml.table);
    if (h == nullptr) {
      return make_error(ErrorCode::kInternal, "missing heap in rollback");
    }
    switch (clr.type) {
      case wal::LogRecordType::kDelete:
        VDB_RETURN_IF_ERROR(h->apply_delete(clr.dml.rid, lsn));
        notify(RowChange{RowChange::Kind::kDelete, clr.dml.table, clr.dml.rid,
                         clr.dml.before, {}});
        break;
      case wal::LogRecordType::kUpdate:
        VDB_RETURN_IF_ERROR(
            h->apply_update(clr.dml.rid, clr.dml.after, lsn));
        notify(RowChange{RowChange::Kind::kUpdate, clr.dml.table, clr.dml.rid,
                         clr.dml.before, clr.dml.after});
        break;
      case wal::LogRecordType::kInsert:
        VDB_RETURN_IF_ERROR(
            h->apply_insert(clr.dml.rid, clr.dml.after, lsn));
        notify(RowChange{RowChange::Kind::kInsert, clr.dml.table, clr.dml.rid,
                         {}, clr.dml.after});
        break;
      default:
        break;
    }
    return Status::ok();
  }
  // Recovery-time undo: raw page application.
  clr.lsn = lsn;
  return apply_record(clr);
}

// --- recovery ----------------------------------------------------------------------

void Database::set_recovering(bool on) {
  storage_->set_recovery_mode(on);
  if (on) {
    if (state_ != InstanceState::kRecovering) pre_recovery_state_ = state_;
    state_ = InstanceState::kRecovering;
  } else if (state_ == InstanceState::kRecovering) {
    // An open instance resumes service (online media recovery); anything
    // else lands closed and is opened explicitly by its driver.
    state_ = pre_recovery_state_ == InstanceState::kOpen
                 ? InstanceState::kOpen
                 : InstanceState::kClosed;
  }
}

Status Database::apply_record(const wal::LogRecord& rec) {
  using wal::LogRecordType;
  switch (rec.type) {
    case LogRecordType::kFormatPage: {
      auto ref = storage_->fetch(rec.page);
      if (ref.is_ok() && ref.value()->formatted() &&
          ref.value()->lsn() >= rec.lsn) {
        // Already formatted at or past this point; still make sure the
        // allocation high-water mark covers it.
        storage_->set_high_water(rec.page.file, rec.page.block + 1);
        return Status::ok();
      }
      // An unreadable page (e.g. file shorter than the target block) is
      // extended and formatted by apply_format.
      return storage_->apply_format(rec.page, rec.format_owner, rec.slot_size,
                                    rec.lsn);
    }
    case LogRecordType::kInsert:
    case LogRecordType::kUpdate: {
      auto ref = storage_->fetch(rec.dml.rid.page);
      if (!ref.is_ok()) return ref.status();
      if (!ref.value()->formatted()) {
        // The page was formatted while its table ran NOLOGGING, so no
        // FORMAT record exists. Format it implicitly; rows the unlogged
        // phase put here are gone — the documented NOLOGGING trade-off.
        auto def = catalog_.find_table(rec.dml.table);
        if (!def.is_ok()) return def.status();
        VDB_RETURN_IF_ERROR(storage_->apply_format(
            rec.dml.rid.page, rec.dml.table, def.value()->slot_size, 0));
        ref = storage_->fetch(rec.dml.rid.page);
        if (!ref.is_ok()) return ref.status();
      }
      if (rec.lsn <= ref.value()->lsn()) return Status::ok();  // idempotent
      ref.value()->set_slot(rec.dml.rid.slot, rec.dml.after);
      ref.value()->set_lsn(rec.lsn);
      storage_->mark_dirty(rec.dml.rid.page);
      return Status::ok();
    }
    case LogRecordType::kDelete: {
      auto ref = storage_->fetch(rec.dml.rid.page);
      if (!ref.is_ok()) return ref.status();
      if (rec.lsn <= ref.value()->lsn()) return Status::ok();
      ref.value()->clear_slot(rec.dml.rid.slot);
      ref.value()->set_lsn(rec.lsn);
      storage_->mark_dirty(rec.dml.rid.page);
      return Status::ok();
    }
    case LogRecordType::kCreateTable: {
      Status st = catalog_.create_table_with_id(
          rec.table_id, rec.name, rec.tablespace_id, rec.ddl_slot_size,
          rec.owner_user);
      if (!st.is_ok() && st.code() != ErrorCode::kAlreadyExists) return st;
      return Status::ok();
    }
    case LogRecordType::kDropTable: {
      Status st = catalog_.drop_table(rec.table_id);
      if (!st.is_ok() && st.code() != ErrorCode::kNotFound) return st;
      return Status::ok();
    }
    case LogRecordType::kDropTablespace: {
      for (const catalog::TableDef* table :
           catalog_.tables_in(rec.tablespace_id)) {
        (void)catalog_.drop_table(table->id);
      }
      auto info = storage_->tablespace_info(rec.tablespace_id);
      if (info.is_ok()) {
        (void)storage_->drop_tablespace(rec.tablespace_id,
                                        /*delete_files=*/false);
      }
      return Status::ok();
    }
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
    case LogRecordType::kCheckpoint:
    case LogRecordType::kTxnPrepare:
    case LogRecordType::kCoordCommit:
    case LogRecordType::kCoordAbort:
      return Status::ok();  // bookkeeping handled by the replay driver
  }
  return make_error(ErrorCode::kInternal, "unhandled record type");
}

RedoApplyPlan Database::make_replay_plan(
    std::function<void(std::uint64_t)> charge_apply) {
  RedoApplyPlan::Hooks hooks;
  hooks.storage = storage_.get();
  hooks.serial_apply = [this](const wal::LogRecord& rec) {
    return apply_record(rec);
  };
  hooks.obs = obs_;
  hooks.charge_apply = std::move(charge_apply);
  return RedoApplyPlan(std::move(hooks));
}

Result<Lsn> Database::instance_recovery() {
  set_recovering(true);
  metrics_.instance_recoveries->inc();
  obs::RecoveryTracer* tracer =
      obs_->tracer().active() ? &obs_->tracer() : nullptr;
  if (tracer != nullptr) {
    tracer->enter(obs::RecoveryPhase::kRedo, scheduler_->now());
  }

  RedoAnalysis analysis;
  const Lsn start = redo_->recovery_position();
  Lsn recovered_to = start;
  std::uint64_t records = 0;
  Status inner = Status::ok();

  // The scan charges each record and feeds it to the plan, which notes it,
  // stages page records and drains at DDL barriers; any error it returns
  // stops the recovery.
  //
  // Early-open modes (M2-M4) split the per-record cost: the scan charges
  // only the analysis share, and the plan charges the apply share when a
  // run actually drains — at a DDL barrier, on demand after open, or from
  // the background sweeper. A fully drained early restart has consumed
  // exactly the CPU an M1 restart did.
  const bool early = cfg_.restart_mode != RestartMode::kM1Traditional;
  std::function<void(std::uint64_t)> charge_apply;
  if (early) {
    charge_apply = [this](std::uint64_t n) {
      advance(cfg_.cost.cpu_per_redo_apply * n);
    };
  }
  auto plan_owner =
      std::make_unique<RedoApplyPlan>(make_replay_plan(std::move(charge_apply)));
  RedoApplyPlan& plan = *plan_owner;

  Status read_st = redo_->read_online(start, [&](const wal::LogRecord& rec) {
    records += 1;
    advance(early ? cfg_.cost.cpu_per_analysis_record
                  : cfg_.cost.cpu_per_replay_record);
    recovered_to = std::max(recovered_to, rec.lsn);
    inner = plan.feed(rec, RedoApplyPlan::Barriers::kDdl, &analysis).status();
    return inner.is_ok();
  });
  if (read_st.is_ok() && inner.is_ok() && !early) {
    // M1: the whole backlog drains before the database opens. Early modes
    // keep the plan staged — it moves into the restart coordinator below.
    auto stats = plan.drain();
    if (!stats.is_ok()) inner = stats.status();
  }
  if (!read_st.is_ok()) {
    set_recovering(false);
    return read_st;
  }
  if (!inner.is_ok()) {
    set_recovering(false);
    return inner;
  }
  metrics_.recovery_records->inc(records);

  // Roll back losers (transactions with no end record), newest first.
  if (tracer != nullptr) {
    tracer->enter(obs::RecoveryPhase::kUndo, scheduler_->now());
  }
  if (early) {
    // Undo probes and compensates on the loser pages directly, so those
    // pages must be current before rollback touches them — drain exactly
    // their runs now (charged via charge_apply) and leave the rest pending.
    for (const auto& [txn_id, txn] : analysis.live) {
      for (const auto& op : txn.ops) {
        auto stats = plan.drain_page(op.change.rid.page);
        if (!stats.is_ok()) {
          set_recovering(false);
          return stats.status();
        }
      }
    }
  }
  VDB_ASSIGN_OR_RETURN(const std::uint64_t losers,
                       settle_analysis(std::move(analysis)));
  metrics_.loser_txns->inc(losers);
  VDB_RETURN_IF_ERROR(redo_->flush());

  set_recovering(false);
  if (tracer != nullptr) {
    tracer->enter(obs::RecoveryPhase::kOpen, scheduler_->now());
  }
  if (early && plan.has_pending()) {
    // Early open: hand the staged backlog to the restart coordinator and
    // skip the checkpoint — the recovery position must stay below the
    // commit_lsn watermark until the last run drains (the sweeper's
    // completion checkpoint collapses the window then).
    restart_ = std::make_unique<RestartCoordinator>(
        cfg_.restart_mode, cfg_.early_open_stall, std::move(plan_owner),
        obs_, &scheduler_->clock());
    return recovered_to;
  }
  // Checkpoint so the replay window collapses; requires OPEN for the
  // statistics but state transitions are managed by startup(). Counts as
  // part of the open phase for tracing purposes.
  VDB_RETURN_IF_ERROR(full_checkpoint());
  return recovered_to;
}

Result<std::uint64_t> Database::settle_analysis(RedoAnalysis analysis) {
  for (const auto& [gtxn, commit] : analysis.decisions) {
    coord_decisions_[gtxn] = commit;
  }
  // PREPAREd branches are not losers: park them in the in-doubt table for
  // the coordinator (or its recovered decision record) to settle.
  std::uint64_t losers = 0;
  for (auto it = analysis.live.rbegin(); it != analysis.live.rend(); ++it) {
    RedoAnalysis::Txn& txn = it->second;
    if (txn.prepared) {
      in_doubt_[it->first] = std::move(txn);
      continue;
    }
    if (txn.ops.empty()) continue;
    losers += 1;
    VDB_RETURN_IF_ERROR(undo_incomplete_txn(TxnId{it->first}, txn.ops,
                                            txn.clrs));
  }
  txns_.restore_next_id(analysis.max_txn + 1);
  return losers;
}

Status Database::undo_incomplete_txn(TxnId txn,
                                     const std::vector<wal::UndoOp>& ops,
                                     std::uint64_t clrs_done) {
  const std::uint64_t remaining =
      ops.size() > clrs_done ? ops.size() - clrs_done : 0;
  for (std::uint64_t i = remaining; i > 0; --i) {
    VDB_RETURN_IF_ERROR(apply_undo_op(txn, ops[i - 1], /*log_clr=*/true));
    advance(cfg_.cost.cpu_per_replay_record);
  }
  wal::LogRecord abort_rec;
  abort_rec.type = wal::LogRecordType::kAbort;
  abort_rec.txn = txn;
  redo_->append(abort_rec);
  return Status::ok();
}

Status Database::open_after_external_recovery() {
  VDB_CHECK_MSG(state_ != InstanceState::kOpen,
                "open_after_external_recovery on open instance");
  set_recovering(false);
  state_ = InstanceState::kOpen;
  // Checkpoint FIRST: replayed changes live in the buffer cache, and the
  // rebuild below scans raw datafiles — they must be current on disk.
  Status st = full_checkpoint();
  if (!st.is_ok()) {
    state_ = InstanceState::kClosed;
    return st;
  }
  if (on_mounted_) on_mounted_(*this);
  st = rebuild_object_state();
  if (!st.is_ok()) {
    state_ = InstanceState::kClosed;
    return st;
  }
  schedule_background_tasks();
  return Status::ok();
}

Status Database::rebuild_object_state() {
  // However the scan ends, the hook's owner gets to finish what it collected.
  struct Done {
    const std::function<void()>& fn;
    ~Done() {
      if (fn) fn();
    }
  } done{rebuild_done_};
  heaps_.clear();
  for (const catalog::TableDef* def : catalog_.tables()) {
    heaps_[def->id.value] = std::make_unique<storage::TableHeap>(
        storage_.get(), def->id, def->tablespace, def->slot_size);
  }
  const auto register_one = [&](PageId pid, storage::PageView page) {
    auto it = heaps_.find(page.owner().value);
    if (it == heaps_.end()) return;  // dropped table: leaked pages
    it->second->register_page(pid, page.used_count() < page.capacity(),
                              page.used_count());
    if (rebuild_hook_) {
      for (std::uint16_t slot = 0; slot < page.capacity(); ++slot) {
        if (!page.slot_used(slot)) continue;
        auto payload = page.read_slot(slot);
        if (payload.is_ok()) {
          rebuild_hook_(page.owner(), RowId{pid, slot}, payload.value());
        }
      }
    }
  };
  // Early-open restart: the raw datafile images this scan reads predate the
  // redo still pending in the retained plan. Pages with a pending run are
  // registered from an overlay-patched copy (the physical apply stays
  // deferred); pending pages the scan never sees — freshly formatted past
  // the on-disk image, or NOLOGGING-implicit — are recovered eagerly below
  // and registered from the cache.
  std::unordered_map<PageId, bool> visited_pending;
  if (restart_ != nullptr) {
    for (PageId pid : restart_->pending_pages()) visited_pending[pid] = false;
  }
  for (const auto& file : storage_->files()) {
    if (file.dropped || file.status != storage::FileStatus::kOnline) continue;
    VDB_RETURN_IF_ERROR(storage_->scan_file(
        file.id, [&](std::uint32_t block, storage::PageView page) {
          const PageId pid{file.id, block};
          auto pending = visited_pending.find(pid);
          if (pending != visited_pending.end()) {
            pending->second = true;
            storage::Page patched(page);
            restart_->overlay(pid, &patched);
            register_one(pid, patched);
            return;
          }
          register_one(pid, page);
        }));
  }
  if (restart_ != nullptr) {
    bool drained_any = false;
    for (PageId pid : restart_->pending_pages()) {
      auto pending = visited_pending.find(pid);
      if (pending != visited_pending.end() && pending->second) continue;
      VDB_RETURN_IF_ERROR(restart_->recover_page(pid));
      drained_any = true;
      auto ref = storage_->fetch(pid);
      if (!ref.is_ok()) continue;  // skipped run (offline/missing file)
      if (!ref.value().page()->formatted()) continue;
      register_one(pid, *ref.value().page());
    }
    // recover_page hands the tracer back to the resume phase; the rebuild
    // runs inside the open phase, so restore that attribution for the rest
    // of startup.
    if (drained_any && obs_->tracer().active()) {
      obs_->tracer().enter(obs::RecoveryPhase::kOpen, scheduler_->now());
    }
  }
  return Status::ok();
}

Status Database::ensure_open() const {
  if (state_ == InstanceState::kOpen) return Status::ok();
  return make_error(ErrorCode::kNotOpen,
                    std::string("instance is ") + to_string(state_));
}

}  // namespace vdb::engine
