#include "standby/standby.hpp"

#include <algorithm>

#include "wal/log_record.hpp"
#include "wal/redo_log.hpp"

namespace vdb::standby {

StandbyDatabase::StandbyDatabase(sim::Host* standby_host,
                                 sim::Scheduler* scheduler, StandbyConfig cfg,
                                 sim::NetworkLink* link)
    : host_(standby_host), scheduler_(scheduler), cfg_(std::move(cfg)),
      link_(link) {}

Status StandbyDatabase::instantiate_from(engine::Database& primary,
                                         recovery::BackupManager& backups) {
  VDB_CHECK_MSG(!instantiated_, "standby already instantiated");

  // A standby starts life as a restored backup of the primary.
  auto set_id = backups.take_backup(primary);
  if (!set_id.is_ok()) return set_id.status();
  const auto set = backups.newest();
  VDB_CHECK(set.has_value());

  sim::SimFs& primary_fs = primary.host().fs();
  sim::SimFs& standby_fs = host_->fs();
  SimTime arrival = scheduler_->now();
  for (const auto& entry : set->files) {
    auto bytes = primary_fs.read_all(entry.backup_path,
                                     sim::IoMode::kBackground);
    if (!bytes.is_ok()) return bytes.status();
    arrival = link_->transfer(arrival, bytes.value().size());
    if (!standby_fs.exists(entry.original_path)) {
      VDB_RETURN_IF_ERROR(standby_fs.create(entry.original_path));
    }
    VDB_RETURN_IF_ERROR(standby_fs.truncate(entry.original_path, 0));
    VDB_RETURN_IF_ERROR(standby_fs.write(entry.original_path, 0,
                                         bytes.value(),
                                         sim::IoMode::kBackground,
                                         /*sequential=*/true));
  }
  busy_until_ = std::max(busy_until_, arrival);

  db_ = std::make_unique<engine::Database>(host_, scheduler_, cfg_.db);
  VDB_RETURN_IF_ERROR(db_->mount_from_control(set->control));
  db_->set_recovering(true);
  db_->storage().cache().set_io_mode(sim::IoMode::kBackground);
  plan_ = std::make_unique<engine::RedoApplyPlan>(db_->make_replay_plan());
  applied_to_ = set->backup_lsn;
  instantiated_ = true;
  return Status::ok();
}

void StandbyDatabase::on_primary_archive(sim::SimFs& primary_fs,
                                         const std::string& path,
                                         std::uint64_t seq,
                                         SimTime archive_done_at) {
  if (!instantiated_ || activated_) return;

  // Read the archive on the primary (background I/O on its archive disk —
  // part of the standby configuration's overhead on the primary).
  auto bytes = primary_fs.read_all(path, sim::IoMode::kBackground);
  if (!bytes.is_ok()) return;

  // Ship it: the transfer can only start once the archive copy finished.
  const SimTime send_at = std::max(scheduler_->now(), archive_done_at);
  const SimTime arrival = link_->transfer(send_at, bytes.value().size());
  last_arrival_ = std::max(last_arrival_, arrival);

  char buf[48];
  std::snprintf(buf, sizeof(buf), "/arch_%08llu.log",
                static_cast<unsigned long long>(seq));
  const std::string standby_path = cfg_.db.redo.archive_dir + buf;

  // State lands now; the time cost is horizon-accounted at arrival.
  sim::SimFs& standby_fs = host_->fs();
  if (!standby_fs.exists(standby_path)) {
    if (!standby_fs.create(standby_path).is_ok()) return;
  }
  (void)standby_fs.truncate(standby_path, 0);
  (void)standby_fs.write(standby_path, 0, bytes.value(),
                         sim::IoMode::kBackground, /*sequential=*/true);

  busy_until_ = std::max(busy_until_, arrival);
  apply_archive(standby_path);
}

void StandbyDatabase::apply_archive(const std::string& standby_path) {
  auto bytes = host_->fs().read_all(standby_path, sim::IoMode::kBackground);
  if (!bytes.is_ok()) return;

  // Managed recovery feeds every record to the plan, kept across archives,
  // which notes it in the analysis, stages page records and drains at DDL
  // barriers; the plan drains again at the end of the archive. Errors are
  // ignored: gaps are impossible since archives arrive in sequence order.
  // The archive is parsed where it lies on the standby's disk; the plan
  // copies the after images it stages into its own pooled arena. The CPU
  // is horizon-accounted for the whole archive.
  std::uint64_t records = 0;
  (void)wal::parse_log_records(bytes.value(), [&](const wal::LogRecord& rec) {
    records += 1;
    applied_to_ = std::max(applied_to_, rec.lsn);
    (void)plan_->feed(rec, engine::RedoApplyPlan::Barriers::kDdl, &analysis_);
    return true;
  });
  (void)plan_->drain();
  archives_applied_ += 1;
  busy_until_ += records * cfg_.db.cost.cpu_per_replay_record;
}

Result<ActivationReport> StandbyDatabase::activate() {
  VDB_CHECK_MSG(instantiated_, "standby never instantiated");
  VDB_CHECK_MSG(!activated_, "standby already active");

  // Wait for managed recovery to drain whatever has been shipped. The
  // activation window — waiting out managed-recovery apply plus the
  // switchover cost — is the failover's redo phase.
  sim::VirtualClock& clock = scheduler_->clock();
  obs::RecoveryTracer& tracer = db_->obs().tracer();
  if (tracer.active()) tracer.enter(obs::RecoveryPhase::kRedo, clock.now());
  const SimTime ready = std::max({clock.now(), busy_until_, last_arrival_});
  if (ready > clock.now()) clock.advance_to(ready);
  clock.advance_by(cfg_.activation_cost);

  // Open with RESETLOGS: the standby becomes the new primary incarnation.
  db_->storage().cache().set_io_mode(sim::IoMode::kForeground);
  const Lsn reset_at = applied_to_ + (1u << 20);
  VDB_RETURN_IF_ERROR(db_->redo().resetlogs(reset_at));
  // The applied redo may end mid-transaction: roll those losers back
  // before opening (still in recovery mode; CLRs land in the new redo).
  // PREPAREd 2PC branches are adopted as in-doubt instead — the failover
  // orchestrator resolves them against the coordinator's decision.
  if (tracer.active()) tracer.enter(obs::RecoveryPhase::kUndo, clock.now());
  plan_.reset();  // managed recovery is over
  VDB_RETURN_IF_ERROR(db_->settle_analysis(std::move(analysis_)).status());
  db_->set_recovering(false);
  if (tracer.active()) tracer.enter(obs::RecoveryPhase::kOpen, clock.now());
  VDB_RETURN_IF_ERROR(db_->open_after_external_recovery());
  activated_ = true;

  ActivationReport report;
  report.recovered_to = applied_to_;
  report.archives_applied = archives_applied_;
  return report;
}

}  // namespace vdb::standby
