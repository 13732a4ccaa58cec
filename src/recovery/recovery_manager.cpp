#include "recovery/recovery_manager.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "wal/redo_log.hpp"

namespace vdb::recovery {

std::function<bool(const wal::LogRecord&)> file_filter(FileId id) {
  return [id](const wal::LogRecord& rec) {
    switch (rec.type) {
      case wal::LogRecordType::kFormatPage:
        return rec.page.file == id;
      case wal::LogRecordType::kInsert:
      case wal::LogRecordType::kUpdate:
      case wal::LogRecordType::kDelete:
        return rec.dml.rid.page.file == id;
      default:
        return false;
    }
  };
}

std::function<bool(const wal::LogRecord&)> page_filter(PageId id) {
  return [id](const wal::LogRecord& rec) {
    switch (rec.type) {
      case wal::LogRecordType::kFormatPage:
        return rec.page == id;
      case wal::LogRecordType::kInsert:
      case wal::LogRecordType::kUpdate:
      case wal::LogRecordType::kDelete:
        return rec.dml.rid.page == id;
      default:
        return false;
    }
  };
}

std::function<bool(const wal::LogRecord&)> stop_before_drop_table(
    const std::string& name) {
  return [name](const wal::LogRecord& rec) {
    return rec.type == wal::LogRecordType::kDropTable && rec.name == name;
  };
}

std::function<bool(const wal::LogRecord&)> stop_before_drop_tablespace(
    const std::string& name) {
  return [name](const wal::LogRecord& rec) {
    return rec.type == wal::LogRecordType::kDropTablespace &&
           rec.name == name;
  };
}

namespace {

struct LogSource {
  std::uint64_t seq = 0;
  Lsn start_lsn = kInvalidLsn;
  bool is_archive = false;
  std::string archive_path;       // when is_archive
  std::uint32_t group_index = 0;  // when !is_archive
};

/// Tiles `phase` into the trace the harness (or startup) opened at the
/// failure instant. No active trace -> no-op, so plain unit-test
/// recoveries stay untraced.
void enter_phase(engine::Database& db, obs::RecoveryPhase phase) {
  obs::RecoveryTracer& tracer = db.obs().tracer();
  if (tracer.active()) tracer.enter(phase, db.clock().now());
}

}  // namespace

Result<RecoveryReport> RecoveryManager::replay_from(
    engine::Database& db, Lsn from,
    const std::function<bool(const wal::LogRecord&)>& should_apply,
    const std::function<bool(const wal::LogRecord&)>& stop_before,
    engine::RedoAnalysis* analysis) {
  sim::SimFs& fs = db.host().fs();
  const engine::CostModel& cost = db.config().cost;
  enter_phase(db, obs::RecoveryPhase::kRedo);

  // Enumerate candidate sources: every archived log plus every live online
  // group, deduplicated by sequence number (an online group that was
  // already archived carries the same records; prefer the archive, which is
  // what a DBA's RECOVER session reads).
  std::vector<LogSource> sources;
  for (const std::string& path :
       fs.list(db.config().redo.archive_dir + "/arch_")) {
    auto header = wal::read_log_header(fs, path);
    if (!header.is_ok()) continue;  // corrupt archive: unreadable, skip
    LogSource src;
    src.seq = header.value().seq;
    src.start_lsn = header.value().start_lsn;
    src.is_archive = true;
    src.archive_path = path;
    sources.push_back(std::move(src));
  }
  for (const auto& group : db.redo().groups()) {
    if (group.seq == 0) continue;
    const bool have_archive =
        std::any_of(sources.begin(), sources.end(),
                    [&](const LogSource& s) { return s.seq == group.seq; });
    if (have_archive) continue;
    LogSource src;
    src.seq = group.seq;
    src.start_lsn = group.start_lsn;
    src.is_archive = false;
    src.group_index = group.index;
    sources.push_back(std::move(src));
  }
  std::sort(sources.begin(), sources.end(),
            [](const LogSource& a, const LogSource& b) { return a.seq < b.seq; });

  RecoveryReport report;
  report.recovered_to = from;

  // Locate the source containing `from`: the last one starting at or below
  // it.
  std::optional<size_t> first;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].start_lsn <= from) first = i;
  }
  if (!first.has_value()) {
    if (sources.empty() || from >= db.redo().next_lsn()) {
      return report;  // nothing to apply
    }
    report.complete = false;  // redo chain starts after `from`: gap
    return report;
  }

  bool stopped = false;
  Status inner = Status::ok();
  std::uint64_t expected_seq = sources[*first].seq;

  // Every record is charged, including those below `from`; from `from` on,
  // those the filter passes are fed to the plan. Every record the plan does
  // not stage is a barrier: the plan drains before it and applies it, and
  // the report counts it as applied.
  engine::RedoApplyPlan plan = db.make_replay_plan();
  auto handle_record = [&](const wal::LogRecord& rec) {
    if (stop_before && stop_before(rec)) {
      stopped = true;
      return false;
    }
    db.clock().advance_by(cost.cpu_per_replay_record);
    if (rec.lsn < from) return true;
    if (!should_apply || should_apply(rec)) {
      auto fed = plan.feed(
          rec, engine::RedoApplyPlan::Barriers::kEveryUnstaged, analysis);
      if (!fed.is_ok()) {
        inner = fed.status();
        return false;
      }
      report.records_applied += fed.value().applied;
    }
    report.recovered_to = std::max(report.recovered_to, rec.lsn);
    return true;
  };

  for (size_t i = *first; i < sources.size() && !stopped; ++i) {
    const LogSource& src = sources[i];
    if (src.seq != expected_seq) {
      // Missing sequence (deleted archive / overwritten group): the chain
      // is broken; recovery cannot proceed past this point.
      report.complete = false;
      break;
    }
    expected_seq += 1;

    if (src.is_archive) {
      db.clock().advance_by(cost.archive_file_overhead);
      auto bytes = fs.read_all(src.archive_path, sim::IoMode::kForeground);
      if (!bytes.is_ok()) {
        report.complete = false;  // archive unreadable (corrupted)
        break;
      }
      report.archives_read += 1;
      VDB_RETURN_IF_ERROR(wal::parse_log_records(bytes.value(), handle_record));
    } else {
      auto member = db.redo().intact_member(src.group_index);
      if (!member.is_ok()) {
        report.complete = false;  // every member of a needed group lost
        break;
      }
      auto bytes = fs.read_all(member.value(), sim::IoMode::kForeground);
      if (!bytes.is_ok()) return bytes.status();
      VDB_RETURN_IF_ERROR(wal::parse_log_records(bytes.value(), handle_record));
    }
    if (!inner.is_ok()) return inner;
  }
  VDB_ASSIGN_OR_RETURN(const engine::RedoApplyPlan::Stats stats, plan.drain());
  report.records_applied += stats.applied;
  report.records_skipped = plan.skipped();

  if (stopped) report.complete = false;
  return report;
}

Result<RecoveryReport> RecoveryManager::recover_datafile(engine::Database& db,
                                                         FileId id) {
  const engine::CostModel& cost = db.config().cost;
  db.set_recovering(true);
  enter_phase(db, obs::RecoveryPhase::kRestore);

  // The cache may still hold (clean) frames of the failed file; they are
  // newer than the image about to be restored, and replaying against them
  // would skip work the restored file needs — in particular page formats,
  // whose replay re-establishes the file's allocation high-water mark.
  db.storage().cache().discard_file(id);

  // 1. Restore the file image from the newest backup.
  db.clock().advance_by(cost.restore_file_overhead);
  Status st = backups_->restore_datafile(db, id);
  if (!st.is_ok()) {
    db.set_recovering(false);
    return st;
  }
  auto info = db.storage().file_info(id);
  if (!info.is_ok()) {
    db.set_recovering(false);
    return info.status();
  }

  // 2. Roll forward from the backup LSN with redo touching this file.
  auto report = replay_from(db, info.value()->recover_from, file_filter(id),
                            nullptr);
  if (!report.is_ok()) {
    db.set_recovering(false);
    return report;
  }
  if (!report.value().complete) {
    db.set_recovering(false);
    return Status{ErrorCode::kUnrecoverable,
                  "redo chain incomplete for datafile recovery"};
  }
  report.value().files_restored = 1;

  // 3. Clear the recovery requirement and bring the file online.
  enter_phase(db, obs::RecoveryPhase::kOpen);
  VDB_RETURN_IF_ERROR(db.storage().set_recover_from(id, kInvalidLsn));
  db.set_recovering(false);
  VDB_RETURN_IF_ERROR(db.alter_datafile_online(id));
  // 4. Finish transactions stranded mid-rollback by the media failure.
  VDB_RETURN_IF_ERROR(db.resolve_in_doubt_transactions());
  // Recovery is only complete once every replayed change can survive a
  // subsequent crash.
  VDB_RETURN_IF_ERROR(db.checkpoint_now());
  report.value().recovered_to = db.redo().flushed_lsn();
  return report;
}

Result<RecoveryReport> RecoveryManager::recover_datafile_online(
    engine::Database& db, FileId id) {
  auto info = db.storage().file_info(id);
  if (!info.is_ok()) return info.status();
  if (info.value()->recover_from == kInvalidLsn) {
    // Nothing to roll forward.
    VDB_RETURN_IF_ERROR(db.alter_datafile_online(id));
    RecoveryReport report;
    report.recovered_to = db.redo().flushed_lsn();
    return report;
  }

  db.set_recovering(true);
  auto report = replay_from(db, info.value()->recover_from, file_filter(id),
                            nullptr);
  if (!report.is_ok()) {
    db.set_recovering(false);
    return report;
  }
  if (!report.value().complete) {
    db.set_recovering(false);
    return Status{ErrorCode::kUnrecoverable,
                  "redo chain incomplete for offline datafile"};
  }
  enter_phase(db, obs::RecoveryPhase::kOpen);
  VDB_RETURN_IF_ERROR(db.storage().set_recover_from(id, kInvalidLsn));
  db.set_recovering(false);
  VDB_RETURN_IF_ERROR(db.alter_datafile_online(id));
  VDB_RETURN_IF_ERROR(db.resolve_in_doubt_transactions());
  report.value().recovered_to = db.redo().flushed_lsn();
  return report;
}

Result<RecoveryReport> RecoveryManager::recover_block(engine::Database& db,
                                                      PageId pid) {
  const engine::CostModel& cost = db.config().cost;

  // A cached copy of the block (clean or damaged) would mask the restored
  // image the roll-forward is about to build.
  enter_phase(db, obs::RecoveryPhase::kRestore);
  db.storage().cache().discard_page(pid);

  // 1. Restore just this block's image from the newest backup.
  db.clock().advance_by(cost.restore_block_overhead);
  VDB_ASSIGN_OR_RETURN(Lsn from, backups_->restore_block(db, pid));

  // 2. Roll the single block forward through archived + online redo. The
  //    page filter selects only page-change records, so no DDL barriers
  //    fire and the datafile — and the instance — stay fully available.
  auto report = replay_from(db, from, page_filter(pid), nullptr);
  if (!report.is_ok()) return report;
  if (!report.value().complete) {
    return Status{ErrorCode::kUnrecoverable,
                  "redo chain incomplete for block recovery at " +
                      vdb::to_string(pid)};
  }
  report.value().blocks_restored = 1;

  // 3. Make the repair durable: the rebuild scan and later reads hit the
  //    raw datafile, not just the cache.
  enter_phase(db, obs::RecoveryPhase::kOpen);
  auto flush = db.storage().cache().flush_file(pid.file);
  if (!flush.failures.empty()) return flush.failures.front().second;
  db.storage().clear_corrupt_block(pid);
  report.value().recovered_to = db.redo().flushed_lsn();
  return report;
}

Result<RecoveryManager::PitResult> RecoveryManager::point_in_time_recover(
    const engine::DatabaseConfig& cfg,
    const std::function<bool(const wal::LogRecord&)>& stop_before,
    const std::function<void(engine::Database&)>& pre_open) {
  sim::SimFs& fs = host_->fs();
  const engine::CostModel& cost = cfg.cost;

  // 1. Restore every datafile from the newest backup.
  auto set = backups_->restore_all(fs);
  if (!set.is_ok()) return set.status();
  scheduler_->clock().advance_by(cost.restore_file_overhead *
                                 set.value().files.size());

  // 2. New incarnation, mounted from the backup's control snapshot; online
  //    redo of the crashed incarnation is still readable for the tail.
  auto db = std::make_unique<engine::Database>(host_, scheduler_, cfg);
  enter_phase(*db, obs::RecoveryPhase::kRestore);
  scheduler_->clock().advance_by(cost.instance_startup);
  VDB_RETURN_IF_ERROR(db->mount_from_control(set.value().control));
  if (pre_open) pre_open(*db);  // application hooks (index rebuild, ...)
  VDB_RETURN_IF_ERROR(db->redo().open_existing());
  db->set_recovering(true);

  // 3. Roll forward, stopping just before the offending DDL.
  engine::RedoAnalysis analysis;
  auto report = replay_from(*db, set.value().backup_lsn, nullptr, stop_before,
                            &analysis);
  if (!report.is_ok()) return report.status();
  report.value().files_restored = set.value().files.size();

  // 4. RESETLOGS: the new incarnation's redo starts above everything the
  //    old one ever wrote, so stale archives can never be confused with new
  //    redo.
  enter_phase(*db, obs::RecoveryPhase::kOpen);
  const Lsn reset_at = db->redo().next_lsn() + (1u << 20);
  VDB_RETURN_IF_ERROR(db->redo().resetlogs(reset_at));
  // 5. Open RESETLOGS rolls back what had not committed at the stop point
  //    (CLRs land in the new incarnation's redo) and keeps PREPAREd
  //    branches in doubt.
  VDB_RETURN_IF_ERROR(db->settle_analysis(std::move(analysis)).status());
  db->set_recovering(false);
  VDB_RETURN_IF_ERROR(db->open_after_external_recovery());

  PitResult result;
  result.db = std::move(db);
  result.report = std::move(report).value();
  result.report.complete = false;  // point-in-time recovery loses the tail
  return result;
}

Result<RecoveryManager::PitResult> RecoveryManager::restore_to_backup(
    const engine::DatabaseConfig& cfg,
    const std::function<void(engine::Database&)>& pre_open) {
  // Stop predicate that fires immediately: restore only, no roll-forward.
  auto stop_everything = [](const wal::LogRecord&) { return true; };
  return point_in_time_recover(cfg, stop_everything, pre_open);
}

}  // namespace vdb::recovery
