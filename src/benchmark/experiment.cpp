#include "benchmark/experiment.hpp"

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/testbed.hpp"
#include "recovery/recovery_manager.hpp"
#include "tpcc/consistency.hpp"
#include "tpcc/tpcc_driver.hpp"

namespace vdb::bench {

Result<ExperimentResult> Experiment::run() {
  sim::VirtualClock clock;
  sim::Scheduler sched(&clock);
  Testbed tb(&sched);
  VDB_RETURN_IF_ERROR(tb.build(opts_, Testbed::Names{}));
  obs::Observability& stats_area = *tb.obs;
  std::unique_ptr<engine::Database>& db = tb.db;
  tpcc::TpccDb& tdb = *tb.tdb;
  recovery::RecoveryManager rm(tb.primary_host.get(), &sched,
                               tb.backups.get());

  tpcc::DriverConfig dcfg;
  dcfg.seed = opts_.seed;
  dcfg.workers = opts_.workers;
  dcfg.cc_protocol = opts_.cc_protocol;
  tpcc::Driver driver(&tdb, &sched, dcfg);

  const SimTime start = clock.now();
  const SimTime end = start + opts_.duration;
  ExperimentResult result;
  result.workload_start = start;
  result.restart_mode = engine::to_string(opts_.restart_mode);

  const Lsn redo_start_lsn = db->redo().next_lsn();

  // Shared recovery epilogue: account lost transactions and resume the
  // workload, timing recovery to the first post-procedure commit.
  auto finish_recovery = [&](bool procedure_ok, SimTime recovery_start,
                             Lsn recovered_to,
                             SimTime failure_time) -> Status {
    // The recovery procedure proper is over: the database is open for
    // service (or the procedure failed). Everything from here to the first
    // post-recovery commit belongs to the resume phase; the span is left
    // OPEN (entered, not exited) so early-open restart modes can interleave
    // on_demand spans into it while the workload runs.
    obs::RecoveryTracer& tracer = stats_area.tracer();
    const SimTime open_at = clock.now();
    if (tracer.active()) {
      tracer.enter(obs::RecoveryPhase::kResume, open_at);
    }
    if (procedure_ok) {
      result.open_time = open_at > recovery_start ? open_at - recovery_start
                                                  : 0;
    } else {
      result.open_time = end > recovery_start ? end - recovery_start : 0;
    }
    if (!procedure_ok) {
      // Nothing was recovered: every committed write transaction is lost.
      recovered_to = 0;
      result.recovery_complete = false;
    }
    result.lost_committed = driver.count_lost(recovered_to, failure_time);

    if (procedure_ok) {
      // "Recovery time" ends when transaction processing is reestablished
      // from the end-user's point of view: the first commit after the
      // procedure started.
      const size_t commits_before = driver.commits().size();
      Status resume = driver.run_until(end);
      if (driver.commits().size() > commits_before) {
        result.recovered = true;
        const SimTime first_commit =
            driver.commits()[commits_before].commit_time;
        result.recovery_time = first_commit - recovery_start;
        result.first_commit_time = result.recovery_time;
        if (tracer.active()) tracer.finish(first_commit);
      } else {
        // Out of experiment window before service came back — the
        // paper's ">600 s" cells.
        result.recovered = false;
        result.recovery_time =
            end > recovery_start ? end - recovery_start : 0;
        result.first_commit_time = result.recovery_time;
        if (tracer.active()) tracer.finish(clock.now());
      }
      if (!resume.is_ok() && clock.now() < end) {
        return make_error(resume.code(), "post-recovery workload failed: " +
                                             resume.message());
      }
    } else {
      result.recovered = false;
      result.recovery_time = end > recovery_start ? end - recovery_start : 0;
      result.first_commit_time = result.recovery_time;
      if (tracer.active()) tracer.finish(clock.now());
    }
    return Status::ok();
  };

  // Opens the recovery trace at the instant the failure surfaced to the
  // end-user; the detection span then runs exactly until the procedure
  // starts, so later phases tile [recovery_start, first commit].
  auto begin_trace = [&](const char* label, SimTime failure_time) {
    obs::RecoveryTracer& tracer = stats_area.tracer();
    tracer.start(label, failure_time);
    tracer.enter(obs::RecoveryPhase::kDetection, failure_time);
  };

  // DBVERIFY + BLOCKRECOVER: scan every live datafile and repair each bad
  // block from the backup + redo chain, with the datafile kept online.
  auto repair_corrupt_blocks = [&](engine::Database& d) -> Status {
    std::vector<PageId> bad;
    for (const auto& file : d.storage().files()) {
      if (file.dropped || file.status == storage::FileStatus::kMissing) {
        continue;
      }
      auto report = d.storage().verify_file(file.id);
      if (!report.is_ok()) return report.status();
      for (const auto& block : report.value().bad) bad.push_back(block.page);
    }
    result.bad_blocks_found += bad.size();
    for (PageId pid : bad) {
      auto rep = rm.recover_block(d, pid);
      if (!rep.is_ok()) return rep.status();
      result.blocks_repaired += rep.value().blocks_restored;
      result.archives_read += rep.value().archives_read;
    }
    return Status::ok();
  };

  if (!opts_.fault.has_value() && !opts_.storage_fault.has_value()) {
    Status st = driver.run_until(end);
    if (!st.is_ok()) {
      return make_error(st.code(),
                        "workload failed without fault: " + st.message());
    }
  } else if (opts_.storage_fault.has_value()) {
    const faults::ExtendedFaultSpec& sfault = *opts_.storage_fault;
    const SimTime fault_time = start + opts_.storage_inject_at;
    Status pre = driver.run_until(fault_time);
    if (!pre.is_ok()) {
      return make_error(pre.code(),
                        "pre-fault workload failed: " + pre.message());
    }

    faults::ExtendedFaultInjector injector(tb.backups.get());
    VDB_RETURN_IF_ERROR(injector.inject(*db, sfault));
    result.fault_injected = true;
    result.fault_time = clock.now();

    if (sfault.type == faults::ExtendedFaultType::kSilentPageCorruption) {
      // The cached copy would mask the on-disk damage; evict it so the next
      // reference takes a fetch miss and trips verify-on-read.
      if (injector.last_target_page().valid()) {
        db->storage().cache().discard_page(injector.last_target_page());
      }
    } else if (sfault.type == faults::ExtendedFaultType::kTornPageWrite) {
      // Make the armed tear fire (the checkpoint sweep writes the file),
      // then crash: the classic torn-page-at-power-loss scenario.
      (void)db->checkpoint_now();
      (void)db->shutdown_abort();
    }

    Status failure = driver.run_until(end);
    if (failure.is_ok()) {
      // The fault never surfaced — transient errors fully absorbed by the
      // bounded retry, or the torn write landed on unchanged bytes.
      result.recovered = true;
    } else {
      const SimTime failure_time = clock.now();
      result.detection_delay = opts_.detection_time;
      begin_trace("storage recovery", failure_time);
      clock.advance_by(opts_.detection_time);
      const SimTime recovery_start = clock.now();
      stats_area.tracer().enter(obs::RecoveryPhase::kRestore, recovery_start);

      Lsn recovered_to = std::numeric_limits<Lsn>::max();  // complete
      bool procedure_ok = true;

      switch (sfault.type) {
        case faults::ExtendedFaultType::kSilentPageCorruption: {
          // Online repair: the datafile stays online; only the bad block is
          // restored from backup and rolled forward.
          Status repair = repair_corrupt_blocks(*db);
          if (!repair.is_ok()) procedure_ok = false;
          break;
        }
        case faults::ExtendedFaultType::kTornPageWrite: {
          // Instance recovery replays from the tearing checkpoint onward,
          // which never revisits the torn block — repair it from the
          // backup before the rebuild scan reads it.
          Status up = tb.restart(
              [&](engine::Database& d) { return repair_corrupt_blocks(d); });
          if (!up.is_ok()) procedure_ok = false;
          break;
        }
        case faults::ExtendedFaultType::kTransientIoErrors: {
          // Retry budget exhausted inside the glitch window: wait out the
          // rest of the window, then resume — nothing on disk is damaged.
          const SimTime window_end = result.fault_time + sfault.error_window;
          if (clock.now() < window_end) {
            clock.advance_by(window_end - clock.now());
          }
          break;
        }
        default:
          procedure_ok = false;
          break;
      }

      VDB_RETURN_IF_ERROR(finish_recovery(procedure_ok, recovery_start,
                                          recovered_to, failure_time));
    }
  } else {
    const faults::FaultSpec& fault = *opts_.fault;
    const SimTime fault_time = start + fault.inject_at;

    if (opts_.latent_fault.has_value()) {
      const SimTime latent_time =
          std::min(start + opts_.latent_inject_at, fault_time);
      Status pre = driver.run_until(latent_time);
      if (!pre.is_ok()) {
        return make_error(pre.code(),
                          "pre-latent workload failed: " + pre.message());
      }
      faults::ExtendedFaultInjector latent_injector(tb.backups.get());
      VDB_RETURN_IF_ERROR(latent_injector.inject(*db, *opts_.latent_fault));
    }

    Status st = driver.run_until(fault_time);
    if (!st.is_ok()) {
      return make_error(st.code(), "pre-fault workload failed: " + st.message());
    }

    faults::FaultInjector injector;
    // Resolve the datafile target before the fault destroys metadata.
    FileId target_file = FileId::invalid();
    if (fault.type == faults::FaultType::kDeleteDatafile ||
        fault.type == faults::FaultType::kSetDatafileOffline) {
      auto fid = faults::FaultInjector::target_datafile(*db, fault);
      if (!fid.is_ok()) return fid.status();
      target_file = fid.value();
    }
    VDB_RETURN_IF_ERROR(injector.inject(*db, fault));
    result.fault_injected = true;
    result.fault_time = clock.now();

    // Run on: the failure surfaces at the end-user when a transaction hits
    // the damage.
    Status failure = driver.run_until(end);
    if (failure.is_ok()) {
      // The fault never became user-visible within the window (does not
      // happen for the six benchmark faults, but keep the accounting sane).
      result.recovered = true;
    } else {
      const SimTime failure_time = clock.now();
      result.detection_delay = opts_.detection_time;
      begin_trace(opts_.with_standby ? "standby activation"
                                     : "operator fault recovery",
                  failure_time);
      clock.advance_by(opts_.detection_time);
      const SimTime recovery_start = clock.now();
      stats_area.tracer().enter(obs::RecoveryPhase::kRestore, recovery_start);

      Lsn recovered_to = std::numeric_limits<Lsn>::max();  // complete
      bool procedure_ok = true;

      if (opts_.with_standby) {
        // Fail over to the stand-by, whatever the fault was (§5.3). The
        // broken primary is powered off.
        if (db->is_open()) (void)db->shutdown_abort();
        VDB_RETURN_IF_ERROR(tdb.attach(&tb.standby->db()));
        auto act = tb.standby->activate();
        if (!act.is_ok()) {
          procedure_ok = false;
        } else {
          recovered_to = act.value().recovered_to;
          result.recovery_complete = false;  // unarchived tail is lost
          result.archives_read = act.value().archives_applied;
        }
      } else {
        switch (faults::recovery_kind(fault.type)) {
          case faults::RecoveryKind::kInstanceRestart: {
            if (!tb.restart().is_ok()) procedure_ok = false;
            break;
          }
          case faults::RecoveryKind::kMediaRecovery: {
            auto rep = rm.recover_datafile(*db, target_file);
            if (rep.is_ok()) {
              result.archives_read = rep.value().archives_read;
            } else if (rep.code() == ErrorCode::kUnrecoverable) {
              // §5.1: without a usable redo chain the only option is going
              // back to the last backup — losing everything since.
              if (db->is_open()) (void)db->shutdown_abort();
              auto pit = rm.restore_to_backup(
                  tb.cfg, [&](engine::Database& d) { (void)tdb.attach(&d); });
              if (!pit.is_ok()) {
                procedure_ok = false;
              } else {
                db = std::move(pit.value().db);
                recovered_to = pit.value().report.recovered_to;
                result.recovery_complete = false;
              }
            } else {
              procedure_ok = false;
            }
            break;
          }
          case faults::RecoveryKind::kDatafileRollForward: {
            auto rep = rm.recover_datafile_online(*db, target_file);
            if (!rep.is_ok()) procedure_ok = false;
            break;
          }
          case faults::RecoveryKind::kTablespaceOnline: {
            // The DBA types one ALTER TABLESPACE ... ONLINE. No restore
            // happens; re-enter at the same instant so the zero-length
            // restore span is dropped and the command is an open phase.
            stats_area.tracer().enter(obs::RecoveryPhase::kOpen,
                                       recovery_start);
            clock.advance_by(800 * kMillisecond);
            Status online = db->alter_tablespace_online(fault.tablespace);
            if (!online.is_ok()) procedure_ok = false;
            break;
          }
          case faults::RecoveryKind::kPointInTime: {
            if (db->is_open()) (void)db->shutdown_abort();
            auto stop =
                fault.type == faults::FaultType::kDeleteTablespace
                    ? recovery::stop_before_drop_tablespace(fault.tablespace)
                    : recovery::stop_before_drop_table(fault.table);
            auto pit = rm.point_in_time_recover(
                tb.cfg, stop,
                [&](engine::Database& d) { (void)tdb.attach(&d); });
            if (!pit.is_ok()) {
              procedure_ok = false;
            } else {
              db = std::move(pit.value().db);
              recovered_to = pit.value().report.recovered_to;
              result.archives_read = pit.value().report.archives_read;
              result.recovery_complete = false;
            }
            break;
          }
        }
      }

      VDB_RETURN_IF_ERROR(finish_recovery(procedure_ok, recovery_start,
                                          recovered_to, failure_time));
    }
  }

  // Collect measures.
  engine::Database& final_db = tb.serving_db();
  result.redo_bytes = db->redo().next_lsn() - redo_start_lsn;
  for (const auto& disk : tb.primary_host->disks()) {
    result.transient_errors += disk->stats().transient_errors;
  }

  result.tpmc = driver.tpmc(start, end);
  result.tpm_total = driver.tpm_total(start, end);
  result.committed = driver.stats().committed;
  result.intentional_rollbacks = driver.stats().intentional_rollbacks;
  result.failed_attempts = driver.stats().failed_attempts;
  result.recovery_retries = driver.stats().recovery_retries;
  result.series = driver.series();
  result.series_interval = driver.series_interval();
  result.cc_protocol = txn::to_string(opts_.cc_protocol);
  result.workers = driver.workers();
  result.cc_retries = driver.stats().cc_retries;

  if (final_db.is_open()) {
    // Early-open restart: drain any redo still pending so the consistency
    // check (and any state comparison the caller runs) sees the fully
    // converged end state.
    VDB_RETURN_IF_ERROR(final_db.complete_restart_recovery());
    tpcc::ConsistencyChecker checker(&tdb);
    auto report = checker.run_all();
    if (!report.is_ok()) return report.status();
    result.integrity_checks = report.value().checks_run;
    result.integrity_violations = report.value().violations;
    result.integrity_messages = report.value().messages;
  }

  if (const obs::RecoveryTrace* trace = stats_area.tracer().latest()) {
    result.recovery_phases = trace->phase_rows();
  }
  result.metrics = stats_area.snapshot();
  return result;
}

}  // namespace vdb::bench
