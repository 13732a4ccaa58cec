// vdbbench: the real-clock cost of the paper's experiment, one workload per
// process.
//
// Each experiment builds its testbed by calling the layers' public
// functions (the way bench::Experiment::run and fleet::FleetExperiment::run
// do) and times those calls from outside. The simulated outputs of every
// experiment (commits, tpmC, lost transactions, simulated recovery time,
// redo volume, physical I/O, violations) are reported next to the wall
// times so the caller (run.py) can gate on them; where the library has an
// equivalent harness, the same experiment is also run through it once,
// untimed, as the reference those outputs must match exactly.
//
//   vdbbench --workload oltp --seed 7 --seconds 10 [--trace 1 --spans F]
//
// Prints one JSON report on stdout; see run.py for the metrics derived
// from it.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchmark/experiment.hpp"
#include "benchmark/recovery_configs.hpp"
#include "engine/database.hpp"
#include "faults/fault_injector.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/fleet_experiment.hpp"
#include "fleet/orchestrator.hpp"
#include "recovery/backup.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/host.hpp"
#include "sim/scheduler.hpp"
#include "spans.hpp"
#include "tpcc/consistency.hpp"
#include "tpcc/tpcc_db.hpp"
#include "tpcc/tpcc_driver.hpp"
#include "tpcc/tpcc_loader.hpp"

namespace vdbbench {
namespace {

using namespace vdb;

// --- report fields ---------------------------------------------------------

/// Ordered (key, JSON value) pairs; values are formatted once, exactly.
using Fields = std::vector<std::pair<std::string, std::string>>;

void put(Fields& f, const char* key, std::uint64_t v) {
  f.emplace_back(key, std::to_string(v));
}
void put_real(Fields& f, const char* key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  f.emplace_back(key, buf);
}
void put_str(Fields& f, const char* key, const std::string& v) {
  std::string quoted = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  f.emplace_back(key, quoted + "\"");
}

std::string to_json(const Fields& f) {
  std::string out = "{";
  for (size_t i = 0; i < f.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + f[i].first + "\":" + f[i].second;
  }
  return out + "}";
}

/// FNV-1a over the statistics snapshot's JSON: the byte-identity check
/// between two runs of the same serial experiment.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Usage {
  double cpu_s = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t max_rss_kib = 0;
};

/// Resets the process's resident-set high-water mark (Linux clear_refs);
/// false where the kernel does not offer that.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// Resident-set high-water mark since the last reset, in KiB.
std::uint64_t peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtoull(line + 6, nullptr, 10);
    }
  }
  std::fclose(f);
  return kib;
}

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  u.max_rss_kib = static_cast<std::uint64_t>(ru.ru_maxrss);
  return u;
}

// --- workloads ---------------------------------------------------------------

enum class Kind { kOltp, kFaultload, kFleet };

struct Workload {
  const char* name;
  Kind kind;
  bench::RecoveryConfigSpec config;
  bool archive_mode;
  std::uint32_t cache_pages;
  SimDuration duration;
};

const Workload kWorkloads[] = {
    {"oltp", Kind::kOltp, {"F40G3T10", 40, 3, 600}, false, 2048,
     5 * kMinute},
    {"faultload", Kind::kFaultload, {"F10G3T5", 10, 3, 300}, true, 512,
     7 * kMinute},
    {"fleet-failover", Kind::kFleet, {"F40G3T10", 40, 3, 600}, true, 2048,
     4 * kMinute},
};

/// The faultload: every fault type of the paper, in turn, each repaired by
/// its own procedure; the two point-in-time recoveries come last.
const faults::FaultType kFaultOrder[] = {
    faults::FaultType::kShutdownAbort,
    faults::FaultType::kDeleteDatafile,
    faults::FaultType::kSetDatafileOffline,
    faults::FaultType::kSetTablespaceOffline,
    faults::FaultType::kDeleteTablespace,
    faults::FaultType::kDeleteUserObject,
};
constexpr SimDuration kDetectionTime = 10 * kSecond;
constexpr SimDuration kFleetInjectAt = 2 * kMinute;
/// Keeps a run within its time limit on a host much faster than expected.
constexpr int kMaxExperiments = 60;

/// Redo-replay width of every recovery (never more than the host's cores).
constexpr unsigned kReplayJobs = 2;

/// One experiment's report.
struct Record {
  std::string role;  // reference | warmup | timed
  bool traced = false;
  std::string error;  // non-empty: the harness failed
  Fields sim;         // simulated outputs (the gate)
  Fields wall;        // real seconds
  Fields base;        // counts the per-layer metrics divide by
};

/// Wall-clock accumulators of one experiment.
struct Timers {
  Nanos experiment = 0;
  Nanos setup = 0;
  Nanos run = 0;
  Nanos recovery = 0;
};

void put_timers(Record& r, const Timers& t) {
  put_real(r.wall, "experiment_s", seconds(t.experiment));
  put_real(r.wall, "setup_s", seconds(t.setup));
  put_real(r.wall, "run_s", seconds(t.run));
  put_real(r.wall, "recovery_s", seconds(t.recovery));
}

/// Statistics-area counters the per-layer metrics use, summed over every
/// snapshot given (one per shard for the fleet).
const std::pair<const char*, const char*> kCounters[] = {
    {"cache_hits", "buffer cache hits"},
    {"physical_reads", "physical reads"},
    {"physical_writes", "physical writes"},
    {"redo_bytes", "redo size bytes"},
    {"redo_writes", "redo writes"},
    {"log_switches", "log switches"},
    {"archived_logs", "archived logs"},
    {"checkpoints_full", "checkpoints full"},
    {"checkpoints_incremental", "checkpoints incremental"},
    {"records_replayed", "recovery records replayed"},
    {"replay_applied", "replay records applied"},
    {"replay_drains", "replay drains"},
};

std::map<std::string, std::uint64_t> sum_counters(
    const std::vector<obs::MetricsSnapshot>& snaps) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, counter] : kCounters) {
    std::uint64_t v = 0;
    for (const auto& s : snaps) v += s.counter(counter);
    out[key] = v;
  }
  return out;
}

void put_counters(Fields& f, const std::map<std::string, std::uint64_t>& c) {
  for (const auto& [key, counter] : kCounters) {
    (void)counter;
    put(f, key, c.at(key));
  }
}

std::uint64_t disk_bytes(const sim::Host& host) {
  std::uint64_t b = 0;
  for (const auto& d : host.disks()) b += d->stats().bytes;
  return b;
}

void add_standard_disks(sim::Host& host) {
  host.add_disk("/data");
  host.add_disk("/redo");
  host.add_disk("/arch");
  host.add_disk("/backup");
}

/// The seven TPC-C consistency conditions, each its own span.
struct Condition {
  const char* span;
  Status (tpcc::ConsistencyChecker::*check)(tpcc::ConsistencyReport*);
};
const Condition kConditions[] = {
    {"tpcc.check.warehouse_ytd",
     &tpcc::ConsistencyChecker::check_warehouse_ytd},
    {"tpcc.check.order_id_monotony",
     &tpcc::ConsistencyChecker::check_order_id_monotony},
    {"tpcc.check.new_order_contiguity",
     &tpcc::ConsistencyChecker::check_new_order_contiguity},
    {"tpcc.check.order_line_counts",
     &tpcc::ConsistencyChecker::check_order_line_counts},
    {"tpcc.check.delivery_flags",
     &tpcc::ConsistencyChecker::check_delivery_flags},
    {"tpcc.check.customer_balance",
     &tpcc::ConsistencyChecker::check_customer_balance},
    {"tpcc.check.warehouse_history",
     &tpcc::ConsistencyChecker::check_warehouse_history},
};

/// Runs the conditions in ConsistencyChecker::run_all's order. The fleet
/// leaves out the warehouse-history condition: a shard holds only part of
/// the payment history (FleetExperiment checks it fleet-wide instead).
Status check_conditions(SpanRecorder& rec, tpcc::TpccDb& tdb,
                        bool with_history, tpcc::ConsistencyReport* report) {
  tpcc::ConsistencyChecker checker(&tdb);
  for (const Condition& c : kConditions) {
    if (!with_history &&
        c.check == &tpcc::ConsistencyChecker::check_warehouse_history) {
      continue;
    }
    Scope s(rec, c.span);
    VDB_RETURN_IF_ERROR((checker.*c.check)(report));
  }
  return Status::ok();
}

/// DBVERIFY over every live datafile: real time per page checksummed.
Status verify_probe(SpanRecorder& rec, engine::Database& db,
                    std::uint64_t* pages) {
  Scope s(rec, "storage.verify");
  for (const auto& file : db.storage().files()) {
    if (file.dropped || file.status == storage::FileStatus::kMissing) {
      continue;
    }
    auto report = db.storage().verify_file(file.id);
    if (!report.is_ok()) return report.status();
    if (!report.value().bad.empty()) {
      return make_error(ErrorCode::kCorruption,
                        "verify probe found bad blocks in " + file.path);
    }
    *pages += report.value().blocks_scanned;
  }
  return Status::ok();
}

// --- single-instance testbed -------------------------------------------------

engine::DatabaseConfig make_db_config(const Workload& w,
                                      unsigned replay_jobs) {
  // Mirrors bench::Experiment's configuration, plus a pinned replay width.
  engine::DatabaseConfig cfg;
  cfg.name = "tpcc";
  cfg.redo.file_size_bytes =
      static_cast<std::uint64_t>(w.config.file_mb) * 1024 * 1024;
  cfg.redo.groups = w.config.groups;
  cfg.redo.archive_mode = w.archive_mode;
  cfg.checkpoint_timeout =
      static_cast<SimDuration>(w.config.timeout_sec) * kSecond;
  cfg.storage.cache_pages = w.cache_pages;
  cfg.replay_jobs = replay_jobs;
  return cfg;
}

/// Host, database, TPC-C schema and data, reference backup.
struct Testbed {
  sim::VirtualClock clock;
  sim::Scheduler sched{&clock};
  sim::Host primary{"primary", &clock};
  obs::Observability stats_area;
  engine::DatabaseConfig cfg;
  std::unique_ptr<engine::Database> db;
  tpcc::TpccDb tdb{tpcc::TpccScale{}};
  std::unique_ptr<recovery::BackupManager> backups;
  std::unique_ptr<recovery::RecoveryManager> rm;
  std::uint64_t rows_loaded = 0;

  Status build(SpanRecorder& rec, const Workload& w, unsigned replay_jobs,
               std::uint64_t seed) {
    add_standard_disks(primary);
    cfg = make_db_config(w, replay_jobs);
    cfg.obs = &stats_area;
    {
      Scope s(rec, "engine.create");
      db = std::make_unique<engine::Database>(&primary, &sched, cfg);
      VDB_RETURN_IF_ERROR(db->create());
      std::vector<std::pair<std::string, std::uint32_t>> files = {
          {"/data/tpcc01.dbf", 512}, {"/data/tpcc02.dbf", 512}};
      auto ts = db->create_tablespace("TPCC", files);
      if (!ts.is_ok()) return ts.status();
      auto user = db->create_user("TPCC", /*is_dba=*/false);
      if (!user.is_ok()) return user.status();
      VDB_RETURN_IF_ERROR(tdb.create_schema(*db, "TPCC", user.value()));
      VDB_RETURN_IF_ERROR(tdb.attach(db.get()));
    }
    {
      Scope s(rec, "tpcc.load");
      tpcc::Loader loader(&tdb, seed ^ 0x10ad5eedull);
      auto load = loader.load();
      if (!load.is_ok()) return load.status();
      rows_loaded = load.value().rows;
    }
    backups = std::make_unique<recovery::BackupManager>(&primary.fs(),
                                                        "/backup");
    rm = std::make_unique<recovery::RecoveryManager>(&primary, &sched,
                                                     backups.get());
    Scope s(rec, "recovery.backup");
    auto backup = backups->take_backup(*db);
    return backup.status();
  }
};

/// Per-fault simulated outcome on the faultload.
struct FaultOutcome {
  SimDuration recovery_us = 0;  // procedure start -> first commit
  SimDuration open_us = 0;      // procedure start -> open for service
  std::uint64_t lost = 0;
};

/// oltp and faultload: one single-instance experiment.
Status run_single(SpanRecorder& rec, const Workload& w,
                  unsigned replay_jobs, std::uint64_t seed, bool verify,
                  Record* out) {
  Timers t;
  const Usage u0 = usage();
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<tpcc::Driver> driver;
  std::uint64_t records_applied = 0;
  std::uint64_t archives_read = 0;
  std::vector<FaultOutcome> outcomes;
  tpcc::ConsistencyReport report;
  std::vector<obs::MetricsSnapshot> snaps(1);
  SimTime start = 0;
  SimTime end = 0;

  Status body = [&]() -> Status {
    Scope exp(rec, "experiment", &t.experiment);
    {
      Scope s(rec, "setup", &t.setup);
      tb = std::make_unique<Testbed>();
      VDB_RETURN_IF_ERROR(tb->build(rec, w, replay_jobs, seed));
    }
    tpcc::DriverConfig dcfg;
    dcfg.seed = seed;
    driver = std::make_unique<tpcc::Driver>(&tb->tdb, &tb->sched, dcfg);
    auto run_until = [&](SimTime until) {
      Scope s(rec, "tpcc.run", &t.run);
      return driver->run_until(until);
    };

    start = tb->clock.now();
    end = start + w.duration;
    if (w.kind != Kind::kFaultload) {
      Status st = run_until(end);
      if (!st.is_ok()) return st;
    } else {
      // Each fault strikes after `gap` of workload, counted from the end of
      // the previous recovery; the run ends `gap` after the last one.
      const SimDuration gap = w.duration / (std::size(kFaultOrder) + 1);
      size_t first_after = 0;  // first commit of the current window
      faults::FaultInjector injector;
      for (size_t k = 0; k < std::size(kFaultOrder); ++k) {
        faults::FaultSpec spec;
        spec.type = kFaultOrder[k];
        if (k == 0) VDB_RETURN_IF_ERROR(run_until(start + gap));
        FileId target = FileId::invalid();
        if (spec.type == faults::FaultType::kDeleteDatafile ||
            spec.type == faults::FaultType::kSetDatafileOffline) {
          auto fid = faults::FaultInjector::target_datafile(*tb->db, spec);
          if (!fid.is_ok()) return fid.status();
          target = fid.value();
        }
        VDB_RETURN_IF_ERROR(injector.inject(*tb->db, spec));
        if (run_until(tb->clock.now() + gap).is_ok()) {
          return make_error(ErrorCode::kInternal,
                            std::string("fault never surfaced: ") +
                                faults::to_string(spec.type));
        }
        const SimTime failure_time = tb->clock.now();
        tb->clock.advance_by(kDetectionTime);
        const SimTime recovery_start = tb->clock.now();
        Lsn recovered_to = std::numeric_limits<Lsn>::max();
        bool resetlogs = false;
        Status proc = Status::ok();
        auto attach = [&](engine::Database& d) { (void)tb->tdb.attach(&d); };
        switch (faults::recovery_kind(spec.type)) {
          case faults::RecoveryKind::kInstanceRestart: {
            Scope s(rec, "engine.startup", &t.recovery);
            auto fresh = std::make_unique<engine::Database>(
                &tb->primary, &tb->sched, tb->cfg);
            fresh->set_on_mounted(attach);
            proc = fresh->startup();
            if (proc.is_ok()) tb->db = std::move(fresh);
            break;
          }
          case faults::RecoveryKind::kMediaRecovery: {
            Scope s(rec, "recovery.media", &t.recovery);
            auto rep = tb->rm->recover_datafile(*tb->db, target);
            proc = rep.status();
            if (rep.is_ok()) {
              records_applied += rep.value().records_applied;
              archives_read += rep.value().archives_read;
            }
            break;
          }
          case faults::RecoveryKind::kDatafileRollForward: {
            Scope s(rec, "recovery.rollforward", &t.recovery);
            auto rep = tb->rm->recover_datafile_online(*tb->db, target);
            proc = rep.status();
            if (rep.is_ok()) {
              records_applied += rep.value().records_applied;
              archives_read += rep.value().archives_read;
            }
            break;
          }
          case faults::RecoveryKind::kTablespaceOnline: {
            // The DBA types one ALTER TABLESPACE ... ONLINE.
            tb->clock.advance_by(800 * kMillisecond);
            Scope s(rec, "engine.tablespace_online", &t.recovery);
            proc = tb->db->alter_tablespace_online(spec.tablespace);
            break;
          }
          case faults::RecoveryKind::kPointInTime: {
            Scope s(rec, "recovery.pit", &t.recovery);
            if (tb->db->is_open()) (void)tb->db->shutdown_abort();
            auto stop =
                spec.type == faults::FaultType::kDeleteTablespace
                    ? recovery::stop_before_drop_tablespace(spec.tablespace)
                    : recovery::stop_before_drop_table(spec.table);
            auto pit = tb->rm->point_in_time_recover(tb->cfg, stop, attach);
            proc = pit.status();
            if (pit.is_ok()) {
              tb->db = std::move(pit.value().db);
              recovered_to = pit.value().report.recovered_to;
              records_applied += pit.value().report.records_applied;
              archives_read += pit.value().report.archives_read;
              resetlogs = true;
            }
            break;
          }
        }
        if (!proc.is_ok()) {
          return make_error(proc.code(),
                            std::string("recovery after ") +
                                faults::to_string(spec.type) + " failed: " +
                                proc.message());
        }
        FaultOutcome o;
        o.open_us = tb->clock.now() - recovery_start;
        const auto& commits = driver->commits();
        for (size_t i = first_after; i < commits.size(); ++i) {
          const tpcc::CommitRecord& c = commits[i];
          if (c.commit_time < failure_time && c.commit_lsn != 0 &&
              c.commit_lsn > recovered_to) {
            o.lost += 1;
          }
        }
        if (resetlogs) {
          // A backup from before RESETLOGS cannot seed the next recovery.
          Scope s(rec, "recovery.backup");
          auto backup = tb->backups->take_backup(*tb->db);
          if (!backup.is_ok()) return backup.status();
        }
        first_after = commits.size();
        end = tb->clock.now() + gap;
        VDB_RETURN_IF_ERROR(run_until(end));
        if (driver->commits().size() == first_after) {
          return make_error(ErrorCode::kInternal,
                            "no commit after recovery before the next fault");
        }
        o.recovery_us =
            driver->commits()[first_after].commit_time - recovery_start;
        outcomes.push_back(o);
      }
    }
    {
      Scope s(rec, "tpcc.check");
      VDB_RETURN_IF_ERROR(tb->db->complete_restart_recovery());
      VDB_RETURN_IF_ERROR(check_conditions(rec, tb->tdb, true, &report));
    }
    Scope s(rec, "obs.snapshot");
    snaps[0] = tb->stats_area.snapshot();
    put(out->sim, "snapshot_fnv", fnv1a(snaps[0].to_json()));
    return Status::ok();
  }();
  if (!body.is_ok()) return body;

  const Usage u1 = usage();
  put_timers(*out, t);
  put_real(out->wall, "cpu_s", u1.cpu_s - u0.cpu_s);

  const auto counters = sum_counters(snaps);
  const tpcc::DriverStats& ds = driver->stats();
  Fields& sim = out->sim;
  put(sim, "commits", ds.committed);
  put_real(sim, "tpmc", driver->tpmc(start, end));
  put(sim, "failed_attempts", ds.failed_attempts);
  std::uint64_t lost = 0;
  SimDuration recovery_us = 0;
  SimDuration open_us = 0;
  for (const FaultOutcome& o : outcomes) {
    lost += o.lost;
    recovery_us += o.recovery_us;
    open_us += o.open_us;
  }
  put(sim, "lost", lost);
  put(sim, "recovery_us", recovery_us);
  put(sim, "open_us", open_us);
  for (size_t k = 0; k < outcomes.size(); ++k) {
    const std::string p = "fault" + std::to_string(k + 1) + "_";
    sim.emplace_back(p + "recovery_us", std::to_string(outcomes[k].recovery_us));
    sim.emplace_back(p + "open_us", std::to_string(outcomes[k].open_us));
    sim.emplace_back(p + "lost", std::to_string(outcomes[k].lost));
  }
  put(sim, "redo_bytes", counters.at("redo_bytes"));
  put(sim, "physical_reads", counters.at("physical_reads"));
  put(sim, "physical_writes", counters.at("physical_writes"));
  put(sim, "integrity_checks", report.checks_run);
  put(sim, "integrity_violations", report.violations);
  put(sim, "atomicity_violations", 0);
  if (!report.messages.empty()) out->error = report.messages.front();

  Fields& base = out->base;
  put(base, "commits", ds.committed);
  put(base, "rows_loaded", tb->rows_loaded);
  put(base, "records_applied", records_applied);
  put(base, "archives_read", archives_read);
  put(base, "disk_bytes", disk_bytes(tb->primary));
  put(base, "net_bytes", 0);
  put(base, "cross_shard_committed", 0);
  put(base, "minor_faults", u1.minor_faults - u0.minor_faults);
  put_counters(base, counters);

  if (verify) {
    std::uint64_t pages = 0;
    const Nanos p0 = now_ns();
    VDB_RETURN_IF_ERROR(verify_probe(rec, *tb->db, &pages));
    put_real(out->wall, "verify_s", seconds(now_ns() - p0));
    put(base, "verify_pages", pages);
  }
  return Status::ok();
}

// --- fleet -------------------------------------------------------------------

fleet::FleetConfig make_fleet_config(std::uint64_t seed) {
  fleet::FleetConfig fcfg;
  fcfg.shards = 2;
  fcfg.seed = seed;
  return fcfg;
}

/// fleet-failover: 2PC workload, then the promotion-with-redo-loss scenario,
/// in FleetExperiment::run's call order.
Status run_fleet(SpanRecorder& rec, const Workload& w, std::uint64_t seed,
                 bool verify, Record* out) {
  Timers t;
  const Usage u0 = usage();
  std::unique_ptr<fleet::Fleet> fl;
  std::unique_ptr<obs::Observability> fleet_obs;
  std::unique_ptr<fleet::FleetDriver> driver;
  std::unique_ptr<fleet::FailoverOrchestrator> orch;
  tpcc::ConsistencyReport report;
  std::vector<obs::MetricsSnapshot> snaps;
  SimTime start = 0;
  SimTime end = 0;
  SimDuration recovery_us = 0;
  std::uint64_t lost = 0;
  std::uint64_t records_applied = 0;
  std::uint64_t archives_read = 0;

  Status body = [&]() -> Status {
    Scope exp(rec, "experiment", &t.experiment);
    {
      Scope s(rec, "fleet.setup", &t.setup);
      fl = std::make_unique<fleet::Fleet>(make_fleet_config(seed));
      VDB_RETURN_IF_ERROR(fl->setup());
    }
    sim::VirtualClock& clock = fl->clock();
    fleet_obs = std::make_unique<obs::Observability>();
    fleet::FleetDriverConfig dcfg;
    dcfg.seed = seed;
    driver = std::make_unique<fleet::FleetDriver>(fl.get(), fleet_obs.get(),
                                                  dcfg);
    orch = std::make_unique<fleet::FailoverOrchestrator>(
        fl.get(), fleet::OrchestratorConfig{}, fleet_obs.get());
    orch->start();
    auto run_until = [&](SimTime until) {
      Scope s(rec, "fleet.run", &t.run);
      return driver->run_until(until);
    };

    start = clock.now();
    end = start + w.duration;
    VDB_RETURN_IF_ERROR(run_until(start + kFleetInjectAt));
    // Crash mid-group: committed redo sits in the unarchived online group.
    VDB_RETURN_IF_ERROR(fl->kill_shard(0));
    if (run_until(end).is_ok()) {
      return make_error(ErrorCode::kInternal, "shard crash never surfaced");
    }
    while (clock.now() < end) {
      bool healthy = false;
      {
        Scope s(rec, "fleet.failover", &t.recovery);
        healthy = orch->await_fleet_healthy(end);
      }
      if (!healthy) break;
      if (run_until(end).is_ok()) break;
    }
    orch->stop();

    const auto& events = orch->events();
    if (events.empty() || !fl->healthy()) {
      return make_error(ErrorCode::kInternal, "fleet did not fail over");
    }
    SimTime first_commit = 0;
    for (const fleet::FleetCommitRecord& c : driver->commits()) {
      if (c.commit_time >= events.back().restored_at) {
        first_commit = c.commit_time;
        break;
      }
    }
    if (first_commit == 0) {
      return make_error(ErrorCode::kInternal, "no commit after failover");
    }
    recovery_us = first_commit - events.front().declared_at;
    for (const fleet::FailoverEvent& e : events) {
      lost += driver->count_lost(e.shard, e.recovered_to, e.failed_at);
      archives_read += e.archives_applied;
    }
    {
      Scope s(rec, "fleet.check");
      for (std::uint32_t i = 0; i < fl->size(); ++i) {
        VDB_RETURN_IF_ERROR(
            check_conditions(rec, fl->tdb(i), false, &report));
      }
    }
    Scope s(rec, "obs.snapshot");
    snaps.push_back(fleet_obs->snapshot());
    for (std::uint32_t i = 0; i < fl->size(); ++i) {
      snaps.push_back(fl->shard(i).obs->snapshot());
    }
    std::uint64_t digest = 0;
    for (const auto& snap : snaps) digest ^= fnv1a(snap.to_json());
    put(out->base, "snapshot_fnv", digest);
    return Status::ok();
  }();
  if (!body.is_ok()) return body;

  const Usage u1 = usage();
  put_timers(*out, t);
  put_real(out->wall, "cpu_s", u1.cpu_s - u0.cpu_s);
  const auto counters = sum_counters(snaps);
  const fleet::FleetDriverStats& ds = driver->stats();
  Fields& sim = out->sim;
  put(sim, "commits", ds.committed);
  put(sim, "cross_shard_committed", ds.cross_shard_committed);
  put_real(sim, "tpmc", driver->tpmc(start, end));
  put(sim, "failed_attempts", ds.failed_attempts);
  put(sim, "lost", lost);
  put(sim, "recovery_us", recovery_us);
  put(sim, "promotions", orch->promotions());
  put(sim, "in_doubt_resolved", orch->in_doubt_resolved());
  put(sim, "redo_bytes", counters.at("redo_bytes"));
  put(sim, "physical_reads", counters.at("physical_reads"));
  put(sim, "physical_writes", counters.at("physical_writes"));
  put(sim, "integrity_checks", report.checks_run);
  put(sim, "integrity_violations", report.violations);
  put(sim, "atomicity_violations", fl->registry().atomicity_violations());
  if (!report.messages.empty()) out->error = report.messages.front();

  std::uint64_t disk = 0;
  std::uint64_t net = fl->interconnect().stats().bytes;
  for (std::uint32_t i = 0; i < fl->size(); ++i) {
    const fleet::Shard& s = fl->shard(i);
    disk += disk_bytes(*s.primary_host) + disk_bytes(*s.standby_host);
    net += s.link->stats().bytes;
  }
  Fields& base = out->base;
  put(base, "commits", ds.committed);
  put(base, "rows_loaded", 0);
  put(base, "records_applied", records_applied);
  put(base, "archives_read", archives_read);
  put(base, "disk_bytes", disk);
  put(base, "net_bytes", net);
  put(base, "cross_shard_committed", ds.cross_shard_committed);
  put(base, "minor_faults", u1.minor_faults - u0.minor_faults);
  put_counters(base, counters);

  if (verify) {
    std::uint64_t pages = 0;
    const Nanos p0 = now_ns();
    for (std::uint32_t i = 0; i < fl->size(); ++i) {
      VDB_RETURN_IF_ERROR(verify_probe(rec, fl->active_db(i), &pages));
    }
    put_real(out->wall, "verify_s", seconds(now_ns() - p0));
    put(base, "verify_pages", pages);
  }
  return Status::ok();
}

// --- library references ------------------------------------------------------

/// The same experiment through bench::Experiment::run (serial loop only).
Status library_single(const Workload& w, std::uint64_t seed, Record* out) {
  bench::ExperimentOptions opts;
  opts.config = w.config;
  opts.archive_mode = w.archive_mode;
  opts.duration = w.duration;
  opts.seed = seed;
  opts.cache_pages = w.cache_pages;
  auto r = bench::Experiment(opts).run();
  if (!r.is_ok()) return r.status();
  const bench::ExperimentResult& res = r.value();
  const auto counters = sum_counters({res.metrics});
  Fields& sim = out->sim;
  put(sim, "snapshot_fnv", fnv1a(res.metrics.to_json()));
  put(sim, "commits", res.committed);
  put_real(sim, "tpmc", res.tpmc);
  put(sim, "failed_attempts", res.failed_attempts);
  put(sim, "lost", res.lost_committed);
  put(sim, "recovery_us", res.recovery_time);
  put(sim, "open_us", res.open_time);
  put(sim, "redo_bytes", counters.at("redo_bytes"));
  put(sim, "physical_reads", counters.at("physical_reads"));
  put(sim, "physical_writes", counters.at("physical_writes"));
  put(sim, "integrity_checks", res.integrity_checks);
  put(sim, "integrity_violations", res.integrity_violations);
  return Status::ok();
}

/// The fleet experiment through fleet::FleetExperiment::run. Its statistics
/// are snapshotted after a fleet-wide history check this benchmark does not
/// run, so only outputs fixed before the check phase are compared.
Status library_fleet(const Workload& w, std::uint64_t seed, Record* out) {
  fleet::FleetExperimentOptions opts;
  opts.shards = 2;
  opts.scenario = faults::FleetScenario::kPromotionWithRedoLoss;
  opts.duration = w.duration;
  opts.inject_at = kFleetInjectAt;
  opts.seed = seed;
  opts.fleet = make_fleet_config(seed);
  auto r = fleet::FleetExperiment(opts).run();
  if (!r.is_ok()) return r.status();
  const fleet::FleetExperimentResult& res = r.value();
  std::uint64_t redo = 0;
  for (std::uint32_t i = 0; i < res.shard_count; ++i) {
    redo += res.metrics.counter("shard" + std::to_string(i) +
                                " redo size bytes");
  }
  Fields& sim = out->sim;
  put(sim, "commits", res.committed);
  put(sim, "cross_shard_committed", res.cross_shard_committed);
  put_real(sim, "tpmc", res.tpmc);
  put(sim, "failed_attempts", res.failed_attempts);
  put(sim, "lost", res.lost_committed);
  put(sim, "recovery_us", res.recovery_time);
  put(sim, "promotions", res.promotions);
  put(sim, "in_doubt_resolved", res.in_doubt_resolved);
  put(sim, "redo_bytes", redo);
  put(sim, "integrity_violations", res.integrity_violations);
  put(sim, "atomicity_violations", res.atomicity_violations);
  return Status::ok();
}

// --- host-speed probe ----------------------------------------------------------

/// A fixed amount of work that does not depend on the engine. Timed between
/// experiments, it tells how fast the (shared) host ran just then; run.py
/// scales the end-to-end times by it. Its mix follows the engine's: mostly
/// arithmetic and cache-resident hashing and page copies, plus a small
/// share of accesses to a table larger than the caches. A probe made mainly
/// of such accesses slowed up to 4x when another process loaded the memory
/// bus, while the engine slowed 1.4x, so it overcorrected. Its buffers are
/// touched before the clock starts and freed after, so it leaves no
/// footprint.
double probe_host() {
  std::vector<std::uint64_t> big(std::size_t{1} << 22, 1);   // 32 MiB
  std::vector<std::uint64_t> small(std::size_t{1} << 15, 1); // 256 KiB
  std::vector<std::uint8_t> pages(std::size_t{1} << 20, 1);  // 1 MiB
  std::vector<std::uint8_t> page(8192);
  const Nanos t0 = now_ns();
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 30'000'000; ++i) {
    acc += (next() % 1000003) ^ (acc >> 3);
  }
  for (int i = 0; i < 6'000'000; ++i) small[next() & (small.size() - 1)] += x;
  for (int r = 0; r < 256; ++r) {
    for (std::size_t off = 0; off + page.size() <= pages.size();
         off += page.size()) {
      std::memcpy(page.data(), pages.data() + off, page.size());
      page[r] ^= static_cast<std::uint8_t>(x);
      std::memcpy(pages.data() + off, page.data(), page.size());
    }
  }
  for (int i = 0; i < 1'500'000; ++i) big[next() & (big.size() - 1)] += x;
  volatile std::uint64_t sink =
      acc + small[x & 1023] + big[x & 4095] + pages[x & 4095];
  (void)sink;
  return seconds(now_ns() - t0);
}

// --- driver ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  int min_experiments = 3;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") a->workload = v;
    else if (key == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a->seconds = std::strtod(v, nullptr);
    else if (key == "--trace") a->trace = std::strcmp(v, "0") != 0;
    else if (key == "--spans") a->spans_path = v;
    else if (key == "--min-experiments") a->min_experiments = std::atoi(v);
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->min_experiments >= 0;
}

std::string record_json(const Record& r) {
  Fields f;
  put_str(f, "role", r.role);
  f.emplace_back("traced", r.traced ? "true" : "false");
  put_str(f, "error", r.error);
  f.emplace_back("sim", to_json(r.sim));
  f.emplace_back("wall", to_json(r.wall));
  f.emplace_back("base", to_json(r.base));
  return to_json(f);
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vdbbench --workload W --seed N --seconds S "
                 "[--trace 0|1 --spans FILE] [--min-experiments N]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  // Never more threads than cores: pin the replay width here instead of
  // inheriting it, and make the library's own default (VDB_JOBS) agree for
  // the configurations it builds itself.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned replay_jobs = std::min(kReplayJobs, cores);
  setenv("VDB_JOBS", std::to_string(replay_jobs).c_str(), 1);

  SpanRecorder rec;
  std::vector<Record> records;
  double probe_s = probe_host();
  auto experiment = [&](const char* role, bool traced) {
    Record r;
    r.role = role;
    r.traced = traced;
    const double probe_before = probe_s;
    // Each experiment's own footprint: free heap goes back to the system
    // and the peak is reset between experiments, so neither the library
    // reference nor earlier experiments count. Without the reset it is the
    // process's peak so far.
    malloc_trim(0);
    const bool own_peak = reset_peak_rss();
    rec.set_enabled(traced);
    rec.set_experiment(static_cast<int>(records.size()));
    const Status st =
        w->kind == Kind::kFleet
            ? run_fleet(rec, *w, args.seed, traced, &r)
            : run_single(rec, *w, replay_jobs, args.seed, traced, &r);
    rec.set_enabled(false);
    put(r.base, "peak_rss_kib",
        own_peak ? peak_rss_kib() : usage().max_rss_kib);
    probe_s = probe_host();
    put_real(r.wall, "probe_s", 0.5 * (probe_before + probe_s));
    if (!st.is_ok()) r.error = st.to_string();
    records.push_back(std::move(r));
  };

  // Untimed lead-in, which also warms the process up: the library's own
  // harness as the reference where it has one; the faultload has none, so
  // its first experiment is the reference the others must match.
  if (w->kind == Kind::kFaultload) {
    experiment("warmup", false);
  } else {
    Record ref;
    ref.role = "reference";
    const Status st = w->kind == Kind::kFleet
                          ? library_fleet(*w, args.seed, &ref)
                          : library_single(*w, args.seed, &ref);
    if (!st.is_ok()) ref.error = st.to_string();
    records.push_back(std::move(ref));
    probe_s = probe_host();  // the first timed experiment's "before"
  }

  const Nanos t0 = now_ns();
  const Nanos budget = static_cast<Nanos>(args.seconds * 1e9);
  for (int i = 0; i < kMaxExperiments; ++i) {
    if (i >= args.min_experiments && now_ns() - t0 >= budget) break;
    // A traced pass alternates traced and untraced experiments, so the
    // tracing overhead is measured in the same process.
    experiment("timed", args.trace && i % 2 == 0);
  }
  const Nanos measured = now_ns() - t0;

  if (args.trace && !args.spans_path.empty() &&
      !rec.write_jsonl(args.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 args.spans_path.c_str());
    return 1;
  }

  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  Fields env;
  put_str(env, "host", host);
  put(env, "cores", cores);
  put_str(env, "compiler", VDB_COMPILER);
  put_str(env, "build_type", VDB_BUILD_TYPE);
  put(env, "replay_jobs", replay_jobs);
  put(env, "workers", 1);  // one terminal emulator, serial loop
  put(env, "seed", args.seed);
  put_str(env, "workload", w->name);
  put(env, "sim_duration_us", w->duration);

  Fields report;
  report.emplace_back("env", to_json(env));
  put_real(report, "measured_s", seconds(measured));
  std::string list = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) list += ",";
    list += record_json(records[i]);
  }
  report.emplace_back("experiments", list + "]");
  std::printf("%s\n", to_json(report).c_str());
  return 0;
}

}  // namespace
}  // namespace vdbbench

int main(int argc, char** argv) { return vdbbench::run(argc, argv); }
