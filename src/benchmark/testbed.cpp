#include "benchmark/testbed.hpp"

#include <cstdio>
#include <utility>

#include "tpcc/tpcc_loader.hpp"

namespace vdb::bench {

namespace {

void add_standard_disks(sim::Host& host) {
  // The paper's testbed: four disks per server. Data, online redo, archive
  // destination, and backup area each get their own device.
  host.add_disk("/data");
  host.add_disk("/redo");
  host.add_disk("/arch");
  host.add_disk("/backup");
}

engine::DatabaseConfig make_db_config(const ExperimentOptions& opts,
                                      const std::string& name) {
  engine::DatabaseConfig cfg;
  cfg.name = name;
  cfg.redo.file_size_bytes =
      static_cast<std::uint64_t>(opts.config.file_mb) * 1024 * 1024;
  cfg.redo.groups = opts.config.groups;
  // Stand-by shipping needs archives.
  cfg.redo.archive_mode = opts.archive_mode || opts.with_standby;
  cfg.checkpoint_timeout =
      static_cast<SimDuration>(opts.config.timeout_sec) * kSecond;
  cfg.storage.cache_pages = opts.cache_pages;
  cfg.restart_mode = opts.restart_mode;
  cfg.early_open_stall = opts.early_open_stall;
  cfg.cc_protocol = opts.cc_protocol;
  return cfg;
}

}  // namespace

Status Testbed::build(const ExperimentOptions& opts, const Names& names,
                      const std::vector<std::uint32_t>& warehouses) {
  sim::VirtualClock* clock = &sched_->clock();
  primary_host = std::make_unique<sim::Host>(names.primary, clock);
  add_standard_disks(*primary_host);
  obs = std::make_unique<obs::Observability>();
  cfg = make_db_config(opts, names.database);
  cfg.obs = obs.get();
  db = std::make_unique<engine::Database>(primary_host.get(), sched_, cfg);
  VDB_RETURN_IF_ERROR(db->create());

  // TPCC tablespace spread over the data disk's files.
  std::vector<std::pair<std::string, std::uint32_t>> files;
  for (std::uint32_t i = 0; i < opts.datafiles; ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "/data/tpcc%02u.dbf", i + 1);
    files.emplace_back(buf, opts.datafile_blocks);
  }
  auto ts = db->create_tablespace("TPCC", files);
  if (!ts.is_ok()) return ts.status();
  auto user = db->create_user("TPCC", /*is_dba=*/false);
  if (!user.is_ok()) return user.status();

  tdb = std::make_unique<tpcc::TpccDb>(opts.scale);
  VDB_RETURN_IF_ERROR(tdb->create_schema(*db, "TPCC", user.value()));
  VDB_RETURN_IF_ERROR(tdb->attach(db.get()));
  tpcc::Loader loader(tdb.get(), opts.seed ^ 0x10ad5eedull);
  auto load =
      warehouses.empty() ? loader.load() : loader.load_warehouses(warehouses);
  if (!load.is_ok()) return load.status();

  backups = std::make_unique<recovery::BackupManager>(&primary_host->fs(),
                                                      "/backup");
  if (!opts.with_standby) return backups->take_backup(*db).status();

  standby_host = std::make_unique<sim::Host>(names.standby, clock);
  add_standard_disks(*standby_host);
  link = std::make_unique<sim::NetworkLink>();
  standby::StandbyConfig scfg;
  scfg.db = cfg;
  standby = std::make_unique<standby::StandbyDatabase>(
      standby_host.get(), sched_, scfg, link.get());
  VDB_RETURN_IF_ERROR(standby->instantiate_from(*db, *backups));
  wire_shipping();
  return Status::ok();
}

Status Testbed::restart(
    std::function<Status(engine::Database&)> post_recovery_hook) {
  // A crashed incarnation never comes back: a fresh instance mounts the
  // surviving files and instance-recovers from the redo stream.
  auto fresh = std::make_unique<engine::Database>(primary_host.get(), sched_,
                                                  cfg);
  fresh->set_on_mounted([this](engine::Database& d) { (void)tdb->attach(&d); });
  if (post_recovery_hook) {
    fresh->set_post_recovery_hook(std::move(post_recovery_hook));
  }
  VDB_RETURN_IF_ERROR(fresh->startup());
  db = std::move(fresh);
  wire_shipping();
  return Status::ok();
}

void Testbed::wire_shipping() {
  if (standby == nullptr) return;
  sim::SimFs* primary_fs = &primary_host->fs();
  standby::StandbyDatabase* sb = standby.get();
  db->archiver().on_archived = [primary_fs, sb](const std::string& path,
                                                std::uint64_t seq,
                                                SimTime done_at) {
    sb->on_primary_archive(*primary_fs, path, seq, done_at);
  };
}

}  // namespace vdb::bench
