// The paper's §4 testbed, built in one place: a primary server with four
// disks (data, online redo, archive destination, backup area) running the
// TPC-C database under one recovery configuration, its reference backup,
// and optionally a stand-by server with the same disks, fed over a network
// link by archive shipping.
//
// `Experiment::run` builds one testbed; a fleet builds one per shard (each
// `fleet::Shard` is a Testbed). The testbed owns the statistics area, so
// counters, wait events and the recovery trace survive every incarnation
// swap: each restart builds a new Database that registers into the same
// registry, and a stand-by merges into it too.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/experiment.hpp"
#include "common/status.hpp"
#include "engine/database.hpp"
#include "obs/observability.hpp"
#include "recovery/backup.hpp"
#include "sim/host.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "standby/standby.hpp"
#include "tpcc/tpcc_db.hpp"

namespace vdb::bench {

class Testbed {
 public:
  /// Host and database names: they appear in disk names and statistics.
  struct Names {
    std::string primary = "primary";
    std::string standby = "standby";
    std::string database = "tpcc";
  };

  /// Borrows the scheduler (and through it the clock) the testbed runs on.
  explicit Testbed(sim::Scheduler* sched) : sched_(sched) {}
  /// Restarted instances call back into the testbed that built them.
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Creates the instance, the TPCC tablespace, user and schema, attaches
  /// the access paths and loads `warehouses` (every warehouse of
  /// `opts.scale` when empty; the loader seed derives from `opts.seed`).
  /// Then instantiates the stand-by and wires archive shipping when
  /// `opts.with_standby`, else takes the reference backup.
  Status build(const ExperimentOptions& opts, const Names& names,
               const std::vector<std::uint32_t>& warehouses = {});

  /// Instance restart: a fresh incarnation on the primary host mounts the
  /// surviving files (the access paths attach as it mounts, so the rebuild
  /// scan fills them) and instance-recovers from its own redo, running
  /// `post_recovery_hook` before the rebuild scan. It replaces `db` only
  /// when it opens, and re-wires archive shipping to the stand-by.
  Status restart(std::function<Status(engine::Database&)> post_recovery_hook =
                     nullptr);

  /// The instance serving the workload: the stand-by once activated,
  /// else the primary.
  engine::Database& serving_db() const {
    return standby != nullptr && standby->active() ? standby->db() : *db;
  }

  std::unique_ptr<sim::Host> primary_host;
  std::unique_ptr<sim::Host> standby_host;
  std::unique_ptr<sim::NetworkLink> link;
  std::unique_ptr<obs::Observability> obs;
  engine::DatabaseConfig cfg;
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<tpcc::TpccDb> tdb;
  std::unique_ptr<recovery::BackupManager> backups;
  std::unique_ptr<standby::StandbyDatabase> standby;

 private:
  /// Points the primary's archiver at the stand-by (no-op without one).
  void wire_shipping();

  sim::Scheduler* sched_;
};

}  // namespace vdb::bench
