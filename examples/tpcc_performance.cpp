// Pure TPC-C performance run: the per-interval throughput series the
// paper's performance figures are built from, including the cold-cache
// ramp-up over the first intervals.
//
// Build & run:  cmake --build build && ./build/examples/tpcc_performance
//               [--archive] [--minutes N]   (default: 10 simulated minutes)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "benchmark/experiment.hpp"
#include "recovery/backup.hpp"
#include "tpcc/tpcc_driver.hpp"
#include "tpcc/tpcc_loader.hpp"

using namespace vdb;
using namespace vdb::bench;

int main(int argc, char** argv) {
  ExperimentOptions opts;
  opts.config = RecoveryConfigSpec{"F40G3T10", 40, 3, 600};
  opts.duration = 10 * kMinute;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--archive") {
      opts.archive_mode = true;
    } else if (arg == "--minutes" && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long minutes = std::strtoul(argv[++i], &end, 10);
      if (minutes == 0 || *end != '\0' || argv[i][0] == '-') {
        std::fprintf(stderr, "usage: %s [--archive] [--minutes N]\n", argv[0]);
        return 2;
      }
      opts.duration = minutes * kMinute;
    } else {
      std::fprintf(stderr, "usage: %s [--archive] [--minutes N]\n", argv[0]);
      return 2;
    }
  }

  std::printf("TPC-C run: config %s, archive %s, %u warehouses, %s\n\n",
              opts.config.name, opts.archive_mode ? "on" : "off",
              opts.scale.warehouses,
              format_duration(opts.duration).c_str());

  Experiment experiment(opts);
  auto result = experiment.run();
  if (!result.is_ok()) {
    std::printf("experiment failed: %s\n", result.status().to_string().c_str());
    return 1;
  }
  const ExperimentResult& r = result.value();

  std::printf("throughput series (New-Order commits per %s interval):\n",
              format_duration(r.series_interval).c_str());
  for (size_t i = 0; i < r.series.size(); ++i) {
    const double tpmc = static_cast<double>(r.series[i]) * 60.0 /
                        to_seconds(r.series_interval);
    std::printf("  t=%4us  %5u txns  %7.1f tpmC  |%s\n",
                static_cast<unsigned>(i * to_seconds(r.series_interval)),
                r.series[i], tpmc,
                std::string(static_cast<size_t>(tpmc / 25), '#').c_str());
  }

  std::printf("\noverall: %.1f tpmC (%llu commits, %llu business rollbacks, "
              "%llu checkpoints, %llu log switches)\n",
              r.tpmc, static_cast<unsigned long long>(r.committed),
              static_cast<unsigned long long>(r.intentional_rollbacks),
              static_cast<unsigned long long>(
                  r.metrics.counter("checkpoints full")),
              static_cast<unsigned long long>(
                  r.metrics.counter("log switches")));
  std::printf("integrity: %u checks, %u violations\n", r.integrity_checks,
              r.integrity_violations);

  // Response-time report (TPC-C clause 5.5 style), from a direct run.
  {
    sim::VirtualClock clock;
    sim::Scheduler sched(&clock);
    sim::Host host("rt", &clock);
    host.add_disk("/data");
    host.add_disk("/redo");
    host.add_disk("/arch");
    host.add_disk("/backup");
    engine::DatabaseConfig cfg;
    auto db = std::make_unique<engine::Database>(&host, &sched, cfg);
    VDB_CHECK(db->create().is_ok());
    VDB_CHECK(db->create_tablespace("TPCC", {{"/data/t1.dbf", 512},
                                             {"/data/t2.dbf", 512}})
                  .is_ok());
    auto user = db->create_user("TPCC", false);
    tpcc::TpccDb tdb(opts.scale);
    VDB_CHECK(tdb.create_schema(*db, "TPCC", user.value()).is_ok());
    VDB_CHECK(tdb.attach(db.get()).is_ok());
    tpcc::Loader loader(&tdb, 77);
    VDB_CHECK(loader.load().is_ok());
    tpcc::Driver driver(&tdb, &sched, tpcc::DriverConfig{77});
    VDB_CHECK(driver.run_until(clock.now() + 2 * kMinute).is_ok());

    std::printf("\nresponse times (mean / 90th percentile):\n");
    for (tpcc::TxnType type :
         {tpcc::TxnType::kNewOrder, tpcc::TxnType::kPayment,
          tpcc::TxnType::kOrderStatus, tpcc::TxnType::kDelivery,
          tpcc::TxnType::kStockLevel}) {
      std::printf("  %-12s %8s / %8s\n", tpcc::to_string(type),
                  format_duration(driver.mean_response(type)).c_str(),
                  format_duration(
                      driver.response_percentile(type, 0.9)).c_str());
    }
  }
  return 0;
}
