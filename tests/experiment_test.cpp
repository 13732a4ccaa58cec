// End-to-end dependability-benchmark experiments: the paper's methodology
// executed at test scale, asserting the headline findings hold on our
// implementation:
//  - every injected fault is recovered by the matching procedure,
//  - NO fault causes data-integrity violations (the paper's key claim),
//  - complete recovery loses no committed transactions,
//  - incomplete recovery and failover lose a bounded tail.
#include <gtest/gtest.h>

#include <string_view>

#include "benchmark/experiment.hpp"

namespace vdb::bench {
namespace {

ExperimentOptions base_options() {
  ExperimentOptions opts;
  opts.config = RecoveryConfigSpec{"F10G3T1", 10, 3, 60};
  opts.duration = 4 * kMinute;
  opts.scale.warehouses = 1;
  opts.scale.customers_per_district = 100;
  opts.scale.items = 1000;
  opts.scale.initial_orders_per_district = 100;
  opts.seed = 4242;
  return opts;
}

faults::FaultSpec fault(faults::FaultType type) {
  faults::FaultSpec spec;
  spec.type = type;
  spec.inject_at = 100 * kSecond;
  spec.tablespace = "TPCC";
  spec.table = "history";
  return spec;
}

TEST(Experiment, BaselineRunsCleanly) {
  ExperimentOptions opts = base_options();
  Experiment exp(opts);
  auto result = exp.run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_GT(result.value().tpmc, 100.0);
  EXPECT_GT(result.value().committed, 1000u);
  EXPECT_EQ(result.value().integrity_violations, 0u);
  EXPECT_FALSE(result.value().fault_injected);
  EXPECT_FALSE(result.value().series.empty());
}

TEST(Experiment, ArchiveModeCostsLittle) {
  ExperimentOptions plain = base_options();
  ExperimentOptions archived = base_options();
  archived.archive_mode = true;
  auto r1 = Experiment(plain).run();
  auto r2 = Experiment(archived).run();
  ASSERT_TRUE(r1.is_ok());
  ASSERT_TRUE(r2.is_ok());
  // Paper Figure 5: moderate impact — always less than 15% here.
  EXPECT_GT(r2.value().tpmc, r1.value().tpmc * 0.85);
  EXPECT_LE(r2.value().tpmc, r1.value().tpmc * 1.001);
}

TEST(Experiment, ShutdownAbortRecoversLosslessly) {
  ExperimentOptions opts = base_options();
  opts.fault = fault(faults::FaultType::kShutdownAbort);
  auto result = Experiment(opts).run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().recovered);
  EXPECT_TRUE(result.value().recovery_complete);
  EXPECT_EQ(result.value().lost_committed, 0u);   // paper §5.1
  EXPECT_EQ(result.value().integrity_violations, 0u);
  EXPECT_GT(result.value().recovery_time, 0u);
}

TEST(Experiment, DeleteDatafileRecoversCompletely) {
  ExperimentOptions opts = base_options();
  opts.archive_mode = true;
  opts.fault = fault(faults::FaultType::kDeleteDatafile);
  auto result = Experiment(opts).run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().recovered);
  EXPECT_TRUE(result.value().recovery_complete);
  EXPECT_EQ(result.value().lost_committed, 0u);   // complete recovery
  EXPECT_EQ(result.value().integrity_violations, 0u);
  EXPECT_GT(result.value().archives_read, 0u);
}

TEST(Experiment, SetDatafileOfflineRollsForwardFast) {
  ExperimentOptions opts = base_options();
  opts.archive_mode = true;
  opts.fault = fault(faults::FaultType::kSetDatafileOffline);
  auto result = Experiment(opts).run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().recovered);
  EXPECT_EQ(result.value().lost_committed, 0u);
  EXPECT_EQ(result.value().integrity_violations, 0u);
  EXPECT_LT(result.value().recovery_time, 30 * kSecond);
}

TEST(Experiment, SetTablespaceOfflineRecoversInAboutASecond) {
  ExperimentOptions opts = base_options();
  opts.archive_mode = true;
  opts.fault = fault(faults::FaultType::kSetTablespaceOffline);
  auto result = Experiment(opts).run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().recovered);
  EXPECT_EQ(result.value().lost_committed, 0u);
  EXPECT_EQ(result.value().integrity_violations, 0u);
  // Paper Table 5: "always close to 1 second".
  EXPECT_LT(result.value().recovery_time, 3 * kSecond);
}

TEST(Experiment, DropTableNeedsIncompleteRecovery) {
  ExperimentOptions opts = base_options();
  opts.archive_mode = true;
  opts.fault = fault(faults::FaultType::kDeleteUserObject);
  auto result = Experiment(opts).run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().recovered);
  EXPECT_FALSE(result.value().recovery_complete);
  // Paper §5.2: loss is consistently very small (recovery starts at once).
  EXPECT_LE(result.value().lost_committed, 5u);
  EXPECT_EQ(result.value().integrity_violations, 0u);
  EXPECT_GT(result.value().archives_read, 0u);
}

TEST(Experiment, DropTablespaceNeedsIncompleteRecovery) {
  ExperimentOptions opts = base_options();
  opts.archive_mode = true;
  opts.fault = fault(faults::FaultType::kDeleteTablespace);
  auto result = Experiment(opts).run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().recovered);
  EXPECT_FALSE(result.value().recovery_complete);
  EXPECT_LE(result.value().lost_committed, 5u);
  EXPECT_EQ(result.value().integrity_violations, 0u);
}

TEST(Experiment, StandbyFailoverLosesUnarchivedTail) {
  ExperimentOptions opts = base_options();
  opts.with_standby = true;
  opts.fault = fault(faults::FaultType::kShutdownAbort);
  auto result = Experiment(opts).run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().recovered);
  EXPECT_FALSE(result.value().recovery_complete);
  EXPECT_GT(result.value().lost_committed, 0u);  // unarchived tail
  EXPECT_EQ(result.value().integrity_violations, 0u);
}

TEST(Experiment, StandbyLossShrinksWithSmallerRedoFiles) {
  // Paper Figure 7: the exposed window is the current redo group.
  std::uint64_t lost_small = 0, lost_large = 0;
  {
    ExperimentOptions opts = base_options();
    opts.config = RecoveryConfigSpec{"F1G3T1", 1, 3, 60};
    opts.with_standby = true;
    opts.fault = fault(faults::FaultType::kShutdownAbort);
    auto result = Experiment(opts).run();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    lost_small = result.value().lost_committed;
  }
  {
    ExperimentOptions opts = base_options();
    opts.config = RecoveryConfigSpec{"F10G3T1", 10, 3, 60};
    opts.with_standby = true;
    opts.fault = fault(faults::FaultType::kShutdownAbort);
    auto result = Experiment(opts).run();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    lost_large = result.value().lost_committed;
  }
  EXPECT_LT(lost_small, lost_large);
}

TEST(Experiment, HigherCheckpointRateShortensCrashRecovery) {
  // Paper Figure 4 / Table 5 shutdown-abort rows: more checkpointing →
  // shorter instance recovery.
  SimDuration slow_ckpt_time = 0, fast_ckpt_time = 0;
  {
    ExperimentOptions opts = base_options();
    opts.config = RecoveryConfigSpec{"F100G3T20", 100, 3, 1200};
    opts.fault = fault(faults::FaultType::kShutdownAbort);
    auto result = Experiment(opts).run();
    ASSERT_TRUE(result.is_ok());
    slow_ckpt_time = result.value().recovery_time;
  }
  {
    ExperimentOptions opts = base_options();
    opts.config = RecoveryConfigSpec{"F1G3T1", 1, 3, 60};
    opts.fault = fault(faults::FaultType::kShutdownAbort);
    auto result = Experiment(opts).run();
    ASSERT_TRUE(result.is_ok());
    fast_ckpt_time = result.value().recovery_time;
  }
  EXPECT_LT(fast_ckpt_time, slow_ckpt_time);
}

TEST(Experiment, SmallRedoFilesCheckpointMore) {
  // Paper Table 3: checkpoint count scales with redo volume / file size.
  std::uint64_t ckpt_small = 0, ckpt_large = 0;
  {
    ExperimentOptions opts = base_options();
    opts.config = RecoveryConfigSpec{"F1G3T1", 1, 3, 60};
    auto result = Experiment(opts).run();
    ASSERT_TRUE(result.is_ok());
    ckpt_small = result.value().metrics.counter("checkpoints full");
  }
  {
    ExperimentOptions opts = base_options();
    opts.config = RecoveryConfigSpec{"F100G3T1", 100, 3, 60};
    auto result = Experiment(opts).run();
    ASSERT_TRUE(result.is_ok());
    ckpt_large = result.value().metrics.counter("checkpoints full");
  }
  EXPECT_GT(ckpt_small, 5 * std::max<std::uint64_t>(ckpt_large, 1));
}

// The "Backups missing" arm of the two-fault campaign at quick duration:
// destroyed backups turn the delete-datafile media recovery into a failed
// restore, so the procedure never swaps in a new incarnation. Each reported
// column must count the instance's checkpoints and switches once: 8 full,
// 3 incremental and 7 switches, as the statistics area counted them.
TEST(Experiment, FailedRecoveryReportsEachCheckpointOnce) {
  ExperimentOptions opts;
  opts.config = RecoveryConfigSpec{"F10G3T1", 10, 3, 60};
  opts.archive_mode = true;
  opts.duration = 6 * kMinute;
  opts.seed = 20020623;
  opts.fault = fault(faults::FaultType::kDeleteDatafile);
  opts.fault->inject_at = 150 * kSecond;
  opts.fault->datafile_index = 0;
  faults::ExtendedFaultSpec latent;
  latent.type = faults::ExtendedFaultType::kDestroyBackups;
  latent.tablespace = "TPCC";
  opts.latent_fault = latent;
  opts.latent_inject_at = 60 * kSecond;

  auto result = Experiment(opts).run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ExperimentResult& r = result.value();
  ASSERT_FALSE(r.recovered);
  auto column = [&](std::string_view key) -> std::uint64_t {
    for (const CounterColumn& c : kCounterColumns) {
      if (c.key == key) return r.metrics.counter(c.counter);
    }
    ADD_FAILURE() << "no counter column " << key;
    return 0;
  };
  EXPECT_EQ(column("full_checkpoints"), 8u);
  EXPECT_EQ(column("incremental_checkpoints"), 3u);
  EXPECT_EQ(column("log_switches"), 7u);
}

}  // namespace
}  // namespace vdb::bench
