// ExperimentRunner: the parallel fan-out must be invisible in the results —
// element-wise identical to serial execution — and a failing experiment must
// surface its Status without wedging the pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "benchmark/experiment.hpp"
#include "benchmark/recovery_configs.hpp"
#include "benchmark/runner.hpp"

namespace vdb::bench {
namespace {

ExperimentOptions small_options(std::uint64_t seed) {
  ExperimentOptions opts;
  opts.config = RecoveryConfigSpec{"F10G3T1", 10, 3, 60};
  opts.duration = 2 * kMinute;
  opts.seed = seed;
  opts.scale.warehouses = 1;
  opts.scale.customers_per_district = 30;
  opts.scale.items = 100;
  opts.scale.initial_orders_per_district = 30;
  return opts;
}

std::vector<LabelledExperiment> small_batch() {
  std::vector<LabelledExperiment> batch;
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    ExperimentOptions opts = small_options(seed);
    if (seed == 33u) {
      faults::FaultSpec fault;
      fault.type = faults::FaultType::kShutdownAbort;
      fault.inject_at = 30 * kSecond;
      fault.tablespace = "TPCC";
      fault.table = "history";
      opts.fault = fault;
    }
    batch.push_back({"seed-" + std::to_string(seed), opts});
  }
  return batch;
}

void expect_same_result(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.intentional_rollbacks, b.intentional_rollbacks);
  EXPECT_EQ(a.failed_attempts, b.failed_attempts);
  EXPECT_DOUBLE_EQ(a.tpmc, b.tpmc);
  EXPECT_DOUBLE_EQ(a.tpm_total, b.tpm_total);
  EXPECT_EQ(a.series, b.series);
  for (const CounterColumn& column : kCounterColumns) {
    EXPECT_EQ(a.metrics.counter(column.counter),
              b.metrics.counter(column.counter))
        << column.key;
  }
  EXPECT_EQ(a.redo_bytes, b.redo_bytes);
  EXPECT_EQ(a.fault_injected, b.fault_injected);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.recovery_time, b.recovery_time);
  EXPECT_EQ(a.lost_committed, b.lost_committed);
  EXPECT_EQ(a.integrity_violations, b.integrity_violations);
}

TEST(ExperimentRunner, ParallelMatchesSerial) {
  const std::vector<LabelledExperiment> batch = small_batch();

  ExperimentRunner serial(1);
  auto serial_outcomes = serial.run_all(batch);

  ExperimentRunner parallel(4);
  auto parallel_outcomes = parallel.run_all(batch);

  ASSERT_EQ(serial_outcomes.size(), batch.size());
  ASSERT_EQ(parallel_outcomes.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(serial_outcomes[i].label, batch[i].label);
    EXPECT_EQ(parallel_outcomes[i].label, batch[i].label);
    ASSERT_TRUE(serial_outcomes[i].result.is_ok())
        << serial_outcomes[i].result.status().to_string();
    ASSERT_TRUE(parallel_outcomes[i].result.is_ok())
        << parallel_outcomes[i].result.status().to_string();
    expect_same_result(serial_outcomes[i].result.value(),
                       parallel_outcomes[i].result.value());
  }
}

TEST(ExperimentRunner, FailingExperimentSurfacesStatus) {
  std::vector<LabelledExperiment> batch = small_batch();
  // A tablespace with zero datafiles cannot hold the TPC-C load: the
  // harness reports the error instead of producing a result.
  ExperimentOptions broken = small_options(99);
  broken.datafiles = 0;
  batch.insert(batch.begin() + 1, {"broken", broken});

  ExperimentRunner runner(4);
  auto outcomes = runner.run_all(batch);
  ASSERT_EQ(outcomes.size(), batch.size());

  EXPECT_FALSE(outcomes[1].result.is_ok());
  EXPECT_EQ(outcomes[1].label, "broken");
  // Every other experiment still completed: the pool drained the queue.
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 1) continue;
    EXPECT_TRUE(outcomes[i].result.is_ok())
        << outcomes[i].result.status().to_string();
  }
}

TEST(ExperimentRunner, DefaultJobsRespectsEnv) {
  // Not parallel-safe with other env tests, but the suite runs these
  // serially within one process.
  setenv("VDB_JOBS", "3", 1);
  EXPECT_EQ(ExperimentRunner::default_jobs(), 3u);
  setenv("VDB_JOBS", "0", 1);
  EXPECT_EQ(ExperimentRunner::default_jobs(), 1u);
  unsetenv("VDB_JOBS");
  EXPECT_GE(ExperimentRunner::default_jobs(), 1u);
}

}  // namespace
}  // namespace vdb::bench
