// Transaction coordinator and concurrency-control tests, built as a
// separate binary (label: concurrency) so the cc-stress CI job can run
// exactly this suite under ThreadSanitizer.
//
// Covers: serial equivalence at workers=1, the 2PL vs OCC conflict matrix
// through the plug-in contract, wait-die deadlock freedom under an 8-thread
// stress load, throughput scaling, and crash-during-concurrent-execution
// recovery — including the byte-identical replay at 1 vs 4 redo jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <thread>
#include <vector>

#include "benchmark/experiment.hpp"
#include "txn/coordinator.hpp"

namespace vdb::bench {
namespace {

ExperimentOptions cc_options() {
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

faults::FaultSpec crash_at(SimDuration at) {
  faults::FaultSpec spec;
  spec.type = faults::FaultType::kShutdownAbort;
  spec.inject_at = at;
  spec.tablespace = "TPCC";
  spec.table = "history";
  return spec;
}

TxnId tid(std::uint64_t n) { return TxnId{n}; }

txn::LockTarget target(std::uint32_t n) {
  return txn::LockTarget::for_row(TableId{1},
                                  RowId{PageId{FileId{1}, n}, 0});
}

// --- serial equivalence ----------------------------------------------------

TEST(Coordinator, WorkersOneIsByteIdenticalToSerialDriver) {
  auto base = Experiment(cc_options()).run();
  ASSERT_TRUE(base.is_ok()) << base.status().to_string();
  for (const txn::CcProtocol protocol :
       {txn::CcProtocol::k2pl, txn::CcProtocol::kOcc}) {
    ExperimentOptions opts = cc_options();
    opts.workers = 1;
    opts.cc_protocol = protocol;
    auto r = Experiment(opts).run();
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().committed, base.value().committed)
        << txn::to_string(protocol);
    EXPECT_EQ(r.value().tpmc, base.value().tpmc) << txn::to_string(protocol);
    EXPECT_EQ(r.value().redo_bytes, base.value().redo_bytes)
        << txn::to_string(protocol);
    EXPECT_EQ(r.value().cc_aborts, 0u);
    EXPECT_EQ(r.value().cc_retries, 0u);
    EXPECT_EQ(r.value().workers, 1u);
  }
}

// --- the conflict matrix through the plug-in contract ----------------------

TEST(ConcurrencyControl, TwoPlSharedReadersCoexist) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::k2pl);
  EXPECT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kRead, true).is_ok());
  EXPECT_TRUE(cc->mediate(tid(2), target(1), txn::AccessMode::kRead, true).is_ok());
  cc->end(tid(1), true);
  cc->end(tid(2), true);
  EXPECT_EQ(cc->stats().committed, 2u);
  EXPECT_EQ(cc->stats().wait_die_aborts, 0u);
}

TEST(ConcurrencyControl, TwoPlYoungerWriterDies) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::k2pl);
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kWrite, true).is_ok());
  // Younger (larger id) requester vs older holder: dies, never waits.
  auto st = cc->mediate(tid(2), target(1), txn::AccessMode::kWrite, true);
  EXPECT_EQ(st.code(), ErrorCode::kDeadlock);
  // Shared request conflicts with the exclusive holder the same way.
  EXPECT_EQ(cc->mediate(tid(2), target(1), txn::AccessMode::kRead, true).code(),
            ErrorCode::kDeadlock);
  cc->end(tid(1), true);
  cc->end(tid(2), false);
  EXPECT_EQ(cc->stats().wait_die_aborts, 2u);
}

TEST(ConcurrencyControl, TwoPlOlderWriterWaitsForYoungerRelease) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::k2pl);
  ASSERT_TRUE(cc->mediate(tid(5), target(1), txn::AccessMode::kWrite, true).is_ok());
  std::atomic<bool> acquired{false};
  std::thread older([&] {
    // Txn 2 is older than holder 5: allowed to block until 5 resolves.
    ASSERT_TRUE(
        cc->mediate(tid(2), target(1), txn::AccessMode::kWrite, true).is_ok());
    acquired.store(true);
    cc->end(tid(2), true);
  });
  // Wait until txn 2 is inside mediate. stats() needs the protocol mutex,
  // which mediate holds from entry until its condition-variable wait — so
  // once begun reads 2, the older transaction is already blocked.
  while (cc->stats().begun < 2) std::this_thread::yield();
  cc->end(tid(5), true);
  older.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(cc->stats().committed, 2u);
  EXPECT_GE(cc->stats().lock_waits, 1u);
}

TEST(ConcurrencyControl, TwoPlNonWaitableRequestDiesInsteadOfBlocking) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::k2pl);
  ASSERT_TRUE(cc->mediate(tid(5), target(1), txn::AccessMode::kWrite, true).is_ok());
  // Older than the holder but may_wait=false (the insert path): dies.
  EXPECT_EQ(cc->mediate(tid(2), target(1), txn::AccessMode::kWrite, false).code(),
            ErrorCode::kDeadlock);
  cc->end(tid(5), true);
  cc->end(tid(2), false);
}

TEST(ConcurrencyControl, TwoPlRepeatSharedReadThenUpgradeIsGranted) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::k2pl);
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kRead, true).is_ok());
  ASSERT_TRUE(cc->mediate(tid(2), target(1), txn::AccessMode::kRead, true).is_ok());
  // A repeat read by a holder among several must not list it twice: once
  // txn 2 leaves, txn 1 is the sole holder and may upgrade.
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kRead, true).is_ok());
  cc->end(tid(2), true);
  // may_wait=false: a self-wait would otherwise block forever, not fail.
  EXPECT_TRUE(
      cc->mediate(tid(1), target(1), txn::AccessMode::kWrite, false).is_ok());
  cc->end(tid(1), true);
  EXPECT_EQ(cc->stats().committed, 2u);
  EXPECT_EQ(cc->stats().lock_waits, 0u);
  EXPECT_EQ(cc->stats().wait_die_aborts, 0u);
}

TEST(ConcurrencyControl, OccStaleReadFailsValidation) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::kOcc);
  // Txn 1 reads the row, then txn 2 writes and commits it.
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kRead, true).is_ok());
  ASSERT_TRUE(cc->mediate(tid(2), target(1), txn::AccessMode::kWrite, true).is_ok());
  ASSERT_TRUE(cc->validate(tid(2)).is_ok());
  cc->publish(tid(2));
  cc->end(tid(2), true);
  // Txn 1's read set is now stale: commit-time validation must fail.
  EXPECT_EQ(cc->validate(tid(1)).code(), ErrorCode::kTxnAborted);
  cc->end(tid(1), false);
  EXPECT_EQ(cc->stats().occ_validate_fails, 1u);
}

TEST(ConcurrencyControl, OccWriteAfterStaleReadDiesEarly) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::kOcc);
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kRead, true).is_ok());
  ASSERT_TRUE(cc->mediate(tid(2), target(1), txn::AccessMode::kWrite, true).is_ok());
  ASSERT_TRUE(cc->validate(tid(2)).is_ok());
  cc->publish(tid(2));
  cc->end(tid(2), true);
  // Read-modify-write on a version that moved: dies at the write, before
  // any redo/undo is generated for doomed work.
  EXPECT_EQ(cc->mediate(tid(1), target(1), txn::AccessMode::kWrite, true).code(),
            ErrorCode::kTxnAborted);
  cc->end(tid(1), false);
  EXPECT_EQ(cc->stats().occ_validate_fails, 1u);
}

TEST(ConcurrencyControl, OccReadersDoNotBlockEachOtherOrValidationWithoutWriters) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::kOcc);
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kRead, true).is_ok());
  ASSERT_TRUE(cc->mediate(tid(2), target(1), txn::AccessMode::kRead, true).is_ok());
  EXPECT_TRUE(cc->validate(tid(1)).is_ok());
  EXPECT_TRUE(cc->validate(tid(2)).is_ok());
  cc->end(tid(1), true);
  cc->end(tid(2), true);
  EXPECT_EQ(cc->stats().occ_validate_fails, 0u);
  EXPECT_EQ(cc->stats().wait_die_aborts, 0u);
}

TEST(ConcurrencyControl, OccReadOverlappingAbortedWriterFailsValidation) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::kOcc);
  // Txn 1 stamps its read, then txn 2 write-locks the row and ABORTS.
  // The stamp is taken in mediate but the bytes are read later under the
  // engine latch, so txn 1 may have seen txn 2's in-place bytes before
  // the rollback undid them: validation must fail even though no commit
  // ever moved the row.
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kRead, true).is_ok());
  ASSERT_TRUE(cc->mediate(tid(2), target(1), txn::AccessMode::kWrite, true).is_ok());
  cc->end(tid(2), false);
  EXPECT_EQ(cc->validate(tid(1)).code(), ErrorCode::kTxnAborted);
  cc->end(tid(1), false);
  EXPECT_EQ(cc->stats().occ_validate_fails, 1u);
}

TEST(ConcurrencyControl, OwnWriteThenReadNeedsNoVersionCheck) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::kOcc);
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kWrite, true).is_ok());
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kRead, true).is_ok());
  EXPECT_TRUE(cc->validate(tid(1)).is_ok());
  cc->publish(tid(1));
  cc->end(tid(1), true);
  EXPECT_EQ(cc->stats().committed, 1u);
}

// --- wait-die deadlock freedom under stress --------------------------------

// 8 threads x 200 transactions over 8 hot rows, each transaction locking a
// random subset in a random order — the classic deadlock recipe. Wait-die
// must resolve every conflict (by blocking or by aborting the younger);
// the ctest TIMEOUT property converts a lost wakeup or cycle into a
// failure. Run for both protocols: OCC's writer locks use the same table.
class WaitDieStress : public ::testing::TestWithParam<txn::CcProtocol> {};

TEST_P(WaitDieStress, NoDeadlockAndNoLostTransactions) {
  auto cc = txn::make_concurrency_control(GetParam());
  constexpr unsigned kThreads = 8;
  constexpr unsigned kTxnsPerThread = 200;
  constexpr std::uint32_t kRows = 8;
  std::atomic<std::uint64_t> next_txn{1};
  std::atomic<std::uint64_t> committed{0};
  std::atomic<std::uint64_t> aborted{0};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(t * 7919u + 17u);
      for (unsigned i = 0; i < kTxnsPerThread; ++i) {
        const TxnId txn = tid(next_txn.fetch_add(1));
        const unsigned locks = 2 + rng() % 3;
        bool ok = true;
        for (unsigned j = 0; j < locks && ok; ++j) {
          const auto mode = (rng() % 2 == 0) ? txn::AccessMode::kRead
                                             : txn::AccessMode::kWrite;
          ok = cc->mediate(txn, target(rng() % kRows), mode, true).is_ok();
        }
        cc->end(txn, ok);
        (ok ? committed : aborted).fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const txn::CcStats stats = cc->stats();
  EXPECT_EQ(committed.load() + aborted.load(), kThreads * kTxnsPerThread);
  EXPECT_EQ(stats.begun, kThreads * kTxnsPerThread);
  EXPECT_EQ(stats.committed, committed.load());
  EXPECT_EQ(stats.aborts, aborted.load());
  EXPECT_GT(committed.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, WaitDieStress,
                         ::testing::Values(txn::CcProtocol::k2pl,
                                           txn::CcProtocol::kOcc),
                         [](const auto& info) {
                           return std::string(txn::to_string(info.param));
                         });

// --- the worker pool -------------------------------------------------------

TEST(Coordinator, RoundBarrierRunsEveryWorkerEachRound) {
  txn::TxnCoordinator::Config cfg;
  cfg.workers = 4;
  txn::TxnCoordinator coord(cfg);
  ASSERT_EQ(coord.workers(), 4u);
  std::atomic<unsigned> calls{0};
  for (int round = 0; round < 10; ++round) {
    coord.run_round([&](unsigned) { calls.fetch_add(1); });
  }
  EXPECT_EQ(calls.load(), 40u);
}

// --- end-to-end concurrent workload ----------------------------------------

TEST(Coordinator, ThroughputScalesFaultFree) {
  ExperimentOptions one = cc_options();
  ExperimentOptions four = cc_options();
  four.workers = 4;
  auto r1 = Experiment(one).run();
  auto r4 = Experiment(four).run();
  ASSERT_TRUE(r1.is_ok()) << r1.status().to_string();
  ASSERT_TRUE(r4.is_ok()) << r4.status().to_string();
  EXPECT_EQ(r4.value().integrity_violations, 0u);
  // Four workers model four processors; even with single-warehouse
  // contention the makespan rounds must beat the serial loop clearly.
  EXPECT_GT(r4.value().tpmc, r1.value().tpmc * 1.3);
  EXPECT_GT(r4.value().committed, r1.value().committed);
}

class CrashUnderLoad : public ::testing::TestWithParam<txn::CcProtocol> {};

TEST_P(CrashUnderLoad, RecoversWithZeroViolations) {
  ExperimentOptions opts = cc_options();
  opts.workers = 4;
  opts.cc_protocol = GetParam();
  opts.fault = crash_at(100 * kSecond);
  auto result = Experiment(opts).run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ExperimentResult& r = result.value();
  EXPECT_TRUE(r.fault_injected);
  EXPECT_TRUE(r.recovered);
  EXPECT_TRUE(r.recovery_complete);
  // Group commit made every acknowledged commit durable before the crash:
  // instance recovery must lose nothing and violate nothing, exactly as in
  // the serial experiments.
  EXPECT_EQ(r.lost_committed, 0u);
  EXPECT_EQ(r.integrity_violations, 0u);
  EXPECT_GT(r.committed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, CrashUnderLoad,
                         ::testing::Values(txn::CcProtocol::k2pl,
                                           txn::CcProtocol::kOcc),
                         [](const auto& info) {
                           return std::string(txn::to_string(info.param));
                         });

TEST(Coordinator, CrashRecoveryIdenticalAtReplayJobsOneAndFour) {
  // The partitioned replay promises byte-identical results at any job
  // count. Serial execution is the deterministic probe: the same crash
  // replayed by 1 and by 4 workers must land on the same state. (A
  // concurrent forward run is not reproducible — wait-die outcomes depend
  // on physical thread interleaving — so the workers=4 case is covered by
  // the invariant check below, not by equality.)
  auto run_serial_with_jobs = [](const char* jobs) {
    setenv("VDB_JOBS", jobs, 1);
    ExperimentOptions opts = cc_options();
    opts.fault = crash_at(100 * kSecond);
    auto result = Experiment(opts).run();
    unsetenv("VDB_JOBS");
    return result;
  };
  auto r1 = run_serial_with_jobs("1");
  auto r4 = run_serial_with_jobs("4");
  ASSERT_TRUE(r1.is_ok()) << r1.status().to_string();
  ASSERT_TRUE(r4.is_ok()) << r4.status().to_string();
  EXPECT_EQ(r1.value().committed, r4.value().committed);
  EXPECT_EQ(r1.value().redo_bytes, r4.value().redo_bytes);
  EXPECT_EQ(r1.value().lost_committed, r4.value().lost_committed);
  EXPECT_EQ(r1.value().integrity_violations, 0u);
  EXPECT_EQ(r4.value().integrity_violations, 0u);
  EXPECT_EQ(r1.value().tpmc, r4.value().tpmc);

  // Crash mid-concurrent-run is the hardest input the replay sees (redo
  // staged by four workers through the shared arena): the run itself is
  // not reproducible, but every replay of it must satisfy the full
  // consistency battery whatever the job count.
  auto run_concurrent_with_jobs = [](const char* jobs) {
    setenv("VDB_JOBS", jobs, 1);
    ExperimentOptions opts = cc_options();
    opts.workers = 4;
    opts.fault = crash_at(100 * kSecond);
    auto result = Experiment(opts).run();
    unsetenv("VDB_JOBS");
    return result;
  };
  for (const char* jobs : {"1", "4"}) {
    auto result = run_concurrent_with_jobs(jobs);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_TRUE(result.value().recovered) << "replay jobs " << jobs;
    EXPECT_EQ(result.value().lost_committed, 0u) << "replay jobs " << jobs;
    EXPECT_EQ(result.value().integrity_violations, 0u)
        << "replay jobs " << jobs;
  }
}

}  // namespace
}  // namespace vdb::bench
