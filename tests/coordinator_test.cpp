// Transaction coordinator and concurrency-control tests, built as a
// separate binary (label: concurrency) so the cc-stress CI job can run
// exactly this suite under ThreadSanitizer.
//
// Covers: serial equivalence at workers=1, the 2PL vs OCC conflict matrix
// through the plug-in contract, the non-waiting grant rule every serial
// run uses (with a reference-model check), wait-die deadlock freedom under
// an 8-thread stress load, throughput scaling, and crash-during-concurrent-
// execution recovery — including a serial crash replayed twice to the same
// state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "benchmark/experiment.hpp"
#include "common/flat_index.hpp"
#include "common/rng.hpp"
#include "obs/observability.hpp"
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

/// A protocol instance counting into a test-local statistics area.
struct CountingCc {
  explicit CountingCc(txn::CcProtocol p)
      : cc(txn::make_concurrency_control(p, &stats)) {}
  std::uint64_t count(const char* counter) {
    return stats.registry().counter(counter)->value();
  }

  obs::Observability stats;
  std::unique_ptr<txn::ConcurrencyControl> cc;
};

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
    EXPECT_EQ(r.value().metrics.counter("cc txns aborted"), 0u);
    EXPECT_EQ(r.value().cc_retries, 0u);
    EXPECT_EQ(r.value().workers, 1u);
  }
}

// --- the conflict matrix through the plug-in contract ----------------------

TEST(ConcurrencyControl, TwoPlSharedReadersCoexist) {
  CountingCc counted(txn::CcProtocol::k2pl);
  txn::ConcurrencyControl* cc = counted.cc.get();
  EXPECT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kRead, true).is_ok());
  EXPECT_TRUE(cc->mediate(tid(2), target(1), txn::AccessMode::kRead, true).is_ok());
  cc->end(tid(1), true);
  cc->end(tid(2), true);
  EXPECT_EQ(counted.count("cc txns committed"), 2u);
  EXPECT_EQ(counted.count("cc wait_die aborts"), 0u);
}

TEST(ConcurrencyControl, TwoPlYoungerWriterDies) {
  CountingCc counted(txn::CcProtocol::k2pl);
  txn::ConcurrencyControl* cc = counted.cc.get();
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kWrite, true).is_ok());
  // Younger (larger id) requester vs older holder: dies, never waits.
  auto st = cc->mediate(tid(2), target(1), txn::AccessMode::kWrite, true);
  EXPECT_EQ(st.code(), ErrorCode::kDeadlock);
  // Shared request conflicts with the exclusive holder the same way.
  EXPECT_EQ(cc->mediate(tid(2), target(1), txn::AccessMode::kRead, true).code(),
            ErrorCode::kDeadlock);
  cc->end(tid(1), true);
  cc->end(tid(2), false);
  EXPECT_EQ(counted.count("cc wait_die aborts"), 2u);
}

TEST(ConcurrencyControl, TwoPlOlderWriterWaitsForYoungerRelease) {
  CountingCc counted(txn::CcProtocol::k2pl);
  txn::ConcurrencyControl* cc = counted.cc.get();
  ASSERT_TRUE(cc->mediate(tid(5), target(1), txn::AccessMode::kWrite, true).is_ok());
  std::atomic<bool> acquired{false};
  std::thread older([&] {
    // Txn 2 is older than holder 5: allowed to block until 5 resolves.
    ASSERT_TRUE(
        cc->mediate(tid(2), target(1), txn::AccessMode::kWrite, true).is_ok());
    acquired.store(true);
    cc->end(tid(2), true);
  });
  // Wait until txn 2 is inside mediate. It counts its begin under the
  // protocol mutex and keeps holding it until its condition-variable wait,
  // so once begun reads 2, the end() below cannot run before txn 2 blocks.
  while (counted.count("cc txns begun") < 2) std::this_thread::yield();
  cc->end(tid(5), true);
  older.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(counted.count("cc txns committed"), 2u);
  EXPECT_GE(counted.count("cc lock waits"), 1u);
}

TEST(ConcurrencyControl, TwoPlNonWaitableRequestDiesInsteadOfBlocking) {
  CountingCc counted(txn::CcProtocol::k2pl);
  txn::ConcurrencyControl* cc = counted.cc.get();
  ASSERT_TRUE(cc->mediate(tid(5), target(1), txn::AccessMode::kWrite, true).is_ok());
  // Older than the holder but may_wait=false (the insert path): dies.
  EXPECT_EQ(cc->mediate(tid(2), target(1), txn::AccessMode::kWrite, false).code(),
            ErrorCode::kDeadlock);
  cc->end(tid(5), true);
  cc->end(tid(2), false);
}

TEST(ConcurrencyControl, TwoPlRepeatSharedReadThenUpgradeIsGranted) {
  CountingCc counted(txn::CcProtocol::k2pl);
  txn::ConcurrencyControl* cc = counted.cc.get();
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
  EXPECT_EQ(counted.count("cc txns committed"), 2u);
  EXPECT_EQ(counted.count("cc lock waits"), 0u);
  EXPECT_EQ(counted.count("cc wait_die aborts"), 0u);
}

TEST(ConcurrencyControl, OccStaleReadFailsValidation) {
  CountingCc counted(txn::CcProtocol::kOcc);
  txn::ConcurrencyControl* cc = counted.cc.get();
  // Txn 1 reads the row, then txn 2 writes and commits it.
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kRead, true).is_ok());
  ASSERT_TRUE(cc->mediate(tid(2), target(1), txn::AccessMode::kWrite, true).is_ok());
  ASSERT_TRUE(cc->validate(tid(2)).is_ok());
  cc->publish(tid(2));
  cc->end(tid(2), true);
  // Txn 1's read set is now stale: commit-time validation must fail.
  EXPECT_EQ(cc->validate(tid(1)).code(), ErrorCode::kTxnAborted);
  cc->end(tid(1), false);
  EXPECT_EQ(counted.count("cc occ validate fails"), 1u);
}

TEST(ConcurrencyControl, OccWriteAfterStaleReadDiesEarly) {
  CountingCc counted(txn::CcProtocol::kOcc);
  txn::ConcurrencyControl* cc = counted.cc.get();
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
  EXPECT_EQ(counted.count("cc occ validate fails"), 1u);
}

TEST(ConcurrencyControl, OccReadersDoNotBlockEachOtherOrValidationWithoutWriters) {
  CountingCc counted(txn::CcProtocol::kOcc);
  txn::ConcurrencyControl* cc = counted.cc.get();
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kRead, true).is_ok());
  ASSERT_TRUE(cc->mediate(tid(2), target(1), txn::AccessMode::kRead, true).is_ok());
  EXPECT_TRUE(cc->validate(tid(1)).is_ok());
  EXPECT_TRUE(cc->validate(tid(2)).is_ok());
  cc->end(tid(1), true);
  cc->end(tid(2), true);
  EXPECT_EQ(counted.count("cc occ validate fails"), 0u);
  EXPECT_EQ(counted.count("cc wait_die aborts"), 0u);
}

TEST(ConcurrencyControl, OccReadOverlappingAbortedWriterFailsValidation) {
  CountingCc counted(txn::CcProtocol::kOcc);
  txn::ConcurrencyControl* cc = counted.cc.get();
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
  EXPECT_EQ(counted.count("cc occ validate fails"), 1u);
}

TEST(ConcurrencyControl, OwnWriteThenReadNeedsNoVersionCheck) {
  CountingCc counted(txn::CcProtocol::kOcc);
  txn::ConcurrencyControl* cc = counted.cc.get();
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kWrite, true).is_ok());
  ASSERT_TRUE(cc->mediate(tid(1), target(1), txn::AccessMode::kRead, true).is_ok());
  EXPECT_TRUE(cc->validate(tid(1)).is_ok());
  cc->publish(tid(1));
  cc->end(tid(1), true);
  EXPECT_EQ(counted.count("cc txns committed"), 1u);
}

// --- the serial grant rule (may_wait=false) --------------------------------
//
// Without a coordinator the engine mediates every row access through its
// own 2PL table at may_wait=false, and that table counts nothing. The
// `LockManager` cases below are tables of requests run through that rule;
// every conflict dies with kDeadlock, older requester or not.

/// One request on row 1 ('S' read, 'X' write) or 'E' (end `txn`), the
/// code it must get, and optionally the table size it must leave.
struct LockStep {
  std::uint64_t txn;
  char op;
  ErrorCode expect = ErrorCode::kOk;
  int locked_after = -1;  // < 0: not checked
};

/// Runs `steps` on a non-counting 2PL table at may_wait=false, then ends
/// every transaction and checks that the table drained and nothing was
/// counted into the process-wide statistics area.
void run_serial_steps(std::initializer_list<LockStep> steps) {
  obs::MetricsRegistry& global = obs::default_observability().registry();
  const std::uint64_t begun_before = global.counter("cc txns begun")->value();
  const std::uint64_t dead_before =
      global.counter("cc wait_die aborts")->value();
  auto cc = txn::make_concurrency_control(txn::CcProtocol::k2pl, nullptr);
  std::vector<std::uint64_t> txns;
  for (const LockStep& step : steps) {
    txns.push_back(step.txn);
    if (step.op == 'E') {
      cc->end(tid(step.txn), true);
    } else {
      const auto mode = step.op == 'X' ? txn::AccessMode::kWrite
                                       : txn::AccessMode::kRead;
      EXPECT_EQ(cc->mediate(tid(step.txn), target(1), mode, false).code(),
                step.expect)
          << "txn " << step.txn << " " << step.op;
    }
    if (step.locked_after >= 0) {
      EXPECT_EQ(cc->locked_count(), static_cast<size_t>(step.locked_after))
          << "after txn " << step.txn << " " << step.op;
    }
  }
  for (std::uint64_t t : txns) cc->end(tid(t), false);
  EXPECT_EQ(cc->locked_count(), 0u);
  EXPECT_EQ(global.counter("cc txns begun")->value(), begun_before);
  EXPECT_EQ(global.counter("cc wait_die aborts")->value(), dead_before);
}

constexpr ErrorCode kOk = ErrorCode::kOk;
constexpr ErrorCode kDies = ErrorCode::kDeadlock;

TEST(LockManager, GrantAndRelease) {
  run_serial_steps({{1, 'X', kOk, 1},
                    {2, 'S', kDies},  // probe: txn 1 holds it exclusive
                    {1, 'E', kOk, 0},
                    {2, 'X', kOk, 1}});
}

TEST(LockManager, SharedLocksCompatible) {
  run_serial_steps({{1, 'S'}, {2, 'S', kOk, 1}, {3, 'X', kDies}});
}

TEST(LockManager, ExclusiveConflicts) {
  run_serial_steps({{1, 'X'},
                    {0, 'X', kDies},    // older: would wait, cannot
                    {2, 'X', kDies}});  // younger: wait-die
}

TEST(LockManager, Reacquisition) {
  run_serial_steps({{1, 'X'}, {1, 'X'}, {1, 'S', kOk, 1}});
}

TEST(LockManager, UpgradeBySoleHolder) {
  run_serial_steps({{1, 'S'}, {1, 'X'}, {2, 'S', kDies}});
}

TEST(LockManager, UpgradeBlockedByOtherReaders) {
  run_serial_steps({{1, 'S'}, {2, 'S'}, {1, 'X', kDies}});
}

TEST(LockManager, SharedBlockedByExclusive) {
  run_serial_steps({{5, 'X'}, {9, 'S', kDies}});
}

TEST(LockManager, ReleaseFreesOnlyOwnLocks) {
  run_serial_steps({{1, 'S'},
                    {2, 'S'},
                    {1, 'E', kOk, 1},
                    {3, 'X', kDies},  // txn 2 still holds it
                    {2, 'X'}});       // now sole holder: upgrades
}

// Drained entries and ended contexts are recycled through free lists. A
// reused entry must start unlocked: a leftover exclusive mode would refuse
// T3's shared read, and a leftover holder would refuse T4's write and keep
// the table from draining. The third round locks another row, so its entry
// is a slot recycled from the first row.
TEST(LockManager, RecycledEntriesStartUnlocked) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::k2pl, nullptr);
  std::uint64_t next = 1;
  for (const std::uint32_t row : {1u, 1u, 2u}) {
    const TxnId t1 = tid(next++);
    const TxnId t2 = tid(next++);
    const TxnId t3 = tid(next++);
    const TxnId t4 = tid(next++);
    ASSERT_TRUE(
        cc->mediate(t1, target(row), txn::AccessMode::kWrite, false).is_ok());
    cc->end(t1, true);
    EXPECT_EQ(cc->locked_count(), 0u);

    EXPECT_TRUE(
        cc->mediate(t2, target(row), txn::AccessMode::kRead, false).is_ok())
        << "row " << row;
    EXPECT_TRUE(
        cc->mediate(t3, target(row), txn::AccessMode::kRead, false).is_ok())
        << "row " << row;
    cc->end(t2, true);
    EXPECT_EQ(cc->locked_count(), 1u);
    cc->end(t3, true);
    EXPECT_EQ(cc->locked_count(), 0u);

    EXPECT_TRUE(
        cc->mediate(t4, target(row), txn::AccessMode::kWrite, false).is_ok())
        << "row " << row;
    cc->end(t4, false);
    EXPECT_EQ(cc->locked_count(), 0u);
  }
}

/// `n` row targets whose FlatIndex hash ends in 16 bits at or above
/// 0x10000 - `spread`: the lock table's probe for each starts in its last
/// `spread` slots whatever its size (up to 65,536 slots), so their chains
/// run off the end and wrap to slot 0. With spread 1 they share one chain.
std::vector<txn::LockTarget> targets_homed_at_the_end(size_t n,
                                                      std::uint32_t spread) {
  std::vector<txn::LockTarget> out;
  for (std::uint32_t block = 0; out.size() < n; ++block) {
    const txn::LockTarget t = target(block);
    if ((FlatIndex<txn::LockTarget>::hash_of(t) & 0xFFFF) >=
        0x10000u - spread) {
      out.push_back(t);
    }
  }
  return out;
}

/// Model check of the serial grant rule: grants must agree with a simple
/// reference model of 2PL compatibility (S/S compatible, anything with X
/// conflicts, re-entrant by holder, sole-holder upgrades), and the table
/// must hold exactly the rows the model says are locked. Rows are drawn
/// from `targets`.
void check_against_reference_model(
    const std::vector<txn::LockTarget>& targets) {
  Rng rng(31337);
  auto cc = txn::make_concurrency_control(txn::CcProtocol::k2pl, nullptr);

  struct ModelEntry {
    bool exclusive = false;
    std::vector<std::uint64_t> holders;
  };
  std::map<std::uint32_t, ModelEntry> model;  // row -> holders
  const std::vector<std::uint64_t> active{1, 2, 3, 4, 5};
  auto model_locked = [&] {
    size_t n = 0;
    for (const auto& [r, entry] : model) n += entry.holders.empty() ? 0 : 1;
    return n;
  };

  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t txn = active[static_cast<size_t>(rng.uniform(0, 4))];
    const auto r = static_cast<std::uint32_t>(
        rng.uniform(0, static_cast<std::int64_t>(targets.size()) - 1));
    if (rng.chance(0.15)) {
      // End the transaction: release everything it holds.
      cc->end(tid(txn), true);
      for (auto& [row, entry] : model) {
        entry.holders.erase(
            std::remove(entry.holders.begin(), entry.holders.end(), txn),
            entry.holders.end());
        if (entry.holders.empty()) entry.exclusive = false;
      }
      ASSERT_EQ(cc->locked_count(), model_locked()) << "op " << op;
      continue;
    }
    const bool exclusive = rng.chance(0.5);
    const Status st = cc->mediate(
        tid(txn), targets[r],
        exclusive ? txn::AccessMode::kWrite : txn::AccessMode::kRead, false);

    ModelEntry& entry = model[r];
    const bool holds = std::find(entry.holders.begin(), entry.holders.end(),
                                 txn) != entry.holders.end();
    bool expect_ok;
    if (entry.holders.empty()) {
      expect_ok = true;
    } else if (holds) {
      // Re-entrant; upgrade allowed only as sole holder.
      expect_ok = !exclusive || entry.exclusive || entry.holders.size() == 1;
    } else {
      expect_ok = !exclusive && !entry.exclusive;
    }
    ASSERT_EQ(st.code(), expect_ok ? kOk : kDies)
        << "op " << op << " txn " << txn << " row " << r;
    if (st.is_ok()) {
      if (!holds) entry.holders.push_back(txn);
      if (exclusive) entry.exclusive = true;
    }
    ASSERT_EQ(cc->locked_count(), model_locked()) << "op " << op;
  }
}

TEST(LockModelCheck, AgreesWithReferenceModel) {
  std::vector<txn::LockTarget> rows;
  for (std::uint32_t r = 0; r <= 20; ++r) rows.push_back(target(r));
  check_against_reference_model(rows);
}

// The same check over rows whose probe chains all start in the table's
// last four slots, so every insert, lookup and backward-shift erase runs
// on chains that wrap.
TEST(LockModelCheck, AgreesWithReferenceModelOnWrappingChains) {
  check_against_reference_model(targets_homed_at_the_end(21, 4));
}

// Five rows on one probe chain, each locked by its own transaction, are
// released in all 120 orders. After every release the rows still locked
// must still be found: their holder re-locks them without a new entry,
// and a conflicting request dies.
TEST(LockManager, OneProbeChainSurvivesEveryDeletionOrder) {
  const std::vector<txn::LockTarget> rows = targets_homed_at_the_end(5, 1);
  auto cc = txn::make_concurrency_control(txn::CcProtocol::k2pl, nullptr);
  std::vector<size_t> order{0, 1, 2, 3, 4};
  std::uint64_t next = 100;
  do {
    std::vector<TxnId> holder;
    for (const txn::LockTarget& t : rows) {
      holder.push_back(tid(next++));
      ASSERT_TRUE(
          cc->mediate(holder.back(), t, txn::AccessMode::kWrite, false)
              .is_ok());
    }
    std::vector<bool> released(rows.size(), false);
    for (size_t k = 0; k < order.size(); ++k) {
      cc->end(holder[order[k]], true);
      released[order[k]] = true;
      const size_t still = rows.size() - (k + 1);
      ASSERT_EQ(cc->locked_count(), still);
      const TxnId probe = tid(next++);
      for (size_t i = 0; i < rows.size(); ++i) {
        if (released[i]) continue;
        EXPECT_TRUE(
            cc->mediate(holder[i], rows[i], txn::AccessMode::kWrite, false)
                .is_ok());
        EXPECT_EQ(
            cc->mediate(probe, rows[i], txn::AccessMode::kRead, false).code(),
            kDies)
            << "row " << i << " lost after releasing " << order[k];
      }
      cc->end(probe, false);
      ASSERT_EQ(cc->locked_count(), still);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

// A bulk load's transaction locks every row it inserts. Ten thousand rows
// grow the table far past any interaction's width; releasing them must
// drain it completely, and the next interaction mediates as usual.
TEST(LockManager, BulkWidthLockSetDrainsCompletely) {
  auto cc = txn::make_concurrency_control(txn::CcProtocol::k2pl, nullptr);
  constexpr std::uint32_t kRows = 10000;
  for (std::uint32_t r = 0; r < kRows; ++r) {
    ASSERT_TRUE(
        cc->mediate(tid(1), target(r), txn::AccessMode::kWrite, false).is_ok());
  }
  EXPECT_EQ(cc->locked_count(), kRows);
  cc->end(tid(1), true);
  EXPECT_EQ(cc->locked_count(), 0u);

  // A Payment-width interaction over rows the load held.
  for (std::uint32_t r = 0; r < 8; ++r) {
    EXPECT_TRUE(cc->mediate(tid(2), target(r * 1000), txn::AccessMode::kWrite,
                            false)
                    .is_ok());
  }
  EXPECT_EQ(cc->locked_count(), 8u);
  EXPECT_EQ(cc->mediate(tid(3), target(0), txn::AccessMode::kRead, false)
                .code(),
            kDies);
  cc->end(tid(3), false);
  cc->end(tid(2), true);
  EXPECT_EQ(cc->locked_count(), 0u);
}

// --- wait-die deadlock freedom under stress --------------------------------

// 8 threads x 200 transactions over 8 hot rows, each transaction locking a
// random subset in a random order — the classic deadlock recipe. Wait-die
// must resolve every conflict (by blocking or by aborting the younger);
// the ctest TIMEOUT property converts a lost wakeup or cycle into a
// failure. Run for both protocols: OCC's writer locks use the same table.
class WaitDieStress : public ::testing::TestWithParam<txn::CcProtocol> {};

TEST_P(WaitDieStress, NoDeadlockAndNoLostTransactions) {
  CountingCc counted(GetParam());
  txn::ConcurrencyControl* cc = counted.cc.get();
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

  EXPECT_EQ(committed.load() + aborted.load(), kThreads * kTxnsPerThread);
  EXPECT_EQ(counted.count("cc txns begun"), kThreads * kTxnsPerThread);
  EXPECT_EQ(counted.count("cc txns committed"), committed.load());
  EXPECT_EQ(counted.count("cc txns aborted"), aborted.load());
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

TEST(Coordinator, CrashRecoveryReproducibleAndConsistent) {
  // Serial execution is the deterministic probe: the same crash replayed
  // twice must land on the same state. (A concurrent forward run is not
  // reproducible — wait-die outcomes depend on physical thread
  // interleaving — so the workers=4 case is covered by the invariant check
  // below, not by equality.)
  auto run_serial = [] {
    ExperimentOptions opts = cc_options();
    opts.fault = crash_at(100 * kSecond);
    return Experiment(opts).run();
  };
  auto r1 = run_serial();
  auto r2 = run_serial();
  ASSERT_TRUE(r1.is_ok()) << r1.status().to_string();
  ASSERT_TRUE(r2.is_ok()) << r2.status().to_string();
  EXPECT_EQ(r1.value().committed, r2.value().committed);
  EXPECT_EQ(r1.value().redo_bytes, r2.value().redo_bytes);
  EXPECT_EQ(r1.value().lost_committed, r2.value().lost_committed);
  EXPECT_EQ(r1.value().integrity_violations, 0u);
  EXPECT_EQ(r2.value().integrity_violations, 0u);
  EXPECT_EQ(r1.value().tpmc, r2.value().tpmc);

  // Crash mid-concurrent-run is the hardest input the replay sees (redo
  // staged by four workers through the shared arena): the run itself is
  // not reproducible, but every replay of it must satisfy the full
  // consistency battery.
  auto run_concurrent = [] {
    ExperimentOptions opts = cc_options();
    opts.workers = 4;
    opts.fault = crash_at(100 * kSecond);
    return Experiment(opts).run();
  };
  for (int round = 1; round <= 2; ++round) {
    auto result = run_concurrent();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_TRUE(result.value().recovered) << "round " << round;
    EXPECT_EQ(result.value().lost_committed, 0u) << "round " << round;
    EXPECT_EQ(result.value().integrity_violations, 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace vdb::bench
