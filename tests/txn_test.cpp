#include <gtest/gtest.h>

#include "txn/lock_manager.hpp"
#include "txn/txn_manager.hpp"

namespace vdb::txn {
namespace {

LockTarget row(std::uint32_t table, std::uint32_t block, std::uint16_t slot) {
  return LockTarget::for_row(TableId{table},
                             RowId{PageId{FileId{0}, block}, slot});
}

TEST(LockManager, GrantAndRelease) {
  LockManager lm;
  EXPECT_TRUE(lm.acquire(TxnId{1}, row(1, 1, 1), LockMode::kExclusive).is_ok());
  EXPECT_TRUE(lm.holds(TxnId{1}, row(1, 1, 1), LockMode::kExclusive));
  lm.release_all(TxnId{1});
  EXPECT_FALSE(lm.holds(TxnId{1}, row(1, 1, 1), LockMode::kExclusive));
  EXPECT_EQ(lm.locked_count(), 0u);
}

TEST(LockManager, SharedLocksCompatible) {
  LockManager lm;
  EXPECT_TRUE(lm.acquire(TxnId{1}, row(1, 1, 1), LockMode::kShared).is_ok());
  EXPECT_TRUE(lm.acquire(TxnId{2}, row(1, 1, 1), LockMode::kShared).is_ok());
  EXPECT_TRUE(lm.holds(TxnId{1}, row(1, 1, 1), LockMode::kShared));
  EXPECT_TRUE(lm.holds(TxnId{2}, row(1, 1, 1), LockMode::kShared));
}

TEST(LockManager, ExclusiveConflicts) {
  LockManager lm;
  ASSERT_TRUE(lm.acquire(TxnId{1}, row(1, 1, 1), LockMode::kExclusive).is_ok());
  // Older requester (id 0 < 1): allowed to wait → timeout.
  EXPECT_EQ(lm.acquire(TxnId{0}, row(1, 1, 1), LockMode::kExclusive).code(),
            ErrorCode::kLockTimeout);
  // Younger requester (id 2 > 1): wait-die → deadlock abort.
  EXPECT_EQ(lm.acquire(TxnId{2}, row(1, 1, 1), LockMode::kExclusive).code(),
            ErrorCode::kDeadlock);
}

TEST(LockManager, Reacquisition) {
  LockManager lm;
  ASSERT_TRUE(lm.acquire(TxnId{1}, row(1, 1, 1), LockMode::kExclusive).is_ok());
  EXPECT_TRUE(lm.acquire(TxnId{1}, row(1, 1, 1), LockMode::kExclusive).is_ok());
  EXPECT_TRUE(lm.acquire(TxnId{1}, row(1, 1, 1), LockMode::kShared).is_ok());
}

TEST(LockManager, UpgradeBySoleHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.acquire(TxnId{1}, row(1, 1, 1), LockMode::kShared).is_ok());
  EXPECT_TRUE(lm.acquire(TxnId{1}, row(1, 1, 1), LockMode::kExclusive).is_ok());
  EXPECT_TRUE(lm.holds(TxnId{1}, row(1, 1, 1), LockMode::kExclusive));
}

TEST(LockManager, UpgradeBlockedByOtherReaders) {
  LockManager lm;
  ASSERT_TRUE(lm.acquire(TxnId{1}, row(1, 1, 1), LockMode::kShared).is_ok());
  ASSERT_TRUE(lm.acquire(TxnId{2}, row(1, 1, 1), LockMode::kShared).is_ok());
  EXPECT_EQ(lm.acquire(TxnId{1}, row(1, 1, 1), LockMode::kExclusive).code(),
            ErrorCode::kLockTimeout);
}

TEST(LockManager, SharedBlockedByExclusive) {
  LockManager lm;
  ASSERT_TRUE(lm.acquire(TxnId{5}, row(1, 1, 1), LockMode::kExclusive).is_ok());
  EXPECT_EQ(lm.acquire(TxnId{9}, row(1, 1, 1), LockMode::kShared).code(),
            ErrorCode::kDeadlock);  // younger
}

TEST(LockManager, TableAndRowAreDistinctResources) {
  LockManager lm;
  ASSERT_TRUE(
      lm.acquire(TxnId{1}, LockTarget::for_table(TableId{1}),
                 LockMode::kExclusive)
          .is_ok());
  EXPECT_TRUE(lm.acquire(TxnId{2}, row(1, 1, 1), LockMode::kExclusive).is_ok());
}

TEST(LockManager, ReleaseFreesOnlyOwnLocks) {
  LockManager lm;
  ASSERT_TRUE(lm.acquire(TxnId{1}, row(1, 1, 1), LockMode::kShared).is_ok());
  ASSERT_TRUE(lm.acquire(TxnId{2}, row(1, 1, 1), LockMode::kShared).is_ok());
  lm.release_all(TxnId{1});
  EXPECT_TRUE(lm.holds(TxnId{2}, row(1, 1, 1), LockMode::kShared));
  // Now txn 2 is the sole holder: it can upgrade.
  EXPECT_TRUE(lm.acquire(TxnId{2}, row(1, 1, 1), LockMode::kExclusive).is_ok());
}

wal::UndoOp make_op(size_t bytes) {
  wal::UndoOp op;
  op.lsn = 1;
  op.op = wal::LogRecordType::kInsert;
  op.change.after.assign(bytes, 0xAB);
  return op;
}

TEST(TxnManager, BeginAssignsIncreasingIds) {
  TxnManager tm;
  auto a = tm.begin();
  auto b = tm.begin();
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_LT(a.value().value, b.value().value);
  EXPECT_EQ(tm.active_count(), 2u);
}

TEST(TxnManager, CommitReleasesUndoSpace) {
  TxnManager tm(RollbackSegmentConfig{2, 1024 * 1024, true});
  auto txn = tm.begin();
  ASSERT_TRUE(txn.is_ok());
  ASSERT_TRUE(tm.record_op(txn.value(), make_op(100)).is_ok());
  const auto& seg =
      tm.segments()[tm.get(txn.value()).value()->rollback_segment];
  EXPECT_GT(seg.used, 0u);
  ASSERT_TRUE(tm.mark_committed(txn.value(), 500).is_ok());
  EXPECT_EQ(tm.active_count(), 0u);
  for (const auto& s : tm.segments()) EXPECT_EQ(s.used, 0u);
}

TEST(TxnManager, RollbackSegmentExhaustion) {
  TxnManager tm(RollbackSegmentConfig{1, 1000, true});
  auto txn = tm.begin();
  ASSERT_TRUE(txn.is_ok());
  ASSERT_TRUE(tm.record_op(txn.value(), make_op(500)).is_ok());
  EXPECT_EQ(tm.record_op(txn.value(), make_op(500)).code(),
            ErrorCode::kOutOfSpace);
}

TEST(TxnManager, NoOnlineSegmentsBlocksBegin) {
  TxnManager tm(RollbackSegmentConfig{2, 1024, true});
  ASSERT_TRUE(tm.set_segment_offline(0).is_ok());
  ASSERT_TRUE(tm.set_segment_offline(1).is_ok());
  EXPECT_EQ(tm.begin().code(), ErrorCode::kOffline);
  ASSERT_TRUE(tm.set_segment_online(0).is_ok());
  EXPECT_TRUE(tm.begin().is_ok());
}

TEST(TxnManager, SegmentsBalanceActiveTxns) {
  TxnManager tm(RollbackSegmentConfig{4, 1024, true});
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(tm.begin().is_ok());
  for (const auto& seg : tm.segments()) EXPECT_EQ(seg.active_txns, 2u);
}

TEST(TxnManager, SnapshotContainsActiveOps) {
  TxnManager tm;
  auto a = tm.begin();
  auto b = tm.begin();
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  ASSERT_TRUE(tm.record_op(a.value(), make_op(10)).is_ok());
  auto snaps = tm.snapshot_active();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].txn, a.value());
  EXPECT_EQ(snaps[0].ops.size(), 1u);
  EXPECT_EQ(snaps[1].ops.size(), 0u);
}

TEST(TxnManager, SnapshotSkipsEndLoggedTxns) {
  // Regression test for the recovery bug where a checkpoint taken inside a
  // commit's flush snapshot the committing transaction and recovery then
  // wrongly rolled back committed work.
  TxnManager tm;
  auto a = tm.begin();
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(tm.record_op(a.value(), make_op(10)).is_ok());
  ASSERT_TRUE(tm.mark_end_logged(a.value()).is_ok());
  EXPECT_TRUE(tm.snapshot_active().empty());
  EXPECT_EQ(tm.active_count(), 1u);  // still active until mark_committed
}

TEST(TxnManager, RestoreNextIdMonotonic) {
  TxnManager tm;
  tm.restore_next_id(100);
  EXPECT_EQ(tm.begin().value().value, 100u);
  tm.restore_next_id(50);  // never goes backwards
  EXPECT_EQ(tm.begin().value().value, 101u);
}

TEST(TxnManager, ClearDropsEverything) {
  TxnManager tm;
  auto a = tm.begin();
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(tm.record_op(a.value(), make_op(10)).is_ok());
  tm.clear();
  EXPECT_EQ(tm.active_count(), 0u);
  for (const auto& seg : tm.segments()) {
    EXPECT_EQ(seg.used, 0u);
    EXPECT_EQ(seg.active_txns, 0u);
  }
}

}  // namespace
}  // namespace vdb::txn
