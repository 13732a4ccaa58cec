// RedoAnalysis contract: the transaction table every recovery driver
// rebuilds from redo (instance recovery, point-in-time recovery, standby
// activation), checked over hand-built record sequences.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/redo_analysis.hpp"

namespace vdb::engine {
namespace {

using wal::LogRecord;
using wal::LogRecordType;

LogRecord dml(std::uint64_t txn, Lsn lsn, bool clr = false) {
  LogRecord rec;
  rec.type = clr ? LogRecordType::kDelete : LogRecordType::kInsert;
  rec.txn = TxnId{txn};
  rec.lsn = lsn;
  rec.is_clr = clr;
  return rec;
}

LogRecord end(LogRecordType type, std::uint64_t txn) {
  LogRecord rec;
  rec.type = type;
  rec.txn = TxnId{txn};
  return rec;
}

LogRecord prepare(std::uint64_t txn, std::uint64_t gtxn,
                  std::uint32_t coord_shard) {
  LogRecord rec = end(LogRecordType::kTxnPrepare, txn);
  rec.gtxn = gtxn;
  rec.coord_shard = coord_shard;
  return rec;
}

LogRecord decision(std::uint64_t gtxn, bool commit) {
  LogRecord rec;
  rec.type = commit ? LogRecordType::kCoordCommit : LogRecordType::kCoordAbort;
  rec.gtxn = gtxn;
  return rec;
}

/// One active transaction in a checkpoint snapshot, with ops at `lsns`.
wal::TxnSnapshot snap(std::uint64_t txn, std::vector<Lsn> lsns,
                      bool prepared = false, std::uint64_t gtxn = 0) {
  wal::TxnSnapshot s;
  s.txn = TxnId{txn};
  for (Lsn lsn : lsns) {
    s.ops.push_back(wal::UndoOp{lsn, LogRecordType::kInsert, {}});
  }
  s.prepared = prepared;
  s.gtxn = gtxn;
  return s;
}

LogRecord checkpoint(std::vector<wal::TxnSnapshot> active,
                     std::vector<wal::CoordDecision> decisions = {}) {
  LogRecord rec;
  rec.type = LogRecordType::kCheckpoint;
  rec.active_txns = std::move(active);
  rec.coord_decisions = std::move(decisions);
  return rec;
}

LogRecord drop_table() {
  LogRecord rec;
  rec.type = LogRecordType::kDropTable;
  rec.name = "t";
  return rec;
}

struct ExpectedTxn {
  std::vector<Lsn> op_lsns;
  std::uint64_t clrs = 0;
  bool prepared = false;
  std::uint64_t gtxn = 0;
  std::uint32_t coord_shard = 0;
};

struct Case {
  std::string name;
  std::vector<LogRecord> records;
  std::map<std::uint64_t, ExpectedTxn> live;
  std::map<std::uint64_t, bool> decisions;
  std::uint64_t max_txn = 0;
};

std::vector<Case> cases() {
  return {
      {"checkpoint snapshot replaces the ops collected so far",
       {dml(1, 10), dml(1, 20), dml(1, 30, /*clr=*/true),
        checkpoint({snap(1, {10})}), dml(1, 40)},
       {{1, {{10, 40}}}},
       {},
       1},
      {"ended transaction never re-enters from a later snapshot",
       {dml(1, 10), dml(2, 20), end(LogRecordType::kCommit, 1),
        end(LogRecordType::kAbort, 2),
        checkpoint({snap(1, {10}), snap(2, {20})}),
        checkpoint({snap(1, {10})})},
       {},
       {},
       2},
      {"CLRs shorten the undo still owed",
       {dml(3, 10), dml(3, 20), dml(3, 30), dml(3, 40, /*clr=*/true),
        dml(3, 50, /*clr=*/true)},
       {{3, {{10, 20, 30}, 2}}},
       {},
       3},
      {"PREPARE makes an in-doubt branch, not a loser",
       {dml(4, 10), prepare(4, 77, 2), dml(5, 20),
        checkpoint({snap(6, {5}, /*prepared=*/true, 78)})},
       {{4, {{10}, 0, true, 77, 2}},
        {5, {{20}}},
        {6, {{5}, 0, true, 78, 0}}},
       {},
       6},
      {"decisions come from checkpoint records and decision records",
       {checkpoint({}, {{100, true}, {101, false}}), decision(101, true),
        decision(102, false)},
       {},
       {{100, true}, {101, true}, {102, false}},
       0},
      {"the highest id is tracked",
       {dml(3, 10), end(LogRecordType::kCommit, 9), drop_table(), dml(4, 20),
        checkpoint({snap(12, {})})},
       {{3, {{10}}}, {4, {{20}}}, {12, {}}},
       {},
       12},
  };
}

TEST(RedoAnalysis, ContractCases) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    RedoAnalysis analysis;
    for (const LogRecord& rec : c.records) analysis.note(rec);

    EXPECT_EQ(analysis.max_txn, c.max_txn);
    EXPECT_EQ(analysis.decisions, c.decisions);
    ASSERT_EQ(analysis.live.size(), c.live.size());
    for (const auto& [id, want] : c.live) {
      SCOPED_TRACE("txn " + std::to_string(id));
      auto it = analysis.live.find(id);
      ASSERT_NE(it, analysis.live.end());
      const RedoAnalysis::Txn& got = it->second;
      std::vector<Lsn> lsns;
      for (const auto& op : got.ops) lsns.push_back(op.lsn);
      EXPECT_EQ(lsns, want.op_lsns);
      EXPECT_EQ(got.clrs, want.clrs);
      EXPECT_EQ(got.prepared, want.prepared);
      EXPECT_EQ(got.gtxn, want.gtxn);
      EXPECT_EQ(got.coord_shard, want.coord_shard);
    }
  }
}

TEST(RedoAnalysis, CheckpointBoundsTheEndedSet) {
  RedoAnalysis analysis;
  constexpr std::uint64_t kTxns = 40000;
  for (std::uint64_t t = 1; t <= kTxns; ++t) {
    analysis.note(dml(t, t));
    analysis.note(end(LogRecordType::kCommit, t));
  }
  // The snapshot was taken while the last transaction's commit record was
  // in flight, so it still lists that transaction.
  analysis.note(checkpoint({snap(kTxns, {kTxns})}));
  EXPECT_EQ(analysis.ended, (std::set<std::uint64_t>{kTxns}));
  EXPECT_TRUE(analysis.live.empty());

  // Another listing cannot revive it; once a snapshot leaves it out, the
  // entry goes.
  analysis.note(checkpoint({snap(kTxns, {kTxns})}));
  EXPECT_TRUE(analysis.live.empty());
  analysis.note(checkpoint({}));
  EXPECT_TRUE(analysis.ended.empty());
  EXPECT_EQ(analysis.max_txn, kTxns);
}

}  // namespace
}  // namespace vdb::engine
