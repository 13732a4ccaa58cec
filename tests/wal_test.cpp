#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "obs/observability.hpp"
#include "sim/host.hpp"
#include "wal/archiver.hpp"
#include "wal/log_record.hpp"
#include "wal/redo_log.hpp"

namespace vdb::wal {
namespace {

LogRecord roundtrip(const LogRecord& rec) {
  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  rec.encode(enc);
  Decoder dec(buf);
  auto back = LogRecord::decode(dec);
  VDB_CHECK(back.is_ok());
  return std::move(back).value();
}

TEST(LogRecord, DmlRoundtrip) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn = TxnId{42};
  rec.lsn = 1234;
  rec.is_clr = true;
  rec.dml.table = TableId{7};
  rec.dml.rid = RowId{PageId{FileId{3}, 99}, 12};
  rec.dml.before = {1, 2, 3, 4, 5};
  rec.dml.after = {1, 2, 9, 4, 5};

  const LogRecord back = roundtrip(rec);
  EXPECT_EQ(back.type, rec.type);
  EXPECT_EQ(back.txn, rec.txn);
  EXPECT_EQ(back.lsn, rec.lsn);
  EXPECT_EQ(back.is_clr, rec.is_clr);
  EXPECT_EQ(back.dml.table, rec.dml.table);
  EXPECT_EQ(back.dml.rid, rec.dml.rid);
  EXPECT_EQ(back.dml.before, rec.dml.before);
  EXPECT_EQ(back.dml.after, rec.dml.after);
}

TEST(LogRecord, DeltaCompressionShrinksSimilarImages) {
  LogRecord similar;
  similar.type = LogRecordType::kUpdate;
  similar.dml.before.assign(400, 7);
  similar.dml.after = similar.dml.before;
  similar.dml.after[200] = 9;  // one byte differs

  LogRecord different;
  different.type = LogRecordType::kUpdate;
  different.dml.before.assign(400, 7);
  different.dml.after.assign(400, 9);

  // The shared bytes are stored once instead of twice.
  EXPECT_LT(similar.serialized_size(),
            different.serialized_size() * 6 / 10);
}

TEST(LogRecord, RandomImagesRoundtrip) {
  Rng rng(77);
  for (int iter = 0; iter < 300; ++iter) {
    LogRecord rec;
    rec.type = static_cast<LogRecordType>(rng.uniform(1, 3));
    rec.txn = TxnId{static_cast<std::uint64_t>(rng.uniform(0, 1 << 20))};
    rec.lsn = static_cast<Lsn>(rng.uniform(0, 1 << 30));
    rec.dml.table = TableId{static_cast<std::uint32_t>(rng.uniform(1, 99))};
    rec.dml.rid = RowId{
        PageId{FileId{static_cast<std::uint32_t>(rng.uniform(0, 3))},
               static_cast<std::uint32_t>(rng.uniform(0, 4000))},
        static_cast<std::uint16_t>(rng.uniform(0, 300))};
    // Random before/after with shared regions to exercise the delta codec.
    const auto len_b = static_cast<size_t>(rng.uniform(0, 200));
    const auto len_a = static_cast<size_t>(rng.uniform(0, 200));
    rec.dml.before.resize(len_b);
    rec.dml.after.resize(len_a);
    for (auto& b : rec.dml.before) b = static_cast<std::uint8_t>(rng.uniform(0, 3));
    for (auto& b : rec.dml.after) b = static_cast<std::uint8_t>(rng.uniform(0, 3));

    const LogRecord back = roundtrip(rec);
    EXPECT_EQ(back.dml.before, rec.dml.before);
    EXPECT_EQ(back.dml.after, rec.dml.after);
    EXPECT_EQ(back.dml.rid, rec.dml.rid);
  }
}

TEST(LogRecord, CheckpointRoundtrip) {
  LogRecord rec;
  rec.type = LogRecordType::kCheckpoint;
  rec.recovery_start_lsn = 5555;
  TxnSnapshot snap;
  snap.txn = TxnId{9};
  UndoOp op;
  op.lsn = 100;
  op.op = LogRecordType::kInsert;
  op.change.table = TableId{2};
  op.change.rid = RowId{PageId{FileId{0}, 1}, 2};
  op.change.after = {9, 9, 9};
  snap.ops.push_back(op);
  rec.active_txns.push_back(snap);

  const LogRecord back = roundtrip(rec);
  EXPECT_EQ(back.recovery_start_lsn, 5555u);
  ASSERT_EQ(back.active_txns.size(), 1u);
  EXPECT_EQ(back.active_txns[0].txn, TxnId{9});
  ASSERT_EQ(back.active_txns[0].ops.size(), 1u);
  EXPECT_EQ(back.active_txns[0].ops[0].lsn, 100u);
  EXPECT_EQ(back.active_txns[0].ops[0].change.after,
            (std::vector<std::uint8_t>{9, 9, 9}));
}

TEST(LogRecord, DdlRoundtrips) {
  LogRecord create;
  create.type = LogRecordType::kCreateTable;
  create.name = "orders";
  create.table_id = TableId{6};
  create.tablespace_id = TablespaceId{1};
  create.owner_user = UserId{2};
  create.ddl_slot_size = 48;
  const LogRecord back = roundtrip(create);
  EXPECT_EQ(back.name, "orders");
  EXPECT_EQ(back.table_id, TableId{6});
  EXPECT_EQ(back.ddl_slot_size, 48);

  LogRecord drop;
  drop.type = LogRecordType::kDropTablespace;
  drop.name = "TPCC";
  drop.tablespace_id = TablespaceId{1};
  const LogRecord back2 = roundtrip(drop);
  EXPECT_EQ(back2.type, LogRecordType::kDropTablespace);
  EXPECT_EQ(back2.name, "TPCC");
}

TEST(LogRecord, DecodeIntoResetsScratchAcrossTypes) {
  // parse_records decodes every record into one scratch LogRecord; a field
  // set by one record type must never leak into the next.
  LogRecord dml;
  dml.type = LogRecordType::kInsert;
  dml.txn = TxnId{5};
  dml.lsn = 50;
  dml.dml.table = TableId{3};
  dml.dml.rid = RowId{PageId{FileId{1}, 4}, 2};
  dml.dml.after = {1, 2, 3};

  LogRecord ddl;
  ddl.type = LogRecordType::kCreateTable;
  ddl.name = "leaky";
  ddl.table_id = TableId{8};
  ddl.ddl_slot_size = 32;

  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = TxnId{5};
  commit.lsn = 60;

  LogRecord scratch;
  std::vector<std::uint8_t> buf;
  Encoder enc1(&buf);
  ddl.encode(enc1);
  Decoder dec1(buf);
  ASSERT_TRUE(LogRecord::decode_into(dec1, &scratch).is_ok());
  EXPECT_EQ(scratch.name, "leaky");

  buf.clear();
  Encoder enc2(&buf);
  dml.encode(enc2);
  Decoder dec2(buf);
  ASSERT_TRUE(LogRecord::decode_into(dec2, &scratch).is_ok());
  EXPECT_EQ(scratch.name, "");  // DDL name did not leak
  EXPECT_EQ(scratch.dml.after, (std::vector<std::uint8_t>{1, 2, 3}));

  buf.clear();
  Encoder enc3(&buf);
  commit.encode(enc3);
  Decoder dec3(buf);
  ASSERT_TRUE(LogRecord::decode_into(dec3, &scratch).is_ok());
  EXPECT_TRUE(scratch.dml.after.empty());  // DML images did not leak
  EXPECT_TRUE(scratch.dml.before.empty());
  EXPECT_EQ(scratch.type, LogRecordType::kCommit);
}

TEST(Framing, SizedParseReportsFramedBytes) {
  std::vector<std::uint8_t> stream;
  LogRecord a;
  a.type = LogRecordType::kCommit;
  a.txn = TxnId{1};
  const std::uint64_t framed_a = frame_record(a, &stream);
  LogRecord b;
  b.type = LogRecordType::kUpdate;
  b.txn = TxnId{2};
  b.dml.before = {1, 2, 3, 4};
  b.dml.after = {1, 9, 3, 4};
  const std::uint64_t framed_b = frame_record(b, &stream);

  std::vector<std::uint64_t> sizes;
  ASSERT_TRUE(parse_records(stream,
                            [&](const LogRecord&, std::uint64_t framed) {
                              sizes.push_back(framed);
                              return true;
                            })
                  .is_ok());
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{framed_a, framed_b}));
  EXPECT_EQ(framed_a + framed_b, stream.size());
}

TEST(Framing, FrameRecordAppendsInPlace) {
  // The arena path: framing into a non-empty buffer must leave earlier
  // bytes untouched and both records parseable.
  std::vector<std::uint8_t> arena;
  LogRecord a;
  a.type = LogRecordType::kCommit;
  a.txn = TxnId{1};
  frame_record(a, &arena);
  const std::vector<std::uint8_t> first = arena;
  LogRecord b;
  b.type = LogRecordType::kCommit;
  b.txn = TxnId{2};
  frame_record(b, &arena);
  EXPECT_TRUE(std::equal(first.begin(), first.end(), arena.begin()));
  std::vector<std::uint64_t> seen;
  ASSERT_TRUE(parse_records(arena, [&](const LogRecord& rec) {
                seen.push_back(rec.txn.value);
                return true;
              }).is_ok());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
}

TEST(Framing, ParseStopsAtTornTail) {
  std::vector<std::uint8_t> stream;
  LogRecord a;
  a.type = LogRecordType::kCommit;
  a.txn = TxnId{1};
  a.lsn = 10;
  frame_record(a, &stream);
  LogRecord b = a;
  b.txn = TxnId{2};
  b.lsn = 20;
  frame_record(b, &stream);
  stream.resize(stream.size() - 3);  // torn tail

  std::vector<std::uint64_t> seen;
  ASSERT_TRUE(parse_records(stream, [&](const LogRecord& rec) {
                seen.push_back(rec.txn.value);
                return true;
              }).is_ok());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1}));
}

TEST(Framing, ParseDetectsCorruptPayload) {
  std::vector<std::uint8_t> stream;
  LogRecord a;
  a.type = LogRecordType::kCommit;
  a.txn = TxnId{1};
  frame_record(a, &stream);
  stream[10] ^= 0xFF;  // flip a payload byte: CRC fails, record dropped
  int seen = 0;
  ASSERT_TRUE(parse_records(stream, [&](const LogRecord&) {
                seen += 1;
                return true;
              }).is_ok());
  EXPECT_EQ(seen, 0);
}

class RedoLogTest : public ::testing::Test {
 protected:
  sim::VirtualClock clock_;
  sim::Host host_{"h", &clock_};
  obs::Observability obs_;
  int checkpoints_forced_ = 0;
  std::vector<std::uint64_t> finalized_seqs_;

  void SetUp() override {
    host_.add_disk("/redo");
    host_.add_disk("/arch");
  }

  std::unique_ptr<RedoLog> make_log(std::uint64_t file_size,
                                    std::uint32_t groups,
                                    bool archive = false) {
    RedoLogConfig cfg;
    cfg.file_size_bytes = file_size;
    cfg.groups = groups;
    cfg.archive_mode = archive;
    cfg.record_overhead = 64;
    RedoLog::Callbacks cb;
    cb.on_group_finalized = [this](const RedoGroup& g) {
      finalized_seqs_.push_back(g.seq);
      // Simulate the engine's log-switch checkpoint.
      log_->note_recovery_position(log_->next_lsn());
      if (log_->config().archive_mode) {
        (void)archiver_->archive_group(g);
      }
    };
    cb.force_checkpoint = [this] {
      checkpoints_forced_ += 1;
      log_->note_recovery_position(log_->next_lsn());
    };
    auto log = std::make_unique<RedoLog>(&host_.fs(), cfg, std::move(cb));
    log->set_observability(&obs_, &clock_);
    log_ = log.get();
    archiver_ = std::make_unique<Archiver>(&host_.fs(), log.get());
    return log;
  }

  std::uint64_t count(const char* counter) {
    return obs_.registry().counter(counter)->value();
  }

  LogRecord make_commit(std::uint64_t txn) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.txn = TxnId{txn};
    return rec;
  }

  RedoLog* log_ = nullptr;
  std::unique_ptr<Archiver> archiver_;
};

TEST_F(RedoLogTest, AppendAssignsIncreasingLsns) {
  auto log = make_log(1 << 20, 3);
  ASSERT_TRUE(log->create().is_ok());
  LogRecord a = make_commit(1), b = make_commit(2);
  const Lsn la = log->append(a);
  const Lsn lb = log->append(b);
  EXPECT_LT(la, lb);
  EXPECT_EQ(a.lsn, la);
  EXPECT_GT(log->pending_bytes(), 0u);
  ASSERT_TRUE(log->flush().is_ok());
  EXPECT_EQ(log->pending_bytes(), 0u);
  EXPECT_EQ(log->flushed_lsn(), log->next_lsn());
}

TEST_F(RedoLogTest, DiscardUnflushedLosesTail) {
  auto log = make_log(1 << 20, 3);
  ASSERT_TRUE(log->create().is_ok());
  LogRecord a = make_commit(1);
  log->append(a);
  ASSERT_TRUE(log->flush().is_ok());
  LogRecord b = make_commit(2);
  log->append(b);
  log->discard_unflushed();

  std::vector<std::uint64_t> seen;
  ASSERT_TRUE(log->read_online(0, [&](const LogRecord& rec) {
                 seen.push_back(rec.txn.value);
                 return true;
               }).is_ok());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1}));
}

TEST_F(RedoLogTest, SwitchesWhenFileFills) {
  auto log = make_log(4096, 3);  // tiny files: frequent switches
  ASSERT_TRUE(log->create().is_ok());
  for (int i = 0; i < 200; ++i) {
    LogRecord rec = make_commit(static_cast<std::uint64_t>(i));
    log->append(rec);
    ASSERT_TRUE(log->flush().is_ok());
  }
  EXPECT_GT(count("log switches"), 2u);
  EXPECT_FALSE(finalized_seqs_.empty());
  // Sequence numbers increase strictly.
  for (size_t i = 1; i < finalized_seqs_.size(); ++i) {
    EXPECT_EQ(finalized_seqs_[i], finalized_seqs_[i - 1] + 1);
  }
}

TEST_F(RedoLogTest, ReadOnlineReturnsRecordsInOrder) {
  auto log = make_log(4096, 3);
  ASSERT_TRUE(log->create().is_ok());
  std::vector<Lsn> lsns;
  for (int i = 0; i < 60; ++i) {
    LogRecord rec = make_commit(static_cast<std::uint64_t>(i));
    lsns.push_back(log->append(rec));
    ASSERT_TRUE(log->flush().is_ok());
  }
  // Oldest retained lsn: some early records were overwritten by reuse.
  const Lsn oldest = log->oldest_online_lsn();
  EXPECT_GT(oldest, 0u);

  std::vector<Lsn> seen;
  ASSERT_TRUE(log->read_online(oldest, [&](const LogRecord& rec) {
                 seen.push_back(rec.lsn);
                 return true;
               }).is_ok());
  ASSERT_FALSE(seen.empty());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.back(), lsns.back());
}

TEST_F(RedoLogTest, OpenExistingRestoresPosition) {
  Lsn end_before;
  {
    auto log = make_log(8192, 3);
    ASSERT_TRUE(log->create().is_ok());
    for (int i = 0; i < 40; ++i) {
      LogRecord rec = make_commit(static_cast<std::uint64_t>(i));
      log->append(rec);
      ASSERT_TRUE(log->flush().is_ok());
    }
    end_before = log->next_lsn();
  }
  auto log = make_log(8192, 3);
  ASSERT_TRUE(log->open_existing().is_ok());
  EXPECT_EQ(log->next_lsn(), end_before);
  // Appending continues without clobbering old records.
  LogRecord rec = make_commit(999);
  const Lsn lsn = log->append(rec);
  EXPECT_GE(lsn, end_before);
  ASSERT_TRUE(log->flush().is_ok());
  bool found = false;
  ASSERT_TRUE(log->read_online(lsn, [&](const LogRecord& r) {
                 found = r.txn.value == 999;
                 return true;
               }).is_ok());
  EXPECT_TRUE(found);
}

TEST_F(RedoLogTest, ForceCheckpointWhenReuseBlocked) {
  auto log = make_log(4096, 2);
  ASSERT_TRUE(log->create().is_ok());
  // Never tell the log the checkpoint advanced except through the forced
  // callback; switches must then force checkpoints.
  for (int i = 0; i < 100; ++i) {
    LogRecord rec = make_commit(static_cast<std::uint64_t>(i));
    log->append(rec);
    ASSERT_TRUE(log->flush().is_ok());
  }
  EXPECT_GT(count("log switches"), 0u);
}

TEST_F(RedoLogTest, ArchiveModeProducesArchives) {
  auto log = make_log(4096, 3, /*archive=*/true);
  ASSERT_TRUE(log->create().is_ok());
  for (int i = 0; i < 100; ++i) {
    LogRecord rec = make_commit(static_cast<std::uint64_t>(i));
    log->append(rec);
    ASSERT_TRUE(log->flush().is_ok());
  }
  const auto archives = host_.fs().list("/arch/arch_");
  EXPECT_EQ(archives.size(), archiver_->archived_count());
  EXPECT_GT(archives.size(), 1u);
  // Archive content parses and covers the finalized sequence.
  auto bytes = host_.fs().read_all(archives[0], sim::IoMode::kBackground);
  ASSERT_TRUE(bytes.is_ok());
  int records = 0;
  ASSERT_TRUE(parse_records(
                  std::span<const std::uint8_t>(bytes.value()).subspan(20),
                  [&](const LogRecord&) {
                    records += 1;
                    return true;
                  })
                  .is_ok());
  EXPECT_GT(records, 0);
}

TEST_F(RedoLogTest, ResetlogsStartsFreshAboveOldLsns) {
  auto log = make_log(8192, 3);
  ASSERT_TRUE(log->create().is_ok());
  for (int i = 0; i < 30; ++i) {
    LogRecord rec = make_commit(static_cast<std::uint64_t>(i));
    log->append(rec);
    ASSERT_TRUE(log->flush().is_ok());
  }
  const Lsn reset_at = log->next_lsn() + 1000;
  ASSERT_TRUE(log->resetlogs(reset_at).is_ok());
  EXPECT_GE(log->next_lsn(), reset_at);
  int count = 0;
  ASSERT_TRUE(log->read_online(0, [&](const LogRecord&) {
                 count += 1;
                 return true;
               }).is_ok());
  EXPECT_EQ(count, 0);  // all groups empty
  LogRecord rec = make_commit(1);
  EXPECT_GE(log->append(rec), reset_at);
  ASSERT_TRUE(log->flush().is_ok());
}

TEST_F(RedoLogTest, GroupCommitBatchesAndPiggybacks) {
  auto log = make_log(1 << 20, 3);
  ASSERT_TRUE(log->create().is_ok());

  // Several transactions' records accumulate in the arena; the first
  // commit_flush drains them all as one batch.
  LogRecord a = make_commit(1);
  const Lsn la = log->append(a);
  LogRecord b = make_commit(2);
  const Lsn lb = log->append(b);
  LogRecord c = make_commit(3);
  const Lsn lc = log->append(c);
  const std::uint64_t writes_before = count("redo writes");
  ASSERT_TRUE(log->commit_flush(la).is_ok());
  // One write carried all three commits.
  EXPECT_EQ(count("redo writes"), writes_before + 1);
  EXPECT_GT(log->flushed_lsn(), lc);
  EXPECT_EQ(log->pending_bytes(), 0u);

  // A commit already made durable by that batch piggybacks: no extra write.
  ASSERT_TRUE(log->commit_flush(lb).is_ok());
  EXPECT_EQ(count("redo writes"), writes_before + 1);
}

TEST_F(RedoLogTest, ArenaSurvivesInterleavedAppendFlushCycles) {
  // Steady-state arena reuse: append/flush cycles must keep records intact
  // and readable across group switches.
  auto log = make_log(4096, 3);
  ASSERT_TRUE(log->create().is_ok());
  std::vector<Lsn> lsns;
  for (int cycle = 0; cycle < 30; ++cycle) {
    for (int i = 0; i < 3; ++i) {
      LogRecord rec = make_commit(static_cast<std::uint64_t>(cycle * 3 + i));
      lsns.push_back(log->append(rec));
    }
    ASSERT_TRUE(log->flush().is_ok());
  }
  std::vector<std::uint64_t> seen;
  ASSERT_TRUE(log->read_online(log->oldest_online_lsn(),
                               [&](const LogRecord& rec) {
                                 seen.push_back(rec.txn.value);
                                 return true;
                               })
                  .is_ok());
  ASSERT_FALSE(seen.empty());
  // The retained suffix is contiguous and ends at the last append.
  EXPECT_EQ(seen.back(), 89u);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], seen[i - 1] + 1);
  }
}

TEST_F(RedoLogTest, FlushToIsIdempotent) {
  auto log = make_log(1 << 20, 3);
  ASSERT_TRUE(log->create().is_ok());
  LogRecord rec = make_commit(1);
  const Lsn lsn = log->append(rec);
  ASSERT_TRUE(log->flush_to(lsn).is_ok());
  EXPECT_GT(log->flushed_lsn(), lsn);
  ASSERT_TRUE(log->flush_to(lsn).is_ok());  // already durable: no-op
}

TEST_F(RedoLogTest, RequiresTwoGroups) {
  RedoLogConfig cfg;
  cfg.groups = 2;
  RedoLog ok(&host_.fs(), cfg, {});
  EXPECT_DEATH(
      {
        RedoLogConfig bad;
        bad.groups = 1;
        RedoLog nope(&host_.fs(), bad, {});
      },
      "two redo groups");
}

}  // namespace
}  // namespace vdb::wal
