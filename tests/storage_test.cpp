#include <gtest/gtest.h>

#include "sim/host.hpp"
#include "storage/storage_manager.hpp"
#include "storage/table_heap.hpp"

namespace vdb::storage {
namespace {

class StorageManagerTest : public ::testing::Test {
 protected:
  sim::VirtualClock clock_;
  sim::Host host_{"h", &clock_};
  std::unique_ptr<StorageManager> sm_;
  Lsn flushed_ = 0;

  void SetUp() override {
    host_.add_disk("/data");
    StorageParams params;
    params.cache_pages = 64;
    params.extent_blocks = 4;
    sm_ = std::make_unique<StorageManager>(
        &host_.fs(), params, [this](Lsn lsn) { flushed_ = lsn; });
  }

  TablespaceId make_ts(std::uint32_t max_blocks = 0) {
    auto ts = sm_->create_tablespace("TS", true, max_blocks);
    VDB_CHECK(ts.is_ok());
    VDB_CHECK(sm_->add_datafile(ts.value(), "/data/f1.dbf", 8).is_ok());
    return ts.value();
  }
};

TEST_F(StorageManagerTest, CreateTablespaceAndFile) {
  const TablespaceId ts = make_ts();
  auto info = sm_->tablespace_info(ts);
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value()->name, "TS");
  EXPECT_EQ(info.value()->files.size(), 1u);
  EXPECT_EQ(host_.fs().size("/data/f1.dbf").value(), 8 * Page::kSize);
}

TEST_F(StorageManagerTest, DuplicateTablespaceRejected) {
  make_ts();
  EXPECT_EQ(sm_->create_tablespace("TS").code(), ErrorCode::kAlreadyExists);
}

TEST_F(StorageManagerTest, ReserveFormatsAdvanceHighWater) {
  const TablespaceId ts = make_ts();
  auto p1 = sm_->reserve_page(ts);
  ASSERT_TRUE(p1.is_ok());
  EXPECT_EQ(p1.value().block, 0u);
  // Without apply_format the high-water mark must not move.
  auto p1_again = sm_->reserve_page(ts);
  ASSERT_TRUE(p1_again.is_ok());
  EXPECT_EQ(p1_again.value(), p1.value());

  ASSERT_TRUE(sm_->apply_format(p1.value(), TableId{1}, 32, 100).is_ok());
  auto p2 = sm_->reserve_page(ts);
  ASSERT_TRUE(p2.is_ok());
  EXPECT_EQ(p2.value().block, 1u);
}

TEST_F(StorageManagerTest, AutoextendGrowsFile) {
  const TablespaceId ts = make_ts();
  for (std::uint32_t b = 0; b < 10; ++b) {  // beyond the 8 initial blocks
    auto pid = sm_->reserve_page(ts);
    ASSERT_TRUE(pid.is_ok()) << b;
    ASSERT_TRUE(sm_->apply_format(pid.value(), TableId{1}, 32, b + 1).is_ok());
  }
  auto info = sm_->file_info(FileId{0});
  ASSERT_TRUE(info.is_ok());
  EXPECT_GT(info.value()->blocks, 8u);
}

TEST_F(StorageManagerTest, MaxBlocksEnforced) {
  const TablespaceId ts = make_ts(/*max_blocks=*/8);
  for (std::uint32_t b = 0; b < 8; ++b) {
    auto pid = sm_->reserve_page(ts);
    ASSERT_TRUE(pid.is_ok());
    ASSERT_TRUE(sm_->apply_format(pid.value(), TableId{1}, 32, b + 1).is_ok());
  }
  EXPECT_EQ(sm_->reserve_page(ts).code(), ErrorCode::kOutOfSpace);
}

TEST_F(StorageManagerTest, RoundRobinAcrossFiles) {
  auto ts = sm_->create_tablespace("RR");
  ASSERT_TRUE(ts.is_ok());
  ASSERT_TRUE(sm_->add_datafile(ts.value(), "/data/a.dbf", 8).is_ok());
  ASSERT_TRUE(sm_->add_datafile(ts.value(), "/data/b.dbf", 8).is_ok());
  auto p1 = sm_->reserve_page(ts.value());
  ASSERT_TRUE(p1.is_ok());
  ASSERT_TRUE(sm_->apply_format(p1.value(), TableId{1}, 32, 1).is_ok());
  auto p2 = sm_->reserve_page(ts.value());
  ASSERT_TRUE(p2.is_ok());
  EXPECT_NE(p1.value().file, p2.value().file);
}

TEST_F(StorageManagerTest, PageRoundtripThroughCacheAndDisk) {
  const TablespaceId ts = make_ts();
  auto pid = sm_->reserve_page(ts);
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(sm_->apply_format(pid.value(), TableId{5}, 32, 7).is_ok());
  {
    auto ref = sm_->fetch(pid.value());
    ASSERT_TRUE(ref.is_ok());
    ref.value()->set_slot(0, std::vector<std::uint8_t>{1, 2, 3});
    ref.value()->set_lsn(8);
    sm_->mark_dirty(pid.value());
  }
  sm_->cache().checkpoint();
  sm_->cache().discard_all();
  auto ref = sm_->fetch(pid.value());
  ASSERT_TRUE(ref.is_ok());
  EXPECT_EQ(ref.value()->owner(), TableId{5});
  EXPECT_EQ(ref.value()->lsn(), 8u);
  auto slot = ref.value()->read_slot(0);
  ASSERT_TRUE(slot.is_ok());
  EXPECT_EQ(slot.value()[2], 3);
}

TEST_F(StorageManagerTest, ChecksumCorruptionDetectedOnLoad) {
  const TablespaceId ts = make_ts();
  auto pid = sm_->reserve_page(ts);
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(sm_->apply_format(pid.value(), TableId{5}, 32, 7).is_ok());
  sm_->cache().checkpoint();
  sm_->cache().discard_all();
  // Flip a byte in the on-disk page body.
  std::vector<std::uint8_t> garbage{0x5A};
  ASSERT_TRUE(host_.fs()
                  .write("/data/f1.dbf", 100, garbage,
                         sim::IoMode::kBackground)
                  .is_ok());
  EXPECT_EQ(sm_->fetch(pid.value()).code(), ErrorCode::kCorruption);
}

TEST_F(StorageManagerTest, OfflineBlocksAccess) {
  const TablespaceId ts = make_ts();
  auto pid = sm_->reserve_page(ts);
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(sm_->apply_format(pid.value(), TableId{1}, 32, 1).is_ok());
  sm_->cache().checkpoint();
  sm_->cache().discard_all();

  ASSERT_TRUE(sm_->set_datafile_offline(FileId{0}, 123).is_ok());
  EXPECT_EQ(sm_->fetch(pid.value()).code(), ErrorCode::kOffline);
  // Recovery mode lifts the restriction (media recovery path).
  sm_->set_recovery_mode(true);
  EXPECT_TRUE(sm_->fetch(pid.value()).is_ok());
  sm_->set_recovery_mode(false);

  // Online requires the recovery marker to be cleared first.
  EXPECT_EQ(sm_->set_datafile_online(FileId{0}).code(),
            ErrorCode::kRecoveryRequired);
  ASSERT_TRUE(sm_->set_recover_from(FileId{0}, kInvalidLsn).is_ok());
  EXPECT_TRUE(sm_->set_datafile_online(FileId{0}).is_ok());
  EXPECT_TRUE(sm_->fetch(pid.value()).is_ok());
}

TEST_F(StorageManagerTest, CleanOfflineNeedsNoRecovery) {
  const TablespaceId ts = make_ts();
  (void)ts;
  ASSERT_TRUE(
      sm_->set_datafile_offline(FileId{0}, 123, /*clean=*/true).is_ok());
  EXPECT_TRUE(sm_->set_datafile_online(FileId{0}).is_ok());
}

TEST_F(StorageManagerTest, MissingFileDetected) {
  const TablespaceId ts = make_ts();
  auto pid = sm_->reserve_page(ts);
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(sm_->apply_format(pid.value(), TableId{1}, 32, 1).is_ok());
  sm_->cache().checkpoint();
  sm_->cache().discard_all();
  ASSERT_TRUE(host_.fs().remove("/data/f1.dbf").is_ok());
  EXPECT_EQ(sm_->fetch(pid.value()).code(), ErrorCode::kMediaFailure);
  EXPECT_EQ(sm_->file_info(FileId{0}).value()->status, FileStatus::kMissing);
}

TEST_F(StorageManagerTest, DropTablespaceDeletesFiles) {
  const TablespaceId ts = make_ts();
  ASSERT_TRUE(sm_->drop_tablespace(ts, /*delete_files=*/true).is_ok());
  EXPECT_FALSE(host_.fs().exists("/data/f1.dbf"));
  EXPECT_EQ(sm_->tablespace_info(ts).code(), ErrorCode::kNotFound);
  EXPECT_EQ(sm_->reserve_page(ts).code(), ErrorCode::kNotFound);
}

TEST_F(StorageManagerTest, ScanFileVisitsFormattedPages) {
  const TablespaceId ts = make_ts();
  for (int i = 0; i < 3; ++i) {
    auto pid = sm_->reserve_page(ts);
    ASSERT_TRUE(pid.is_ok());
    ASSERT_TRUE(
        sm_->apply_format(pid.value(), TableId{7}, 32, i + 1).is_ok());
  }
  sm_->cache().checkpoint();
  int visited = 0;
  ASSERT_TRUE(sm_->scan_file(FileId{0}, [&](std::uint32_t, PageView page) {
                  EXPECT_EQ(page.owner(), TableId{7});
                  visited += 1;
                }).is_ok());
  EXPECT_EQ(visited, 3);
}

TEST_F(StorageManagerTest, SyncFileSizeClampsMetadata) {
  const TablespaceId ts = make_ts();
  for (int i = 0; i < 10; ++i) {
    auto pid = sm_->reserve_page(ts);
    ASSERT_TRUE(pid.is_ok());
    ASSERT_TRUE(sm_->apply_format(pid.value(), TableId{1}, 32, i + 1).is_ok());
  }
  // Simulate a restore with an older, shorter image.
  ASSERT_TRUE(host_.fs().truncate("/data/f1.dbf", 4 * Page::kSize).is_ok());
  ASSERT_TRUE(sm_->sync_file_size(FileId{0}).is_ok());
  auto info = sm_->file_info(FileId{0});
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value()->blocks, 4u);
  EXPECT_LE(info.value()->high_water, 4u);
}

TEST_F(StorageManagerTest, SetHighWaterOnlyRaises) {
  make_ts();
  sm_->set_high_water(FileId{0}, 5);
  EXPECT_EQ(sm_->file_info(FileId{0}).value()->high_water, 5u);
  sm_->set_high_water(FileId{0}, 3);
  EXPECT_EQ(sm_->file_info(FileId{0}).value()->high_water, 5u);
}

class TableHeapTest : public StorageManagerTest {
 protected:
  TablespaceId ts_{};
  std::unique_ptr<TableHeap> heap_;

  void SetUp() override {
    StorageManagerTest::SetUp();
    ts_ = make_ts();
    heap_ = std::make_unique<TableHeap>(sm_.get(), TableId{1}, ts_, 32);
  }

  RowId insert(const std::string& value, Lsn lsn) {
    auto slot = heap_->choose_insert_slot();
    VDB_CHECK(slot.is_ok());
    if (slot.value().needs_format) {
      VDB_CHECK(sm_->apply_format(slot.value().rid.page, TableId{1}, 32, lsn)
                    .is_ok());
      heap_->adopt_page(slot.value().rid.page);
    }
    std::vector<std::uint8_t> bytes(value.begin(), value.end());
    VDB_CHECK(heap_->apply_insert(slot.value().rid, bytes, lsn).is_ok());
    return slot.value().rid;
  }
};

TEST_F(TableHeapTest, InsertReadUpdateDelete) {
  const RowId rid = insert("hello", 1);
  std::vector<std::uint8_t> read;
  ASSERT_TRUE(heap_->read(rid, &read).is_ok());
  EXPECT_EQ(std::string(read.begin(), read.end()), "hello");

  // The buffer is overwritten, not appended to.
  std::vector<std::uint8_t> updated{'b', 'y', 'e'};
  ASSERT_TRUE(heap_->apply_update(rid, updated, 2).is_ok());
  ASSERT_TRUE(heap_->read(rid, &read).is_ok());
  EXPECT_EQ(read, updated);

  ASSERT_TRUE(heap_->apply_delete(rid, 3).is_ok());
  EXPECT_EQ(heap_->read(rid, &read).code(), ErrorCode::kNotFound);
  EXPECT_EQ(heap_->row_count(), 0u);
}

TEST_F(TableHeapTest, FreedSlotsAreReused) {
  const RowId rid = insert("a", 1);
  ASSERT_TRUE(heap_->apply_delete(rid, 2).is_ok());
  const RowId rid2 = insert("b", 3);
  EXPECT_EQ(rid, rid2);
}

TEST_F(TableHeapTest, ScanVisitsAllRows) {
  for (int i = 0; i < 500; ++i) insert("row" + std::to_string(i), i + 1);
  EXPECT_EQ(heap_->row_count(), 500u);
  int count = 0;
  ASSERT_TRUE(heap_->scan([&](RowId, std::span<const std::uint8_t>) {
                 count += 1;
                 return true;
               }).is_ok());
  EXPECT_EQ(count, 500);
  EXPECT_GT(heap_->pages().size(), 1u);
}

TEST_F(TableHeapTest, ScanEarlyStop) {
  for (int i = 0; i < 10; ++i) insert("x", i + 1);
  int count = 0;
  ASSERT_TRUE(heap_->scan([&](RowId, std::span<const std::uint8_t>) {
                 count += 1;
                 return count < 3;
               }).is_ok());
  EXPECT_EQ(count, 3);
}

TEST_F(TableHeapTest, UpdateOfFreeSlotFails) {
  const RowId rid = insert("x", 1);
  ASSERT_TRUE(heap_->apply_delete(rid, 2).is_ok());
  std::vector<std::uint8_t> bytes{1};
  EXPECT_EQ(heap_->apply_update(rid, bytes, 3).code(), ErrorCode::kNotFound);
  EXPECT_EQ(heap_->apply_delete(rid, 3).code(), ErrorCode::kNotFound);
}

TEST_F(TableHeapTest, RegisterPageRebuild) {
  for (int i = 0; i < 100; ++i) insert("r" + std::to_string(i), i + 1);
  sm_->cache().checkpoint();
  const std::uint64_t rows_before = heap_->row_count();

  TableHeap rebuilt(sm_.get(), TableId{1}, ts_, 32);
  ASSERT_TRUE(sm_->scan_file(FileId{0}, [&](std::uint32_t block,
                                            PageView page) {
                  if (page.owner() != TableId{1}) return;
                  rebuilt.register_page(PageId{FileId{0}, block},
                                        page.used_count() < page.capacity(),
                                        page.used_count());
                }).is_ok());
  EXPECT_EQ(rebuilt.row_count(), rows_before);
  // The rebuilt heap keeps inserting where space remains.
  auto slot = rebuilt.choose_insert_slot();
  ASSERT_TRUE(slot.is_ok());
  EXPECT_FALSE(slot.value().needs_format);
}

}  // namespace
}  // namespace vdb::storage
