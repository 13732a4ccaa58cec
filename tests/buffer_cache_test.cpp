#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "obs/observability.hpp"
#include "storage/buffer_cache.hpp"
#include "storage/page.hpp"

namespace vdb::storage {
namespace {

/// In-memory PageStore recording I/O and WAL-rule compliance.
class FakeStore : public PageStore {
 public:
  Status load_page(PageId id, Page* out, sim::IoMode) override {
    loads += 1;
    auto it = pages.find(id);
    if (it == pages.end()) {
      if (fail_missing) {
        return make_error(ErrorCode::kMediaFailure, "missing");
      }
      *out = Page{};  // virgin
      return Status::ok();
    }
    *out = it->second;
    return Status::ok();
  }

  Status store_page(PageId id, Page& page, sim::IoMode,
                    bool) override {
    if (fail_stores) return make_error(ErrorCode::kMediaFailure, "gone");
    stores += 1;
    stored.push_back(id);
    page.update_checksum();
    pages[id] = page;
    last_stored_lsn = page.lsn();
    return Status::ok();
  }

  std::map<PageId, Page> pages;
  int loads = 0;
  int stores = 0;
  std::vector<PageId> stored;  // every successful store, in order
  bool fail_missing = false;
  bool fail_stores = false;
  Lsn last_stored_lsn = 0;
};

PageId pid(std::uint32_t block) { return PageId{FileId{0}, block}; }

class BufferCacheTest : public ::testing::Test {
 protected:
  BufferCacheTest() { cache_.set_observability(&obs_, nullptr); }

  std::uint64_t hits() {
    return obs_.registry().counter("buffer cache hits")->value();
  }

  /// Fetches `id`, dirties it and releases the pin, so that evicting it
  /// later writes it out and `store_.stored` logs the victim order.
  void dirty_fetch(PageId id) {
    auto ref = cache_.fetch(id);
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(id, 1);
  }

  obs::Observability obs_;
  FakeStore store_;
  Lsn flushed_to_ = 0;
  BufferCache cache_{&store_, 4, [this](Lsn lsn) {
                       flushed_to_ = std::max(flushed_to_, lsn);
                     }};
};

TEST_F(BufferCacheTest, MissThenHit) {
  {
    auto ref = cache_.fetch(pid(1));
    ASSERT_TRUE(ref.is_ok());
  }
  EXPECT_EQ(store_.loads, 1);
  {
    auto ref = cache_.fetch(pid(1));
    ASSERT_TRUE(ref.is_ok());
  }
  EXPECT_EQ(store_.loads, 1);  // hit
  EXPECT_EQ(hits(), 1u);
}

TEST_F(BufferCacheTest, EvictsLruWhenFull) {
  for (std::uint32_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(cache_.fetch(pid(b)).is_ok());
  }
  // Touch page 0 so page 1 becomes LRU.
  ASSERT_TRUE(cache_.fetch(pid(0)).is_ok());
  ASSERT_TRUE(cache_.fetch(pid(9)).is_ok());  // evicts 1
  const int loads_before = store_.loads;
  ASSERT_TRUE(cache_.fetch(pid(0)).is_ok());  // still resident
  EXPECT_EQ(store_.loads, loads_before);
  ASSERT_TRUE(cache_.fetch(pid(1)).is_ok());  // was evicted: reload
  EXPECT_EQ(store_.loads, loads_before + 1);
}

TEST_F(BufferCacheTest, PinnedPagesNotEvicted) {
  auto p0 = cache_.fetch(pid(0));
  ASSERT_TRUE(p0.is_ok());
  // Fill the rest and force evictions; page 0 is pinned throughout.
  for (std::uint32_t b = 1; b < 10; ++b) {
    ASSERT_TRUE(cache_.fetch(pid(b)).is_ok());
  }
  Page* still = p0.value().page();
  ASSERT_NE(still, nullptr);
  // Fetching 0 again must not reload.
  const int loads = store_.loads;
  ASSERT_TRUE(cache_.fetch(pid(0)).is_ok());
  EXPECT_EQ(store_.loads, loads);
}

TEST_F(BufferCacheTest, AllPinnedFailsFetch) {
  std::vector<PageRef> pins;
  for (std::uint32_t b = 0; b < 4; ++b) {
    auto ref = cache_.fetch(pid(b));
    ASSERT_TRUE(ref.is_ok());
    pins.push_back(std::move(ref).value());
  }
  EXPECT_EQ(cache_.fetch(pid(99)).code(), ErrorCode::kInternal);
}

TEST_F(BufferCacheTest, DirtyEvictionWritesAndRespectsWalRule) {
  {
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    ref.value()->set_lsn(777);
    cache_.mark_dirty(pid(0), 10);
  }
  for (std::uint32_t b = 1; b < 6; ++b) {
    ASSERT_TRUE(cache_.fetch(pid(b)).is_ok());
  }
  EXPECT_GE(store_.stores, 1);
  EXPECT_GE(flushed_to_, 777u);  // log forced before the page hit disk
  EXPECT_TRUE(store_.pages.contains(pid(0)));
  EXPECT_EQ(store_.pages[pid(0)].lsn(), 777u);
}

TEST_F(BufferCacheTest, CheckpointWritesAllDirty) {
  for (std::uint32_t b = 0; b < 3; ++b) {
    auto ref = cache_.fetch(pid(b));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    ref.value()->set_lsn(100 + b);
    cache_.mark_dirty(pid(b), 5);
  }
  EXPECT_EQ(cache_.dirty_count(), 3u);
  auto result = cache_.checkpoint();
  EXPECT_EQ(result.pages_written, 3u);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(cache_.dirty_count(), 0u);
  EXPECT_GE(flushed_to_, 102u);
  // Second checkpoint writes nothing.
  EXPECT_EQ(cache_.checkpoint().pages_written, 0u);
}

TEST_F(BufferCacheTest, CheckpointReportsFailures) {
  {
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(pid(0), 5);
  }
  store_.fail_stores = true;
  auto result = cache_.checkpoint();
  EXPECT_EQ(result.pages_written, 0u);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].second.code(), ErrorCode::kMediaFailure);
  EXPECT_EQ(cache_.dirty_count(), 1u);  // stays dirty
}

TEST_F(BufferCacheTest, FlushAgedHonorsCutoff) {
  {
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(pid(0), /*now=*/10);
  }
  {
    auto ref = cache_.fetch(pid(1));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(pid(1), /*now=*/100);
  }
  auto result = cache_.flush_aged(/*older_than=*/50);
  EXPECT_EQ(result.pages_written, 1u);
  EXPECT_EQ(cache_.dirty_count(), 1u);
}

TEST_F(BufferCacheTest, MinDirtyRecLsn) {
  EXPECT_EQ(cache_.min_dirty_rec_lsn(), kInvalidLsn);
  {
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    ref.value()->set_lsn(500);
    cache_.mark_dirty(pid(0), 1);
    // Re-dirty with a higher lsn: rec_lsn keeps the FIRST dirty position.
    ref.value()->set_lsn(900);
    cache_.mark_dirty(pid(0), 2);
  }
  EXPECT_EQ(cache_.min_dirty_rec_lsn(), 500u);
  cache_.checkpoint();
  EXPECT_EQ(cache_.min_dirty_rec_lsn(), kInvalidLsn);
  {
    // Dirty again after flush: rec_lsn resets to the current page lsn.
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->set_lsn(1000);
    cache_.mark_dirty(pid(0), 3);
  }
  EXPECT_EQ(cache_.min_dirty_rec_lsn(), 1000u);
}

TEST_F(BufferCacheTest, DiscardFileDropsFramesWithoutWriting) {
  {
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(pid(0), 1);
  }
  const int stores = store_.stores;
  cache_.discard_file(FileId{0});
  EXPECT_EQ(store_.stores, stores);  // nothing written
  EXPECT_EQ(cache_.dirty_count(), 0u);
}

TEST_F(BufferCacheTest, FlushFileTargetsOneFile) {
  {
    auto ref = cache_.fetch(PageId{FileId{0}, 0});
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(PageId{FileId{0}, 0}, 1);
  }
  {
    auto ref = cache_.fetch(PageId{FileId{1}, 0});
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    cache_.mark_dirty(PageId{FileId{1}, 0}, 1);
  }
  auto result = cache_.flush_file(FileId{0});
  EXPECT_EQ(result.pages_written, 1u);
  EXPECT_EQ(cache_.dirty_count(), 1u);
}

TEST_F(BufferCacheTest, LastFetchedFastPathSurvivesEviction) {
  // Engage the last-fetched fast path with back-to-back fetches of one
  // page, then evict that page through LRU pressure. The recycled frame
  // must not be served for the old id afterwards.
  {
    auto ref = cache_.fetch(pid(0));
    ASSERT_TRUE(ref.is_ok());
    ref.value()->format(TableId{1}, 16);
    ref.value()->set_lsn(321);
    cache_.mark_dirty(pid(0), 1);
  }
  {
    auto again = cache_.fetch(pid(0));  // fast-path hit
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again.value()->lsn(), 321u);
  }
  EXPECT_EQ(hits(), 1u);

  // Push page 0 out (capacity 4, LRU order 0,1,2,3 → fetching 4 new pages
  // evicts it first) and recycle its frame for other ids.
  for (std::uint32_t b = 1; b <= 4; ++b) {
    ASSERT_TRUE(cache_.fetch(pid(b)).is_ok());
  }

  const int loads = store_.loads;
  auto back = cache_.fetch(pid(0));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(store_.loads, loads + 1);  // reloaded, not stale fast-path frame
  EXPECT_EQ(back.value()->lsn(), 321u);  // dirty eviction preserved it
}

TEST_F(BufferCacheTest, VictimIsLeastRecentlyUsedBehindPinnedHead) {
  auto p0 = cache_.fetch(pid(0));
  auto p1 = cache_.fetch(pid(1));
  ASSERT_TRUE(p0.is_ok());
  ASSERT_TRUE(p1.is_ok());
  p0.value()->format(TableId{1}, 16);
  cache_.mark_dirty(pid(0), 1);
  dirty_fetch(pid(2));
  dirty_fetch(pid(3));
  ASSERT_TRUE(cache_.fetch(pid(2)).is_ok());  // LRU order now 0 1 3 2
  dirty_fetch(pid(4));  // the pinned head (0, 1) is skipped: evicts 3
  dirty_fetch(pid(5));  // evicts 2
  dirty_fetch(pid(6));  // evicts 4
  EXPECT_EQ(store_.stored, (std::vector<PageId>{pid(3), pid(2), pid(4)}));
  // Unpinned, 0 is again the least recently used.
  p0.value() = PageRef{};
  dirty_fetch(pid(7));
  EXPECT_EQ(store_.stored.back(), pid(0));
}

TEST_F(BufferCacheTest, FastPathHitRefreshesRecency) {
  for (std::uint32_t b = 0; b < 4; ++b) dirty_fetch(pid(b));
  ASSERT_TRUE(cache_.fetch(pid(3)).is_ok());  // fast path
  ASSERT_TRUE(cache_.fetch(pid(1)).is_ok());  // hash hit
  ASSERT_TRUE(cache_.fetch(pid(1)).is_ok());  // fast path
  ASSERT_TRUE(cache_.fetch(pid(0)).is_ok());  // hash hit: order 2 3 1 0
  ASSERT_TRUE(cache_.fetch(pid(0)).is_ok());  // fast path
  EXPECT_EQ(hits(), 5u);
  for (std::uint32_t b = 10; b < 14; ++b) dirty_fetch(pid(b));
  EXPECT_EQ(store_.stored,
            (std::vector<PageId>{pid(2), pid(3), pid(1), pid(0)}));
}

TEST_F(BufferCacheTest, EvictionOrderSurvivesDiscards) {
  const auto page = [](std::uint32_t file, std::uint32_t block) {
    return PageId{FileId{file}, block};
  };
  dirty_fetch(page(0, 0));
  dirty_fetch(page(0, 1));
  dirty_fetch(page(1, 0));
  dirty_fetch(page(1, 1));
  cache_.discard_page(page(0, 1));  // order 0:0 1:0 1:1
  dirty_fetch(page(0, 2));          // order 0:0 1:0 1:1 0:2
  dirty_fetch(page(0, 3));          // evicts 0:0
  cache_.discard_file(FileId{1});   // order 0:2 0:3
  dirty_fetch(page(0, 4));
  dirty_fetch(page(0, 5));
  dirty_fetch(page(0, 6));  // evicts 0:2
  EXPECT_EQ(store_.stored, (std::vector<PageId>{page(0, 0), page(0, 2)}));

  cache_.discard_all();
  store_.stored.clear();
  for (std::uint32_t b = 20; b < 24; ++b) dirty_fetch(pid(b));
  ASSERT_TRUE(cache_.fetch(pid(20)).is_ok());  // order 21 22 23 20
  dirty_fetch(pid(30));
  dirty_fetch(pid(31));
  EXPECT_EQ(store_.stored, (std::vector<PageId>{pid(21), pid(22)}));
}

TEST_F(BufferCacheTest, LoadFailurePropagates) {
  store_.fail_missing = true;
  store_.pages.clear();
  EXPECT_EQ(cache_.fetch(pid(3)).code(), ErrorCode::kMediaFailure);
}

}  // namespace
}  // namespace vdb::storage
