#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "storage/page.hpp"

namespace vdb::storage {
namespace {

TEST(Page, VirginPageIsUnformatted) {
  Page page;
  EXPECT_FALSE(page.formatted());
  EXPECT_TRUE(page.verify_checksum());  // trivially valid
}

TEST(Page, FormatSetsHeader) {
  Page page;
  page.format(TableId{7}, 100);
  EXPECT_TRUE(page.formatted());
  EXPECT_EQ(page.owner(), TableId{7});
  EXPECT_EQ(page.slot_size(), 100);
  EXPECT_EQ(page.used_count(), 0);
  EXPECT_GT(page.capacity(), 0);
  EXPECT_EQ(page.lsn(), 0u);
}

TEST(Page, CapacityFitsInPage) {
  for (std::uint16_t slot_size : {8, 24, 64, 100, 512, 760, 4000}) {
    const auto cap = Page::capacity_for(slot_size);
    const size_t stride = slot_size + 2u;
    EXPECT_LE(Page::kHeaderBase + (cap + 7) / 8 + cap * stride, Page::kSize)
        << "slot_size=" << slot_size;
    // And one more slot would not fit.
    EXPECT_GT(Page::kHeaderBase + (cap + 8) / 8 + (cap + 1) * stride,
              Page::kSize)
        << "slot_size=" << slot_size;
  }
}

TEST(Page, SlotLifecycle) {
  Page page;
  page.format(TableId{1}, 16);
  EXPECT_EQ(page.find_free_slot(), 0);
  const std::vector<std::uint8_t> payload{1, 2, 3};
  page.set_slot(0, payload);
  EXPECT_TRUE(page.slot_used(0));
  EXPECT_EQ(page.used_count(), 1);
  EXPECT_EQ(page.find_free_slot(), 1);

  auto read = page.read_slot(0);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(std::vector<std::uint8_t>(read.value().begin(),
                                      read.value().end()),
            payload);

  page.clear_slot(0);
  EXPECT_FALSE(page.slot_used(0));
  EXPECT_EQ(page.used_count(), 0);
  EXPECT_EQ(page.read_slot(0).code(), ErrorCode::kNotFound);
}

TEST(Page, OverwriteKeepsUsedCount) {
  Page page;
  page.format(TableId{1}, 16);
  page.set_slot(3, std::vector<std::uint8_t>{1});
  page.set_slot(3, std::vector<std::uint8_t>{2, 2});
  EXPECT_EQ(page.used_count(), 1);
  auto read = page.read_slot(3);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().size(), 2u);
}

TEST(Page, FillToCapacity) {
  Page page;
  page.format(TableId{1}, 32);
  const auto cap = page.capacity();
  for (std::uint16_t i = 0; i < cap; ++i) {
    const auto slot = page.find_free_slot();
    ASSERT_NE(slot, Page::kNoSlot);
    page.set_slot(slot, std::vector<std::uint8_t>{static_cast<uint8_t>(i)});
  }
  EXPECT_EQ(page.used_count(), cap);
  EXPECT_EQ(page.find_free_slot(), Page::kNoSlot);
}

// find_free_slot returns the lowest free slot wherever it sits: in a hole
// between used slots, or as the only free slot in a last bitmap byte that
// the capacity fills only in part.
TEST(Page, FindFreeSlotReturnsTheLowestFreeSlot) {
  Page page;
  page.format(TableId{1}, 32);
  const std::uint16_t cap = page.capacity();
  ASSERT_NE(cap % 8, 0) << "the last bitmap byte must be partial";
  const std::vector<std::uint8_t> payload{7};
  for (std::uint16_t slot = 0; slot < cap; ++slot) page.set_slot(slot, payload);
  EXPECT_EQ(page.find_free_slot(), Page::kNoSlot);

  const std::uint16_t last = cap - 1;
  page.clear_slot(last);
  EXPECT_EQ(page.find_free_slot(), last);

  const std::vector<std::uint16_t> holes{8, 9, 37, 100, last};
  for (const std::uint16_t hole : holes) page.clear_slot(hole);
  for (const std::uint16_t hole : holes) {
    EXPECT_EQ(page.find_free_slot(), hole);
    page.set_slot(hole, payload);
  }
  EXPECT_EQ(page.find_free_slot(), Page::kNoSlot);
}

// A view over a page's bytes reads what the page reads.
TEST(Page, ViewReadsTheSameImage) {
  Page page;
  page.format(TableId{4}, 24);
  page.set_slot(5, std::vector<std::uint8_t>{1, 2, 3});
  page.set_lsn(77);
  page.update_checksum();
  const PageView view(page.raw());
  EXPECT_TRUE(view.formatted());
  EXPECT_EQ(view.owner(), TableId{4});
  EXPECT_EQ(view.capacity(), page.capacity());
  EXPECT_EQ(view.used_count(), 1);
  EXPECT_EQ(view.lsn(), 77u);
  EXPECT_EQ(view.find_free_slot(), 0);
  EXPECT_TRUE(view.verify_checksum());
  auto read = view.read_slot(5);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().data(), page.read_slot(5).value().data());
  EXPECT_FALSE(view.read_slot(4).is_ok());
  const Page copy(view);
  EXPECT_TRUE(std::equal(copy.raw(), copy.raw() + Page::kSize, page.raw()));
}

TEST(Page, LsnStored) {
  Page page;
  page.format(TableId{1}, 16);
  page.set_lsn(123456789);
  EXPECT_EQ(page.lsn(), 123456789u);
}

TEST(Page, ChecksumDetectsCorruption) {
  Page page;
  page.format(TableId{1}, 16);
  page.set_slot(0, std::vector<std::uint8_t>{42});
  page.update_checksum();
  EXPECT_TRUE(page.verify_checksum());
  // Flip one payload byte.
  page.raw()[Page::kSize - 1] ^= 0xFF;
  EXPECT_FALSE(page.verify_checksum());
}

class PageSlotSweep : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(PageSlotSweep, RandomFillAndVerify) {
  const std::uint16_t slot_size = GetParam();
  Page page;
  page.format(TableId{9}, slot_size);
  Rng rng(slot_size);
  std::vector<std::vector<std::uint8_t>> shadow(page.capacity());

  // Random slot writes/clears, then verify every slot against a shadow.
  for (int op = 0; op < 500; ++op) {
    const auto slot =
        static_cast<std::uint16_t>(rng.uniform(0, page.capacity() - 1));
    if (rng.chance(0.3) && page.slot_used(slot)) {
      page.clear_slot(slot);
      shadow[slot].clear();
    } else {
      std::vector<std::uint8_t> payload(
          static_cast<size_t>(rng.uniform(1, slot_size)));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
      page.set_slot(slot, payload);
      shadow[slot] = payload;
    }
  }
  std::uint16_t used = 0;
  for (std::uint16_t s = 0; s < page.capacity(); ++s) {
    if (shadow[s].empty()) {
      EXPECT_FALSE(page.slot_used(s));
    } else {
      used += 1;
      auto read = page.read_slot(s);
      ASSERT_TRUE(read.is_ok());
      EXPECT_EQ(std::vector<std::uint8_t>(read.value().begin(),
                                          read.value().end()),
                shadow[s]);
    }
  }
  EXPECT_EQ(page.used_count(), used);
  page.update_checksum();
  EXPECT_TRUE(page.verify_checksum());
}

INSTANTIATE_TEST_SUITE_P(SlotSizes, PageSlotSweep,
                         ::testing::Values(8, 24, 48, 96, 176, 384, 760));

}  // namespace
}  // namespace vdb::storage
