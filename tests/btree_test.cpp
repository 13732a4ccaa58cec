#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "index/bplus_tree.hpp"

namespace vdb::index {
namespace {

TEST(BPlusTree, EmptyTree) {
  BPlusTree<int, int> tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.find(1), nullptr);
  EXPECT_FALSE(tree.erase(1));
  EXPECT_TRUE(tree.validate());
}

TEST(BPlusTree, InsertFindErase) {
  BPlusTree<int, std::string> tree;
  EXPECT_TRUE(tree.insert(5, "five"));
  EXPECT_TRUE(tree.insert(3, "three"));
  EXPECT_FALSE(tree.insert(5, "dup"));  // duplicate rejected
  EXPECT_EQ(tree.size(), 2u);
  ASSERT_NE(tree.find(5), nullptr);
  EXPECT_EQ(*tree.find(5), "five");
  EXPECT_TRUE(tree.erase(5));
  EXPECT_EQ(tree.find(5), nullptr);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTree, SplitsUnderLoad) {
  BPlusTree<int, int, 8> tree;  // tiny order forces deep trees
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(tree.insert(i, i * 2));
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_TRUE(tree.validate());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_NE(tree.find(i), nullptr) << i;
    EXPECT_EQ(*tree.find(i), i * 2);
  }
}

TEST(BPlusTree, ReverseInsertionOrder) {
  BPlusTree<int, int, 8> tree;
  for (int i = 999; i >= 0; --i) EXPECT_TRUE(tree.insert(i, i));
  EXPECT_TRUE(tree.validate());
  int expect = 0;
  tree.for_each([&](const int& k, const int&) {
    EXPECT_EQ(k, expect++);
    return true;
  });
  EXPECT_EQ(expect, 1000);
}

TEST(BPlusTree, ScanRangeAscending) {
  BPlusTree<int, int, 8> tree;
  for (int i = 0; i < 100; i += 2) tree.insert(i, i);
  std::vector<int> seen;
  tree.scan_range(10, 20, [&](const int& k, const int&) {
    seen.push_back(k);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{10, 12, 14, 16, 18, 20}));
}

TEST(BPlusTree, ScanRangeEarlyStop) {
  BPlusTree<int, int, 8> tree;
  for (int i = 0; i < 100; ++i) tree.insert(i, i);
  std::vector<int> seen;
  tree.scan_range(0, 99, [&](const int& k, const int&) {
    seen.push_back(k);
    return seen.size() < 3;
  });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
}

TEST(BPlusTree, ScanRangeDescending) {
  BPlusTree<int, int, 8> tree;
  for (int i = 0; i < 100; i += 2) tree.insert(i, i);
  std::vector<int> seen;
  tree.scan_range_desc(10, 20, [&](const int& k, const int&) {
    seen.push_back(k);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{20, 18, 16, 14, 12, 10}));
}

TEST(BPlusTree, ScanDescFindsNewestFirst) {
  BPlusTree<int, int, 8> tree;
  for (int i = 1; i <= 50; ++i) tree.insert(i, i);
  int newest = -1;
  tree.scan_range_desc(0, 1000, [&](const int& k, const int&) {
    newest = k;
    return false;
  });
  EXPECT_EQ(newest, 50);
}

TEST(BPlusTree, ScanEmptyRanges) {
  BPlusTree<int, int, 8> tree;
  for (int i = 10; i < 20; ++i) tree.insert(i, i);
  int count = 0;
  auto counter = [&](const int&, const int&) {
    ++count;
    return true;
  };
  tree.scan_range(0, 5, counter);
  tree.scan_range(25, 30, counter);
  tree.scan_range_desc(0, 5, counter);
  tree.scan_range_desc(25, 30, counter);
  EXPECT_EQ(count, 0);  // all four ranges miss every key
}

TEST(BPlusTree, TupleKeys) {
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;
  BPlusTree<Key, int> tree;
  tree.insert({1, 2, 3}, 1);
  tree.insert({1, 2, 4}, 2);
  tree.insert({1, 3, 1}, 3);
  std::vector<int> seen;
  tree.scan_range({1, 2, 0}, {1, 2, ~0u}, [&](const Key&, const int& v) {
    seen.push_back(v);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));
}

TEST(BPlusTree, ClearResets) {
  BPlusTree<int, int, 8> tree;
  for (int i = 0; i < 500; ++i) tree.insert(i, i);
  tree.clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.validate());
  EXPECT_TRUE(tree.insert(1, 1));
}

TEST(BPlusTree, EraseEverything) {
  BPlusTree<int, int, 8> tree;
  for (int i = 0; i < 300; ++i) tree.insert(i, i);
  for (int i = 0; i < 300; ++i) EXPECT_TRUE(tree.erase(i)) << i;
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.validate());
}

TEST(BPlusTree, EraseEverythingReverse) {
  BPlusTree<int, int, 8> tree;
  for (int i = 0; i < 300; ++i) tree.insert(i, i);
  for (int i = 299; i >= 0; --i) EXPECT_TRUE(tree.erase(i)) << i;
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.validate());
}

/// Every (key, value) of a tree in key order.
template <typename Tree>
std::vector<std::pair<int, int>> entries_of(const Tree& tree) {
  std::vector<std::pair<int, int>> out;
  tree.for_each([&](const int& k, const int& v) {
    out.emplace_back(k, v);
    return true;
  });
  return out;
}

// A bulk-built tree holds what inserting the same entries builds, at the
// sizes around a bulk leaf's fill (48 of 64) and a leaf's capacity, and it
// stays a working tree: random inserts and erases afterwards agree with
// std::map.
TEST(BPlusTree, AssignSortedMatchesInsertBuilt) {
  for (const int n : {0, 1, 47, 48, 49, 64, 65, 10000}) {
    SCOPED_TRACE("size " + std::to_string(n));
    std::vector<std::pair<int, int>> sorted;
    BPlusTree<int, int> inserted;
    std::map<int, int> model;
    for (int i = 0; i < n; ++i) {
      sorted.emplace_back(2 * i, 3 * i);
      inserted.insert(2 * i, 3 * i);
      model.emplace(2 * i, 3 * i);
    }
    BPlusTree<int, int> bulk;
    bulk.insert(-5, 0);  // replaced, not kept
    bulk.assign_sorted(sorted);
    ASSERT_TRUE(bulk.validate());
    EXPECT_EQ(bulk.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(entries_of(bulk), entries_of(inserted));
    for (int i = 0; i < n; ++i) {
      ASSERT_NE(bulk.find(2 * i), nullptr) << 2 * i;
      EXPECT_EQ(*bulk.find(2 * i), 3 * i);
      EXPECT_EQ(bulk.find(2 * i + 1), nullptr);
    }
    std::vector<int> desc;
    bulk.scan_range_desc(0, 2 * n, [&](const int& k, const int&) {
      desc.push_back(k);
      return true;
    });
    EXPECT_EQ(desc.size(), static_cast<std::size_t>(n));
    EXPECT_TRUE(std::is_sorted(desc.rbegin(), desc.rend()));

    Rng rng(static_cast<std::uint64_t>(n) + 1);
    const int key_space = 2 * n + 100;
    for (int op = 0; op < 2000; ++op) {
      const int key = static_cast<int>(rng.uniform(0, key_space));
      if (rng.uniform01() < 0.5) {
        const int value = static_cast<int>(rng.uniform(0, 1 << 20));
        EXPECT_EQ(bulk.insert(key, value), model.emplace(key, value).second);
      } else {
        EXPECT_EQ(bulk.erase(key), model.erase(key) > 0);
      }
      if (op % 250 == 0) {
        ASSERT_TRUE(bulk.validate()) << "op " << op;
      }
    }
    ASSERT_TRUE(bulk.validate());
    const std::vector<std::pair<int, int>> expected(model.begin(),
                                                    model.end());
    EXPECT_EQ(entries_of(bulk), expected);
    for (const auto& [key, value] : model) {
      ASSERT_NE(bulk.find(key), nullptr) << key;
      EXPECT_EQ(*bulk.find(key), value);
    }
  }
}

/// Property test: random interleaved operations behave exactly like
/// std::map, and structural invariants hold throughout.
class BTreeModelCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BTreeModelCheck, MatchesStdMap) {
  Rng rng(GetParam());
  BPlusTree<int, int, 8> tree;
  std::map<int, int> model;

  for (int op = 0; op < 5000; ++op) {
    const int key = static_cast<int>(rng.uniform(0, 400));
    const double dice = rng.uniform01();
    if (dice < 0.5) {
      const int value = static_cast<int>(rng.uniform(0, 1 << 30));
      EXPECT_EQ(tree.insert(key, value), model.emplace(key, value).second);
    } else if (dice < 0.85) {
      EXPECT_EQ(tree.erase(key), model.erase(key) > 0);
    } else {
      const int* found = tree.find(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, it->second);
      }
    }
    if (op % 500 == 0) ASSERT_TRUE(tree.validate()) << "op " << op;
  }
  ASSERT_TRUE(tree.validate());
  EXPECT_EQ(tree.size(), model.size());

  // Full in-order agreement.
  auto it = model.begin();
  tree.for_each([&](const int& k, const int& v) {
    EXPECT_NE(it, model.end());
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
    return true;
  });
  EXPECT_EQ(it, model.end());

  // Random range scans agree with the model.
  for (int scan = 0; scan < 50; ++scan) {
    int lo = static_cast<int>(rng.uniform(0, 400));
    int hi = static_cast<int>(rng.uniform(0, 400));
    if (lo > hi) std::swap(lo, hi);
    std::vector<int> tree_keys;
    tree.scan_range(lo, hi, [&](const int& k, const int&) {
      tree_keys.push_back(k);
      return true;
    });
    std::vector<int> model_keys;
    for (auto mit = model.lower_bound(lo);
         mit != model.end() && mit->first <= hi; ++mit) {
      model_keys.push_back(mit->first);
    }
    EXPECT_EQ(tree_keys, model_keys) << "range [" << lo << "," << hi << "]";

    std::vector<int> tree_desc;
    tree.scan_range_desc(lo, hi, [&](const int& k, const int&) {
      tree_desc.push_back(k);
      return true;
    });
    std::reverse(model_keys.begin(), model_keys.end());
    EXPECT_EQ(tree_desc, model_keys);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeModelCheck,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

}  // namespace
}  // namespace vdb::index
