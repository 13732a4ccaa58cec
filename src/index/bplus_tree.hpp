// In-memory B+-tree with doubly linked leaves.
//
// Access paths for the catalog and the TPC-C tables. Indexes are volatile
// and rebuilt from table heaps when a database opens (a standard design for
// recoverable systems: the heap is the durable truth, the index is derived
// state). Unique keys only — composite keys carry a discriminator where the
// logical key is non-unique.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace vdb::index {

template <typename Key, typename Value, int Order = 64>
class BPlusTree {
  static_assert(Order >= 4, "Order must be at least 4");

 public:
  BPlusTree() = default;
  ~BPlusTree() { clear(); }
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Inserts; returns false (no change) if the key already exists.
  bool insert(const Key& key, const Value& value) {
    if (root_ == nullptr) {
      auto* leaf = new Leaf();
      leaf->keys.push_back(key);
      leaf->values.push_back(value);
      root_ = leaf;
      first_leaf_ = last_leaf_ = leaf;
      size_ = 1;
      return true;
    }
    InsertResult result = insert_into(root_, key, value);
    if (!result.inserted) return false;
    if (result.split_node != nullptr) {
      auto* new_root = new Internal();
      new_root->keys.push_back(result.split_key);
      new_root->children.push_back(root_);
      new_root->children.push_back(result.split_node);
      root_ = new_root;
    }
    size_ += 1;
    return true;
  }

  /// Replaces the contents with `entries`, whose keys must be strictly
  /// ascending, building the tree bottom-up: leaves, then each internal
  /// level, every node filled to three quarters of its order (the sizes
  /// spread evenly over a level) so that later inserts do not split at
  /// once. Linear in the entry count, against n log n for n inserts.
  void assign_sorted(std::span<const std::pair<Key, Value>> entries) {
    clear();
    if (entries.empty()) return;
    for (size_t i = 1; i < entries.size(); ++i) {
      VDB_CHECK_MSG(entries[i - 1].first < entries[i].first,
                    "assign_sorted needs strictly ascending keys");
    }
    // Current level's nodes and the smallest key of each one's subtree.
    std::vector<Node*> level;
    std::vector<Key> lows;
    Leaf* prev = nullptr;
    for_each_share(entries.size(), [&](size_t begin, size_t end) {
      auto* leaf = new Leaf();
      leaf->keys.reserve(end - begin);
      leaf->values.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        leaf->keys.push_back(entries[i].first);
        leaf->values.push_back(entries[i].second);
      }
      leaf->prev = prev;
      if (prev != nullptr) prev->next = leaf;
      prev = leaf;
      level.push_back(leaf);
      lows.push_back(leaf->keys.front());
    });
    first_leaf_ = static_cast<Leaf*>(level.front());
    last_leaf_ = prev;
    while (level.size() > 1) {
      std::vector<Node*> parents;
      std::vector<Key> parent_lows;
      for_each_share(level.size(), [&](size_t begin, size_t end) {
        auto* node = new Internal();
        node->children.assign(level.begin() + static_cast<long>(begin),
                              level.begin() + static_cast<long>(end));
        node->keys.assign(lows.begin() + static_cast<long>(begin) + 1,
                          lows.begin() + static_cast<long>(end));
        parents.push_back(node);
        parent_lows.push_back(lows[begin]);
      });
      level = std::move(parents);
      lows = std::move(parent_lows);
    }
    root_ = level.front();
    size_ = entries.size();
  }

  /// Removes; returns false if the key was absent.
  bool erase(const Key& key) {
    if (root_ == nullptr) return false;
    if (!erase_from(root_, key)) return false;
    size_ -= 1;
    // Shrink the root when it decays.
    if (!root_->is_leaf) {
      auto* internal = static_cast<Internal*>(root_);
      if (internal->children.size() == 1) {
        root_ = internal->children[0];
        internal->children.clear();
        delete internal;
      }
    } else if (root_->is_leaf && static_cast<Leaf*>(root_)->keys.empty()) {
      delete root_;
      root_ = nullptr;
      first_leaf_ = last_leaf_ = nullptr;
    }
    return true;
  }

  const Value* find(const Key& key) const {
    const Leaf* leaf = find_leaf(key);
    if (leaf == nullptr) return nullptr;
    const auto it =
        std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
    if (it == leaf->keys.end() || key < *it) return nullptr;
    return &leaf->values[static_cast<size_t>(it - leaf->keys.begin())];
  }

  Value* find(const Key& key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  bool contains(const Key& key) const { return find(key) != nullptr; }

  /// Visits entries with from <= key <= to in ascending order until `fn`
  /// returns false.
  template <typename Fn>
  void scan_range(const Key& from, const Key& to, Fn&& fn) const {
    const Leaf* leaf = find_leaf(from);
    if (leaf == nullptr) return;
    size_t i = static_cast<size_t>(
        std::lower_bound(leaf->keys.begin(), leaf->keys.end(), from) -
        leaf->keys.begin());
    while (leaf != nullptr) {
      for (; i < leaf->keys.size(); ++i) {
        if (to < leaf->keys[i]) return;
        if (!fn(leaf->keys[i], leaf->values[i])) return;
      }
      leaf = leaf->next;
      i = 0;
    }
  }

  /// Visits entries with from <= key <= to in DESCENDING order until `fn`
  /// returns false (e.g. "newest order of a customer").
  template <typename Fn>
  void scan_range_desc(const Key& from, const Key& to, Fn&& fn) const {
    // Find the last leaf/pos with key <= to.
    const Leaf* leaf = find_leaf(to);
    if (leaf == nullptr) {
      leaf = last_leaf_;
      if (leaf == nullptr) return;
    }
    auto it = std::upper_bound(leaf->keys.begin(), leaf->keys.end(), to);
    if (it == leaf->keys.begin()) {
      leaf = leaf->prev;
      if (leaf == nullptr) return;
      it = leaf->keys.end();
    }
    size_t i = static_cast<size_t>(it - leaf->keys.begin());
    while (leaf != nullptr) {
      while (i > 0) {
        --i;
        if (leaf->keys[i] < from) return;
        if (!fn(leaf->keys[i], leaf->values[i])) return;
      }
      leaf = leaf->prev;
      if (leaf != nullptr) i = leaf->keys.size();
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Leaf* leaf = first_leaf_; leaf != nullptr; leaf = leaf->next) {
      for (size_t i = 0; i < leaf->keys.size(); ++i) {
        if (!fn(leaf->keys[i], leaf->values[i])) return;
      }
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    destroy(root_);
    root_ = nullptr;
    first_leaf_ = last_leaf_ = nullptr;
    size_ = 0;
  }

  /// Structural invariants (for property tests): sorted keys, linked-leaf
  /// completeness, fanout bounds, consistent separator keys.
  bool validate() const {
    if (root_ == nullptr) return size_ == 0;
    size_t counted = 0;
    for (const Leaf* leaf = first_leaf_; leaf != nullptr; leaf = leaf->next) {
      for (size_t i = 1; i < leaf->keys.size(); ++i) {
        if (!(leaf->keys[i - 1] < leaf->keys[i])) return false;
      }
      if (leaf->next != nullptr) {
        if (leaf->next->prev != leaf) return false;
        if (!leaf->keys.empty() && !leaf->next->keys.empty() &&
            !(leaf->keys.back() < leaf->next->keys.front())) {
          return false;
        }
      }
      counted += leaf->keys.size();
    }
    return counted == size_;
  }

 private:
  struct Node {
    bool is_leaf;
    explicit Node(bool leaf) : is_leaf(leaf) {}
    virtual ~Node() = default;
  };

  struct Leaf final : Node {
    Leaf() : Node(true) {}
    std::vector<Key> keys;
    std::vector<Value> values;
    Leaf* next = nullptr;
    Leaf* prev = nullptr;
  };

  struct Internal final : Node {
    Internal() : Node(false) {}
    // children.size() == keys.size() + 1; keys[i] is the smallest key in
    // children[i + 1]'s subtree.
    std::vector<Key> keys;
    std::vector<Node*> children;
    ~Internal() override {
      for (Node* c : children) {
        if (c->is_leaf) {
          delete static_cast<Leaf*>(c);
        } else {
          delete static_cast<Internal*>(c);
        }
      }
    }
  };

  struct InsertResult {
    bool inserted = false;
    Node* split_node = nullptr;  // new right sibling, if a split happened
    Key split_key{};             // smallest key in split_node's subtree
  };

  InsertResult insert_into(Node* node, const Key& key, const Value& value) {
    if (node->is_leaf) {
      auto* leaf = static_cast<Leaf*>(node);
      auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
      const size_t pos = static_cast<size_t>(it - leaf->keys.begin());
      if (it != leaf->keys.end() && !(key < *it)) return {};  // duplicate
      leaf->keys.insert(it, key);
      leaf->values.insert(leaf->values.begin() + static_cast<long>(pos),
                          value);
      InsertResult result;
      result.inserted = true;
      if (leaf->keys.size() > kMaxLeaf) {
        auto* right = new Leaf();
        const size_t mid = leaf->keys.size() / 2;
        right->keys.assign(leaf->keys.begin() + static_cast<long>(mid),
                           leaf->keys.end());
        right->values.assign(leaf->values.begin() + static_cast<long>(mid),
                             leaf->values.end());
        leaf->keys.resize(mid);
        leaf->values.resize(mid);
        right->next = leaf->next;
        right->prev = leaf;
        if (leaf->next != nullptr) leaf->next->prev = right;
        leaf->next = right;
        if (last_leaf_ == leaf) last_leaf_ = right;
        result.split_node = right;
        result.split_key = right->keys.front();
      }
      return result;
    }

    auto* internal = static_cast<Internal*>(node);
    const size_t child_idx = child_index(internal, key);
    InsertResult child_result =
        insert_into(internal->children[child_idx], key, value);
    if (!child_result.inserted) return {};
    InsertResult result;
    result.inserted = true;
    if (child_result.split_node != nullptr) {
      internal->keys.insert(
          internal->keys.begin() + static_cast<long>(child_idx),
          child_result.split_key);
      internal->children.insert(
          internal->children.begin() + static_cast<long>(child_idx) + 1,
          child_result.split_node);
      if (internal->keys.size() > kMaxInternal) {
        auto* right = new Internal();
        const size_t mid = internal->keys.size() / 2;
        result.split_key = internal->keys[mid];
        right->keys.assign(internal->keys.begin() + static_cast<long>(mid) + 1,
                           internal->keys.end());
        right->children.assign(
            internal->children.begin() + static_cast<long>(mid) + 1,
            internal->children.end());
        internal->keys.resize(mid);
        internal->children.resize(mid + 1);
        result.split_node = right;
      }
    }
    return result;
  }

  bool erase_from(Node* node, const Key& key) {
    if (node->is_leaf) {
      auto* leaf = static_cast<Leaf*>(node);
      auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
      if (it == leaf->keys.end() || key < *it) return false;
      const size_t pos = static_cast<size_t>(it - leaf->keys.begin());
      leaf->keys.erase(it);
      leaf->values.erase(leaf->values.begin() + static_cast<long>(pos));
      return true;
    }
    auto* internal = static_cast<Internal*>(node);
    const size_t child_idx = child_index(internal, key);
    Node* child = internal->children[child_idx];
    if (!erase_from(child, key)) return false;
    rebalance_child(internal, child_idx);
    return true;
  }

  /// Repairs an underflowing child by borrowing from or merging with a
  /// sibling. Underflow threshold is a quarter of capacity — lazy deletion
  /// keeps the structure valid without aggressive merging.
  void rebalance_child(Internal* parent, size_t idx) {
    Node* child = parent->children[idx];
    const size_t child_size =
        child->is_leaf ? static_cast<Leaf*>(child)->keys.size()
                       : static_cast<Internal*>(child)->children.size();
    const size_t min_size = child->is_leaf ? kMaxLeaf / 4 : kMaxInternal / 4;
    if (child_size >= std::max<size_t>(1, min_size)) return;
    if (child_size > 0 && parent->children.size() == 1) return;

    // Merge with the left sibling when possible, otherwise the right one.
    if (child->is_leaf) {
      if (idx > 0) {
        merge_leaves(parent, idx - 1);
      } else if (idx + 1 < parent->children.size()) {
        merge_leaves(parent, idx);
      }
    } else {
      if (idx > 0) {
        merge_internals(parent, idx - 1);
      } else if (idx + 1 < parent->children.size()) {
        merge_internals(parent, idx);
      }
    }
  }

  /// Merges children[i + 1] into children[i] if they fit, else rebalances
  /// by moving half the surplus.
  void merge_leaves(Internal* parent, size_t i) {
    auto* left = static_cast<Leaf*>(parent->children[i]);
    auto* right = static_cast<Leaf*>(parent->children[i + 1]);
    if (left->keys.size() + right->keys.size() <= kMaxLeaf) {
      left->keys.insert(left->keys.end(), right->keys.begin(),
                        right->keys.end());
      left->values.insert(left->values.end(), right->values.begin(),
                          right->values.end());
      left->next = right->next;
      if (right->next != nullptr) right->next->prev = left;
      if (last_leaf_ == right) last_leaf_ = left;
      delete right;
      parent->keys.erase(parent->keys.begin() + static_cast<long>(i));
      parent->children.erase(parent->children.begin() +
                             static_cast<long>(i) + 1);
    } else if (left->keys.size() < right->keys.size()) {
      // Borrow the front of right.
      left->keys.push_back(right->keys.front());
      left->values.push_back(right->values.front());
      right->keys.erase(right->keys.begin());
      right->values.erase(right->values.begin());
      parent->keys[i] = right->keys.front();
    } else {
      // Borrow the back of left.
      right->keys.insert(right->keys.begin(), left->keys.back());
      right->values.insert(right->values.begin(), left->values.back());
      left->keys.pop_back();
      left->values.pop_back();
      parent->keys[i] = right->keys.front();
    }
  }

  void merge_internals(Internal* parent, size_t i) {
    auto* left = static_cast<Internal*>(parent->children[i]);
    auto* right = static_cast<Internal*>(parent->children[i + 1]);
    if (left->children.size() + right->children.size() <= kMaxInternal + 1) {
      left->keys.push_back(parent->keys[i]);
      left->keys.insert(left->keys.end(), right->keys.begin(),
                        right->keys.end());
      left->children.insert(left->children.end(), right->children.begin(),
                            right->children.end());
      right->children.clear();
      delete right;
      parent->keys.erase(parent->keys.begin() + static_cast<long>(i));
      parent->children.erase(parent->children.begin() +
                             static_cast<long>(i) + 1);
    } else if (left->children.size() < right->children.size()) {
      left->keys.push_back(parent->keys[i]);
      left->children.push_back(right->children.front());
      parent->keys[i] = right->keys.front();
      right->keys.erase(right->keys.begin());
      right->children.erase(right->children.begin());
    } else {
      right->keys.insert(right->keys.begin(), parent->keys[i]);
      right->children.insert(right->children.begin(), left->children.back());
      parent->keys[i] = left->keys.back();
      left->keys.pop_back();
      left->children.pop_back();
    }
  }

  size_t child_index(const Internal* node, const Key& key) const {
    return static_cast<size_t>(
        std::upper_bound(node->keys.begin(), node->keys.end(), key) -
        node->keys.begin());
  }

  const Leaf* find_leaf(const Key& key) const {
    const Node* node = root_;
    if (node == nullptr) return nullptr;
    while (!node->is_leaf) {
      const auto* internal = static_cast<const Internal*>(node);
      node = internal->children[child_index(internal, key)];
    }
    const auto* leaf = static_cast<const Leaf*>(node);
    // The target key may be the first of the next leaf when separators are
    // stale after lazy deletes.
    if (!leaf->keys.empty() && leaf->keys.back() < key &&
        leaf->next != nullptr) {
      return leaf->next;
    }
    return leaf;
  }

  void destroy(Node* node) {
    if (node == nullptr) return;
    if (node->is_leaf) {
      delete static_cast<Leaf*>(node);
    } else {
      delete static_cast<Internal*>(node);
    }
  }

  /// Splits [0, n) into ceil(n / kBulkFill) consecutive shares whose sizes
  /// differ by at most one and calls fn(begin, end) for each in order.
  template <typename Fn>
  static void for_each_share(size_t n, Fn&& fn) {
    const size_t shares = (n + kBulkFill - 1) / kBulkFill;
    const size_t base = n / shares;
    const size_t extra = n % shares;
    size_t begin = 0;
    for (size_t i = 0; i < shares; ++i) {
      const size_t end = begin + base + (i < extra ? 1 : 0);
      fn(begin, end);
      begin = end;
    }
  }

  static constexpr size_t kMaxLeaf = Order;
  static constexpr size_t kMaxInternal = Order;
  /// Entries per leaf and children per internal node of a bulk build.
  static constexpr size_t kBulkFill = Order * 3 / 4;

  Node* root_ = nullptr;
  Leaf* first_leaf_ = nullptr;
  Leaf* last_leaf_ = nullptr;
  size_t size_ = 0;
};

}  // namespace vdb::index
