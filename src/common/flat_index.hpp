// Open-addressing hash index from a small key to a 32-bit slot number.
//
// The 2PL lock table and the buffer cache's page table each map a small
// key to an index into storage their owner keeps at stable addresses (the
// lock-entry slab, the frame pool). This is that map, kept flat: one
// power-of-two array of (key, value) slots, linear probing, and
// backward-shift deletion, so an erase leaves no tombstone and a probe
// never walks over one. The array doubles before it would become more than
// half full and never shrinks; clear() keeps it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace vdb {

template <typename Key>
class FlatIndex {
 public:
  /// Value of an absent key (and the empty-slot marker).
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// std::hash of the key, multiplied by the 64-bit golden ratio and folded
  /// so that the high bits of the product reach the low ones. A key's probe
  /// sequence starts at hash_of(key) & (slots - 1).
  static std::uint64_t hash_of(const Key& key) {
    const std::uint64_t h = std::hash<Key>{}(key) * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 32);
  }

  std::size_t size() const { return size_; }

  /// The value mapped to `key`, or kNone.
  std::uint32_t find(const Key& key) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(key);; i = next(i)) {
      const Slot& s = slots_[i];
      if (s.value == kNone) return kNone;
      if (s.key == key) return s.value;
    }
  }

  /// Maps `key`, which must be absent, to `value` (not kNone).
  void insert(const Key& key, std::uint32_t value) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    place(key, value);
    ++size_;
  }

  /// The value mapped to `key`; when `key` is absent, maps it to `value`
  /// (not kNone) first. `inserted` tells which. One probe either way.
  std::uint32_t find_or_insert(const Key& key, std::uint32_t value,
                               bool* inserted) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].value != kNone; i = next(i)) {
      if (slots_[i].key == key) {
        *inserted = false;
        return slots_[i].value;
      }
    }
    slots_[i] = Slot{key, value};
    ++size_;
    *inserted = true;
    return value;
  }

  /// Unmaps `key`; false when it was absent.
  bool erase(const Key& key) {
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    for (;; hole = next(hole)) {
      if (slots_[hole].value == kNone) return false;
      if (slots_[hole].key == key) break;
    }
    // Backward shift: walk the rest of the cluster and move back into the
    // hole every slot whose probe path (from its home to where it sits)
    // passes the hole, so that no probe stops short of its key.
    for (std::size_t j = next(hole); slots_[j].value != kNone; j = next(j)) {
      const std::size_t from_home = (j - home(slots_[j].key)) & mask_;
      if (from_home >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].value = kNone;
    --size_;
    return true;
  }

  void clear() {
    for (Slot& s : slots_) s.value = kNone;
    size_ = 0;
  }

 private:
  struct Slot {
    Key key{};
    std::uint32_t value = kNone;
  };

  std::size_t home(const Key& key) const { return hash_of(key) & mask_; }
  std::size_t next(std::size_t i) const { return (i + 1) & mask_; }

  void place(const Key& key, std::uint32_t value) {
    std::size_t i = home(key);
    while (slots_[i].value != kNone) i = next(i);
    slots_[i] = Slot{key, value};
  }

  void grow() {
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(
                                  std::max<std::size_t>(16, slots_.size() * 2)));
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.value != kNone) place(s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vdb
