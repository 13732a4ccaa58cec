// Fixed-slot 8 KiB database page.
//
// Layout:
//   [0]  u32 checksum        — CRC32C over bytes [4, kSize); set on disk write
//   [4]  u16 magic           — 0xDBDB for formatted pages, 0 when virgin
//   [6]  u16 slot_size       — payload capacity of each slot
//   [8]  u64 page_lsn        — LSN of the last change applied to this page
//   [16] u32 owner           — TableId.value of the owning object
//   [20] u16 slot_capacity
//   [22] u16 used_count
//   [24] bitmap (ceil(capacity/8) bytes), then slots of (u16 len + payload).
//
// Slots are fixed-stride, so updates are always in place and RowIds are
// stable — the property the redo/undo protocol and the in-memory indexes
// rely on.
//
// Page owns its bytes; PageView reads an image that lives elsewhere (a
// block of a datafile being scanned) without copying it. Both read through
// the same accessors, PageImage.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/status.hpp"
#include "common/types.hpp"

namespace vdb::storage {

/// The header layout and read-only accessors of a page image. `Image`
/// (Page or PageView) supplies the image's bytes through `image()`.
template <typename Image>
class PageImage {
 public:
  static constexpr size_t kSize = 8192;
  static constexpr std::uint16_t kMagic = 0xDBDB;
  static constexpr size_t kHeaderBase = 24;

  const std::uint8_t* raw() const { return data(); }
  std::span<const std::uint8_t> bytes() const { return {data(), kSize}; }

  bool formatted() const { return get_u16(4) == kMagic; }
  TableId owner() const { return TableId{get_u32(16)}; }
  std::uint16_t slot_size() const { return get_u16(6); }
  std::uint16_t capacity() const { return get_u16(20); }
  std::uint16_t used_count() const { return get_u16(22); }
  Lsn lsn() const { return get_u64(8); }

  bool slot_used(std::uint16_t slot) const;

  /// Lowest free slot index, or kNoSlot when full.
  static constexpr std::uint16_t kNoSlot = 0xFFFF;
  std::uint16_t find_free_slot() const;

  /// Payload of a used slot.
  Result<std::span<const std::uint8_t>> read_slot(std::uint16_t slot) const;

  /// True when the stored checksum matches the contents. All-zero (virgin)
  /// pages verify trivially.
  bool verify_checksum() const;

  /// Checksum recorded in the header (what the writer computed).
  std::uint32_t stored_checksum() const { return get_u32(0); }

  /// Checksum of the current contents (what a verifier computes).
  std::uint32_t computed_checksum() const;

 protected:
  size_t bitmap_offset() const { return kHeaderBase; }
  size_t bitmap_bytes() const { return (capacity() + 7) / 8; }
  size_t slot_stride() const { return slot_size() + 2u; }
  size_t slot_offset(std::uint16_t slot) const {
    return kHeaderBase + bitmap_bytes() + slot * slot_stride();
  }

  std::uint16_t get_u16(size_t off) const { return get<std::uint16_t>(off); }
  std::uint32_t get_u32(size_t off) const { return get<std::uint32_t>(off); }
  std::uint64_t get_u64(size_t off) const { return get<std::uint64_t>(off); }

 private:
  const std::uint8_t* data() const {
    return static_cast<const Image&>(*this).image();
  }
  template <typename T>
  T get(size_t off) const {
    T v;
    std::memcpy(&v, data() + off, sizeof(v));
    return v;
  }
};

class PageView;

class Page : public PageImage<Page> {
 public:
  Page() { buf_.fill(0); }
  /// A copy of the viewed image.
  explicit Page(const PageView& view);

  using PageImage::raw;
  std::uint8_t* raw() { return buf_.data(); }

  /// Largest slot capacity a page can offer for a given payload size.
  static std::uint16_t capacity_for(std::uint16_t slot_size);

  /// Zeroes the page and writes a fresh header for `owner` with `slot_size`
  /// payload slots.
  void format(TableId owner, std::uint16_t slot_size);

  void set_lsn(Lsn lsn) { set_u64(8, lsn); }

  /// Stores `payload` (size <= slot_size) into `slot`, marking it used.
  void set_slot(std::uint16_t slot, std::span<const std::uint8_t> payload);

  /// Marks `slot` free. The payload bytes are not wiped.
  void clear_slot(std::uint16_t slot);

  /// Recomputes and stores the checksum (call before writing to disk).
  void update_checksum();

 private:
  friend class PageImage<Page>;
  const std::uint8_t* image() const { return buf_.data(); }

  void set_u16(size_t off, std::uint16_t v) { set(off, v); }
  void set_u32(size_t off, std::uint32_t v) { set(off, v); }
  void set_u64(size_t off, std::uint64_t v) { set(off, v); }
  template <typename T>
  void set(size_t off, T v) {
    std::memcpy(buf_.data() + off, &v, sizeof(v));
  }

  std::array<std::uint8_t, kSize> buf_;
};

/// A read-only view of a page image owned by someone else: a Page, or
/// kSize bytes of a datafile. It is valid only while those bytes are.
class PageView : public PageImage<PageView> {
 public:
  explicit PageView(const std::uint8_t* image) : image_(image) {}
  PageView(const Page& page) : image_(page.raw()) {}  // NOLINT: a view

 private:
  friend class PageImage<PageView>;
  const std::uint8_t* image() const { return image_; }

  const std::uint8_t* image_;
};

}  // namespace vdb::storage
