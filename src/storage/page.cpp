#include "storage/page.hpp"

#include <bit>
#include <cstring>

#include "common/codec.hpp"

namespace vdb::storage {

template <typename Image>
bool PageImage<Image>::slot_used(std::uint16_t slot) const {
  VDB_CHECK(slot < capacity());
  return (data()[bitmap_offset() + slot / 8] >> (slot % 8)) & 1;
}

template <typename Image>
std::uint16_t PageImage<Image>::find_free_slot() const {
  const std::uint16_t cap = capacity();
  if (used_count() >= cap) return kNoSlot;
  // A byte's trailing ones are its used low slots, so the first byte with
  // a zero bit holds the lowest free slot. format() zeroes the bits past
  // the capacity in the last byte; a zero there is not a slot.
  const std::uint8_t* bitmap = data() + bitmap_offset();
  for (size_t byte = 0; byte < bitmap_bytes(); ++byte) {
    if (bitmap[byte] == 0xFF) continue;
    const size_t slot = byte * 8 + std::countr_one(bitmap[byte]);
    return slot < cap ? static_cast<std::uint16_t>(slot) : kNoSlot;
  }
  return kNoSlot;
}

template <typename Image>
Result<std::span<const std::uint8_t>> PageImage<Image>::read_slot(
    std::uint16_t slot) const {
  if (slot >= capacity() || !slot_used(slot)) {
    return make_error(ErrorCode::kNotFound, "slot not in use");
  }
  const size_t off = slot_offset(slot);
  const std::uint16_t len = get_u16(off);
  return std::span<const std::uint8_t>{data() + off + 2, len};
}

template <typename Image>
bool PageImage<Image>::verify_checksum() const {
  if (!formatted()) return true;  // virgin page
  return stored_checksum() == computed_checksum();
}

template <typename Image>
std::uint32_t PageImage<Image>::computed_checksum() const {
  return crc32c({data() + 4, kSize - 4});
}

template class PageImage<Page>;
template class PageImage<PageView>;

Page::Page(const PageView& view) {
  std::memcpy(buf_.data(), view.raw(), kSize);
}

std::uint16_t Page::capacity_for(std::uint16_t slot_size) {
  const size_t stride = slot_size + 2u;
  // Start from the bitmap-free bound and walk down until header + bitmap +
  // slots fit.
  size_t cap = (kSize - kHeaderBase) / stride;
  while (cap > 0 && kHeaderBase + (cap + 7) / 8 + cap * stride > kSize) {
    --cap;
  }
  VDB_CHECK_MSG(cap > 0, "slot size too large for page");
  return static_cast<std::uint16_t>(cap);
}

void Page::format(TableId owner, std::uint16_t slot_size) {
  buf_.fill(0);
  set_u16(4, kMagic);
  set_u16(6, slot_size);
  set_u32(16, owner.value);
  set_u16(20, capacity_for(slot_size));
  set_u16(22, 0);
}

void Page::set_slot(std::uint16_t slot, std::span<const std::uint8_t> payload) {
  VDB_CHECK(slot < capacity());
  VDB_CHECK_MSG(payload.size() <= slot_size(), "row larger than slot");
  const size_t off = slot_offset(slot);
  set_u16(off, static_cast<std::uint16_t>(payload.size()));
  std::memcpy(buf_.data() + off + 2, payload.data(), payload.size());
  if (!slot_used(slot)) {
    buf_[bitmap_offset() + slot / 8] |= static_cast<std::uint8_t>(1u << (slot % 8));
    set_u16(22, used_count() + 1);
  }
}

void Page::clear_slot(std::uint16_t slot) {
  VDB_CHECK(slot < capacity());
  if (slot_used(slot)) {
    buf_[bitmap_offset() + slot / 8] &=
        static_cast<std::uint8_t>(~(1u << (slot % 8)));
    set_u16(22, used_count() - 1);
  }
}

void Page::update_checksum() { set_u32(0, computed_checksum()); }

}  // namespace vdb::storage
