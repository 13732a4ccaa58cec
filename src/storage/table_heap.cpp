#include "storage/table_heap.hpp"

namespace vdb::storage {

Result<TableHeap::InsertSlot> TableHeap::choose_insert_slot() {
  while (!pages_with_space_.empty()) {
    const PageId pid = *pages_with_space_.begin();
    VDB_ASSIGN_OR_RETURN(PageRef ref, sm_->fetch(pid));
    const std::uint16_t slot = ref->find_free_slot();
    if (slot != Page::kNoSlot) {
      return InsertSlot{RowId{pid, slot}, false, std::move(ref)};
    }
    pages_with_space_.erase(pid);
  }
  VDB_ASSIGN_OR_RETURN(PageId pid, sm_->reserve_page(tablespace_));
  return InsertSlot{RowId{pid, 0}, true, {}};
}

Status TableHeap::apply_insert(RowId rid, std::span<const std::uint8_t> row,
                               Lsn lsn, PageRef page) {
  if (!page.valid()) {
    VDB_ASSIGN_OR_RETURN(page, sm_->fetch(rid.page));
  }
  VDB_CHECK_MSG(page->formatted(), "insert into unformatted page");
  page->set_slot(rid.slot, row);
  page->set_lsn(lsn);
  sm_->mark_dirty(rid.page);
  row_count_ += 1;
  if (page->used_count() >= page->capacity()) {
    pages_with_space_.erase(rid.page);
  }
  return Status::ok();
}

Status TableHeap::apply_update(RowId rid, std::span<const std::uint8_t> row,
                               Lsn lsn) {
  VDB_ASSIGN_OR_RETURN(PageRef ref, sm_->fetch(rid.page));
  if (!ref->slot_used(rid.slot)) {
    return make_error(ErrorCode::kNotFound,
                      "update of free slot at " + vdb::to_string(rid) +
                          " table " + std::to_string(id_.value));
  }
  ref->set_slot(rid.slot, row);
  ref->set_lsn(lsn);
  sm_->mark_dirty(rid.page);
  return Status::ok();
}

Status TableHeap::apply_delete(RowId rid, Lsn lsn) {
  VDB_ASSIGN_OR_RETURN(PageRef ref, sm_->fetch(rid.page));
  if (!ref->slot_used(rid.slot)) {
    return make_error(ErrorCode::kNotFound,
                      "delete of free slot at " + vdb::to_string(rid) +
                          " table " + std::to_string(id_.value));
  }
  ref->clear_slot(rid.slot);
  ref->set_lsn(lsn);
  sm_->mark_dirty(rid.page);
  row_count_ -= 1;
  pages_with_space_.insert(rid.page);
  return Status::ok();
}

Status TableHeap::read(RowId rid, std::vector<std::uint8_t>* out) const {
  VDB_ASSIGN_OR_RETURN(PageRef ref, sm_->fetch(rid.page));
  auto slot = ref->read_slot(rid.slot);
  if (!slot.is_ok()) {
    return make_error(slot.status().code(),
                      "read of " + vdb::to_string(rid) + " table " +
                          std::to_string(id_.value) + ": " +
                          slot.status().message());
  }
  out->assign(slot.value().begin(), slot.value().end());
  return Status::ok();
}

Status TableHeap::scan(
    const std::function<bool(RowId, std::span<const std::uint8_t>)>& fn)
    const {
  for (PageId pid : pages_) {
    VDB_ASSIGN_OR_RETURN(PageRef ref, sm_->fetch(pid));
    const std::uint16_t cap = ref->capacity();
    for (std::uint16_t slot = 0; slot < cap; ++slot) {
      if (!ref->slot_used(slot)) continue;
      auto payload = ref->read_slot(slot);
      if (!payload.is_ok()) return payload.status();
      if (!fn(RowId{pid, slot}, payload.value())) return Status::ok();
    }
  }
  return Status::ok();
}

void TableHeap::register_page(PageId pid, bool has_free_slots,
                              std::uint16_t used_count) {
  pages_.push_back(pid);
  if (has_free_slots) pages_with_space_.insert(pid);
  row_count_ += used_count;
}

void TableHeap::adopt_page(PageId pid) {
  pages_.push_back(pid);
  pages_with_space_.insert(pid);
}

void TableHeap::reset() {
  pages_.clear();
  pages_with_space_.clear();
  row_count_ = 0;
}

}  // namespace vdb::storage
