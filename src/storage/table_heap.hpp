// Table heap: fixed-slot row storage for one table over a tablespace.
//
// The heap separates *choosing* a location (choose_insert_slot, which may
// reserve a fresh page) from *applying* a physical change (apply_insert /
// apply_update / apply_delete). The engine logs a redo record between the
// two steps, and recovery replays the exact same apply functions — one code
// path for forward processing and redo, which is how the replayed database
// ends up byte-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "storage/storage_manager.hpp"

namespace vdb::storage {

class TableHeap {
 public:
  TableHeap(StorageManager* sm, TableId id, TablespaceId ts,
            std::uint16_t slot_size)
      : sm_(sm), id_(id), tablespace_(ts), slot_size_(slot_size) {}

  TableId id() const { return id_; }
  TablespaceId tablespace() const { return tablespace_; }
  std::uint16_t slot_size() const { return slot_size_; }

  /// Location a new row will occupy. When no existing page has room, a new
  /// page is reserved and `needs_format` is set — the caller must log and
  /// apply a FORMAT record before the INSERT record. Otherwise `page` pins
  /// the chosen page, for apply_insert to write through.
  struct InsertSlot {
    RowId rid;
    bool needs_format = false;
    PageRef page;
  };
  Result<InsertSlot> choose_insert_slot();

  /// Stores `row` at `rid`, through `page` when it pins rid's page (the
  /// one choose_insert_slot returned), else fetching it.
  Status apply_insert(RowId rid, std::span<const std::uint8_t> row, Lsn lsn,
                      PageRef page = {});
  Status apply_update(RowId rid, std::span<const std::uint8_t> row, Lsn lsn);
  Status apply_delete(RowId rid, Lsn lsn);

  /// Copies the row at `rid` into `out`, reusing its capacity.
  Status read(RowId rid, std::vector<std::uint8_t>* out) const;

  /// Visits every live row. Return false from `fn` to stop early.
  Status scan(const std::function<bool(RowId, std::span<const std::uint8_t>)>&
                  fn) const;

  /// Registers a page discovered during a post-recovery rebuild scan.
  void register_page(PageId pid, bool has_free_slots,
                     std::uint16_t used_count);

  /// Called by the engine after apply_format of a page it reserved.
  void adopt_page(PageId pid);

  std::uint64_t row_count() const { return row_count_; }
  const std::vector<PageId>& pages() const { return pages_; }

  /// Forgets all in-memory placement state (used before a rebuild).
  void reset();

 private:
  StorageManager* sm_;
  TableId id_;
  TablespaceId tablespace_;
  std::uint16_t slot_size_;

  std::vector<PageId> pages_;
  std::set<PageId> pages_with_space_;
  std::uint64_t row_count_ = 0;
};

}  // namespace vdb::storage
