// Database buffer cache (Oracle: the buffer cache component of the SGA).
//
// Fixed number of page frames with LRU replacement, pin counts, and dirty
// tracking. Frames sit on an intrusive recency list (least recently used
// at the head): a hit relinks its frame in O(1), and an eviction walks from
// the head past pinned frames only. Enforces the WAL rule: before a dirty
// page reaches disk, the log must be flushed past that page's LSN
// (wal_flush hook).
//
// Checkpoints write every dirty frame as *background* I/O on the data
// disks; that burst of device time is precisely what slows concurrent
// transactions down and produces the performance/recovery trade-off the
// paper measures (Figure 4).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "obs/observability.hpp"
#include "sim/filesystem.hpp"
#include "sim/virtual_clock.hpp"
#include "storage/page.hpp"

namespace vdb::storage {

/// Backing store for pages; implemented by StorageManager over datafiles.
class PageStore {
 public:
  virtual ~PageStore() = default;
  virtual Status load_page(PageId id, Page* out, sim::IoMode mode) = 0;
  /// `batched`: part of a checkpoint-style sweep — the device sees sorted,
  /// near-sequential I/O (DBWR's elevator), not one random seek per page.
  virtual Status store_page(PageId id, Page& page, sim::IoMode mode,
                            bool batched) = 0;
};

class BufferCache;

/// RAII pin on a cached page. While alive, the frame cannot be evicted and
/// the Page pointer stays valid.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef();

  Page* page() const { return page_; }
  Page* operator->() const { return page_; }
  PageId id() const { return id_; }
  bool valid() const { return page_ != nullptr; }

 private:
  friend class BufferCache;
  PageRef(BufferCache* cache, PageId id, Page* page)
      : cache_(cache), id_(id), page_(page) {}

  BufferCache* cache_ = nullptr;
  PageId id_{PageId::invalid()};
  Page* page_ = nullptr;
};

struct CheckpointResult {
  std::uint64_t pages_written = 0;
  /// Pages that could not be written (e.g. their datafile was deleted by an
  /// operator fault). The engine uses these to detect media failures.
  std::vector<std::pair<PageId, Status>> failures;
};

class BufferCache {
 public:
  /// `wal_flush(lsn)` must guarantee the redo stream is durable up to and
  /// including `lsn` before returning.
  BufferCache(PageStore* store, std::uint32_t capacity,
              std::function<void(Lsn)> wal_flush);

  /// Pins and returns the page, reading it from the store on a miss
  /// (foreground I/O — the caller waits).
  Result<PageRef> fetch(PageId id);

  /// Marks a pinned page dirty. The page's own LSN must already be set to
  /// the redo record that modified it. `now` timestamps the first-dirty
  /// instant for aged-flush (incremental checkpoint) policies.
  ///
  /// `first_change_lsn` overrides the frame's recovery LSN (the position
  /// crash recovery must replay from to reconstruct this page). It defaults
  /// to the page's current LSN — correct when mark_dirty follows every
  /// individual change — but batched replay marks a page dirty once after
  /// applying a whole run of records, and must pass the LSN of the *first*
  /// record applied or a checkpoint taken mid-recovery would record a
  /// too-late replay start and lose the earlier changes on a second crash.
  void mark_dirty(PageId id, SimTime now, Lsn first_change_lsn = kInvalidLsn);

  /// Writes all dirty frames (WAL rule enforced, background I/O).
  CheckpointResult checkpoint();

  /// Writes dirty frames whose first-dirty instant is <= `older_than`
  /// (Oracle's log_checkpoint_timeout semantics: no buffer stays dirty
  /// longer than the timeout).
  CheckpointResult flush_aged(SimTime older_than);

  /// LSN of the oldest redo record whose page change may not be on disk —
  /// the recovery start position for an incremental checkpoint. Returns
  /// kInvalidLsn when nothing is dirty.
  Lsn min_dirty_rec_lsn() const;

  /// Writes dirty frames of one file (used before taking a file offline
  /// cleanly or for backup preparation).
  CheckpointResult flush_file(FileId file);

  /// Drops all frames of a file without writing them (file deleted or
  /// taken offline IMMEDIATE: its dirty buffers are lost, which is why the
  /// file later needs redo recovery). Pinned frames must not exist.
  void discard_file(FileId file);

  /// Drops one frame without writing it (block media recovery about to
  /// replace the on-disk block: a cached copy would mask the repair). No-op
  /// when the page is not cached; the page must not be pinned.
  void discard_page(PageId id);

  /// Drops every frame (instance shutdown abort: cache contents vanish).
  void discard_all();

  std::uint64_t dirty_count() const;
  std::uint32_t capacity() const { return capacity_; }

  /// I/O mode for miss reads and eviction writes. A stand-by instance in
  /// managed recovery runs with kBackground so its replay I/O occupies its
  /// own devices without blocking the (shared-clock) primary workload.
  void set_io_mode(sim::IoMode mode) { io_mode_ = mode; }

  /// Wires the cache into a statistics area: hit/read counters plus the
  /// db_file_sequential_read and buffer_busy wait events (measured on
  /// `clock`). Instruments are resolved here, once; nullptr obs falls back
  /// to the process-wide default so standalone caches stay observable.
  void set_observability(obs::Observability* obs,
                         const sim::VirtualClock* clock);

 private:
  friend class PageRef;

  struct Frame {
    Page page;
    PageId id{PageId::invalid()};
    bool dirty = false;
    std::uint32_t pins = 0;
    SimTime dirty_since = 0;   // first-dirty instant
    Lsn rec_lsn = kInvalidLsn; // LSN of the record that first dirtied it
    Frame* lru_prev = nullptr;  // toward the least recently used
    Frame* lru_next = nullptr;  // toward the most recently used
  };

  void unpin(PageId id);
  void lru_unlink(Frame* f);
  void lru_append(Frame* f);
  /// Moves a hit frame to the most-recently-used end.
  void lru_touch(Frame* f);
  /// Frees the least recently used unpinned frame, writing it out first if
  /// dirty. Fails if everything is pinned.
  Status evict_one();
  /// Folds pages dirtied since the last sweep into `dirty_sorted_` and
  /// drops stale entries, leaving the exact dirty set in PageId order.
  void merge_dirty_runs();

  PageStore* store_;
  std::uint32_t capacity_;
  sim::IoMode io_mode_ = sim::IoMode::kForeground;
  std::function<void(Lsn)> wal_flush_;
  std::unordered_map<PageId, std::unique_ptr<Frame>> frames_;
  /// Recency list over every resident frame: head is the least recently
  /// fetched, tail the most recent.
  Frame* lru_head_ = nullptr;
  Frame* lru_tail_ = nullptr;
  /// One-entry fast path for fetch: TPC-C touches the same page in short
  /// bursts (row read → update → index maintenance), so remembering the
  /// last frame skips the hash lookup on the hottest call in the system.
  PageId last_id_{PageId::invalid()};
  Frame* last_frame_ = nullptr;
  /// Dirty-page bookkeeping for checkpoint sweeps. `dirty_sorted_` is the
  /// sorted run surviving the previous sweep; `dirty_fresh_` collects pages
  /// dirtied since. Sweeps sort only the fresh run and merge — reusing the
  /// sorted run instead of re-sorting the whole dirty list, and iterating
  /// the dirty set instead of every frame. Entries may go stale (a dirty
  /// page evicted or discarded); merge_dirty_runs drops them lazily.
  std::vector<PageId> dirty_sorted_;
  std::vector<PageId> dirty_fresh_;

  obs::WaitEventTable* waits_ = nullptr;
  const sim::VirtualClock* clock_ = nullptr;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* reads_counter_ = nullptr;
  obs::Counter* dirty_writes_counter_ = nullptr;
  obs::Counter* checkpoint_pages_counter_ = nullptr;
};

}  // namespace vdb::storage
