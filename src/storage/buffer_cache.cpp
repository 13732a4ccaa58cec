#include "storage/buffer_cache.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

namespace vdb::storage {

BufferCache::BufferCache(PageStore* store, std::uint32_t capacity,
                         std::function<void(Lsn)> wal_flush)
    : store_(store), capacity_(capacity), wal_flush_(std::move(wal_flush)) {
  VDB_CHECK(capacity_ > 0);
  // Instruments are always wired (default statistics area until the engine
  // re-wires them) so the hot paths never test for null counters.
  set_observability(nullptr, nullptr);
}

void BufferCache::set_observability(obs::Observability* obs,
                                    const sim::VirtualClock* clock) {
  obs::Observability* o = obs::resolve(obs);
  waits_ = &o->waits();
  clock_ = clock;
  obs::MetricsRegistry& reg = o->registry();
  hits_counter_ = reg.counter("buffer cache hits");
  reads_counter_ = reg.counter("physical reads");
  dirty_writes_counter_ = reg.counter("physical writes");
  checkpoint_pages_counter_ = reg.counter("checkpoint pages written");
}

Result<PageRef> BufferCache::fetch(PageId id) {
  if (last_frame_ != nullptr && id == last_id_) {
    hits_counter_->inc();
    last_frame_->pins += 1;
    lru_touch(last_frame_);
    return PageRef{last_frame_};
  }

  if (Frame* f = resident(id)) {
    hits_counter_->inc();
    f->pins += 1;
    lru_touch(f);
    last_id_ = id;
    last_frame_ = f;
    return PageRef{f};
  }

  VDB_ASSIGN_OR_RETURN(Frame * frame, take_frame());
  Status st;
  {
    obs::WaitScope wait(waits_, clock_, obs::WaitEvent::kDbFileSequentialRead);
    st = store_->load_page(id, &frame->page, io_mode_);
  }
  if (!st.is_ok()) {
    free_.push_back(frame->slot);
    return st;
  }
  reads_counter_->inc();
  frame->id = id;
  frame->pins = 1;
  table_.insert(id, frame->slot);
  lru_append(frame);
  last_id_ = id;
  last_frame_ = frame;
  return PageRef{frame};
}

Result<BufferFrame*> BufferCache::take_frame() {
  if (free_.empty() && pool_.size() < capacity_) {
    free_.push_back(static_cast<std::uint32_t>(pool_.size()));
    pool_.emplace_back();  // an empty slot, filled below
  }
  if (free_.empty()) return evict_one();
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  if (pool_[slot] == nullptr) {
    pool_[slot] = std::make_unique<Frame>();
    pool_[slot]->slot = slot;
  }
  return pool_[slot].get();
}

void BufferCache::release_frame(Frame* f) {
  if (f == last_frame_) {
    last_frame_ = nullptr;
    last_id_ = PageId::invalid();
  }
  lru_unlink(f);
  table_.erase(f->id);
  f->id = PageId::invalid();
  f->dirty = false;
  f->pins = 0;
  f->dirty_since = 0;
  f->rec_lsn = kInvalidLsn;
}

void BufferCache::mark_dirty(PageId id, SimTime now, Lsn first_change_lsn) {
  Frame* f = resident(id);
  VDB_CHECK_MSG(f != nullptr, "mark_dirty on non-resident page");
  VDB_CHECK_MSG(f->pins > 0, "mark_dirty on unpinned page");
  Frame& frame = *f;
  if (!frame.dirty) {
    frame.dirty = true;
    frame.dirty_since = now;
    frame.rec_lsn = first_change_lsn != kInvalidLsn ? first_change_lsn
                                                    : frame.page.lsn();
    dirty_fresh_.push_back(id);
  }
}

void BufferCache::merge_dirty_runs() {
  if (!dirty_fresh_.empty()) {
    std::sort(dirty_fresh_.begin(), dirty_fresh_.end());
    const auto mid = static_cast<std::ptrdiff_t>(dirty_sorted_.size());
    dirty_sorted_.insert(dirty_sorted_.end(), dirty_fresh_.begin(),
                         dirty_fresh_.end());
    std::inplace_merge(dirty_sorted_.begin(), dirty_sorted_.begin() + mid,
                       dirty_sorted_.end());
    dirty_fresh_.clear();
  }
  // Drop stale entries (pages cleaned by eviction or discarded) and the
  // duplicate left when a dirty page was evicted, refetched, and dirtied
  // again.
  std::size_t out = 0;
  PageId prev = PageId::invalid();
  for (PageId id : dirty_sorted_) {
    if (id == prev) continue;
    const Frame* f = resident(id);
    if (f == nullptr || !f->dirty) continue;
    dirty_sorted_[out++] = id;
    prev = id;
  }
  dirty_sorted_.resize(out);
}

CheckpointResult BufferCache::flush_aged(SimTime older_than) {
  CheckpointResult result;
  merge_dirty_runs();
  std::size_t still_dirty = 0;
  for (PageId id : dirty_sorted_) {
    Frame& frame = *resident(id);
    if (frame.dirty_since > older_than) {
      dirty_sorted_[still_dirty++] = id;
      continue;
    }
    wal_flush_(frame.page.lsn());
    Status st = store_->store_page(id, frame.page, sim::IoMode::kBackground,
                                   /*batched=*/true);
    if (st.is_ok()) {
      frame.dirty = false;
      result.pages_written += 1;
      dirty_writes_counter_->inc();
    } else {
      result.failures.emplace_back(id, st);
      dirty_sorted_[still_dirty++] = id;
    }
  }
  dirty_sorted_.resize(still_dirty);
  return result;
}

Lsn BufferCache::min_dirty_rec_lsn() const {
  Lsn min_lsn = kInvalidLsn;
  auto scan = [&](const std::vector<PageId>& run) {
    for (PageId id : run) {
      const Frame* f = resident(id);
      if (f != nullptr && f->dirty) min_lsn = std::min(min_lsn, f->rec_lsn);
    }
  };
  scan(dirty_sorted_);
  scan(dirty_fresh_);
  return min_lsn;
}

void BufferCache::lru_unlink(Frame* f) {
  (f->lru_prev != nullptr ? f->lru_prev->lru_next : lru_head_) = f->lru_next;
  (f->lru_next != nullptr ? f->lru_next->lru_prev : lru_tail_) = f->lru_prev;
}

void BufferCache::lru_append(Frame* f) {
  f->lru_prev = lru_tail_;
  f->lru_next = nullptr;
  (lru_tail_ != nullptr ? lru_tail_->lru_next : lru_head_) = f;
  lru_tail_ = f;
}

void BufferCache::lru_touch(Frame* f) {
  if (f == lru_tail_) return;
  lru_unlink(f);
  lru_append(f);
}

Result<BufferFrame*> BufferCache::evict_one() {
  Frame* victim = lru_head_;
  while (victim != nullptr && victim->pins > 0) victim = victim->lru_next;
  if (victim == nullptr) {
    return make_error(ErrorCode::kInternal, "buffer cache: all pages pinned");
  }
  if (victim->dirty) {
    obs::WaitScope wait(waits_, clock_, obs::WaitEvent::kBufferBusy);
    wal_flush_(victim->page.lsn());
    Status st = store_->store_page(victim->id, victim->page, io_mode_,
                                   /*batched=*/false);
    // A failed write (missing datafile) still frees the frame: the change
    // is preserved in the redo stream and will be reapplied by media
    // recovery, exactly as in the modelled DBMS.
    if (st.is_ok()) dirty_writes_counter_->inc();
  }
  release_frame(victim);
  return victim;
}

CheckpointResult BufferCache::checkpoint() {
  CheckpointResult result;
  merge_dirty_runs();

  // Flush the log once past the newest dirty page.
  Lsn max_lsn = 0;
  for (PageId id : dirty_sorted_) {
    max_lsn = std::max(max_lsn, resident(id)->page.lsn());
  }
  if (max_lsn > 0) wal_flush_(max_lsn);

  std::size_t still_dirty = 0;
  for (PageId id : dirty_sorted_) {
    Frame& frame = *resident(id);
    Status st = store_->store_page(id, frame.page, sim::IoMode::kBackground,
                                   /*batched=*/true);
    if (st.is_ok()) {
      frame.dirty = false;
      result.pages_written += 1;
      dirty_writes_counter_->inc();
      checkpoint_pages_counter_->inc();
    } else {
      result.failures.emplace_back(id, st);
      dirty_sorted_[still_dirty++] = id;
    }
  }
  dirty_sorted_.resize(still_dirty);
  return result;
}

CheckpointResult BufferCache::flush_file(FileId file) {
  CheckpointResult result;
  merge_dirty_runs();
  std::size_t still_dirty = 0;
  for (PageId id : dirty_sorted_) {
    Frame& frame = *resident(id);
    if (id.file != file) {
      dirty_sorted_[still_dirty++] = id;
      continue;
    }
    wal_flush_(frame.page.lsn());
    Status st = store_->store_page(id, frame.page, sim::IoMode::kBackground,
                                   /*batched=*/true);
    if (st.is_ok()) {
      frame.dirty = false;
      result.pages_written += 1;
      dirty_writes_counter_->inc();
    } else {
      result.failures.emplace_back(id, st);
      dirty_sorted_[still_dirty++] = id;
    }
  }
  dirty_sorted_.resize(still_dirty);
  return result;
}

void BufferCache::drop_frame(Frame* f) {
  VDB_CHECK_MSG(f->pins == 0, "discarding pinned page");
  release_frame(f);
  const std::uint32_t slot = f->slot;
  pool_[slot].reset();
  free_.push_back(slot);
}

void BufferCache::discard_file(FileId file) {
  for (const auto& f : pool_) {
    if (f != nullptr && f->id.valid() && f->id.file == file) {
      drop_frame(f.get());
    }
  }
  last_frame_ = nullptr;
  last_id_ = PageId::invalid();
}

void BufferCache::discard_page(PageId id) {
  Frame* f = resident(id);
  if (f == nullptr) return;
  drop_frame(f);
  // A stale id may linger in the dirty runs; the sweep helpers already skip
  // entries whose frame is gone or clean.
}

void BufferCache::discard_all() {
  for (const auto& f : pool_) {
    VDB_CHECK_MSG(f == nullptr || f->pins == 0, "discarding pinned page");
  }
  // The instance is gone: its frames go back to the allocator, and a cache
  // that serves again creates them anew.
  pool_.clear();
  free_.clear();
  table_.clear();
  lru_head_ = nullptr;
  lru_tail_ = nullptr;
  last_frame_ = nullptr;
  last_id_ = PageId::invalid();
  dirty_sorted_.clear();
  dirty_fresh_.clear();
}

std::uint64_t BufferCache::dirty_count() const {
  std::uint64_t n = 0;
  for (const auto& f : pool_) {
    if (f != nullptr && f->id.valid() && f->dirty) ++n;
  }
  return n;
}

}  // namespace vdb::storage
