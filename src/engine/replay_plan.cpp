#include "engine/replay_plan.hpp"

#include <algorithm>

namespace vdb::engine {

bool RedoApplyPlan::skippable(ErrorCode code) {
  return code == ErrorCode::kMediaFailure || code == ErrorCode::kOffline ||
         code == ErrorCode::kNotFound || code == ErrorCode::kCorruption;
}

bool RedoApplyPlan::wants(wal::LogRecordType type) {
  switch (type) {
    case wal::LogRecordType::kInsert:
    case wal::LogRecordType::kUpdate:
    case wal::LogRecordType::kDelete:
    case wal::LogRecordType::kFormatPage:
      return true;
    default:
      return false;
  }
}

void RedoApplyPlan::stage(const wal::LogRecord& rec) {
  VDB_CHECK_MSG(wants(rec.type), "staging non-partitionable record");
  const auto idx = static_cast<std::uint32_t>(entries_.size());
  Entry& e = entries_.emplace_back();
  e.lsn = rec.lsn;
  e.type = rec.type;
  if (rec.type == wal::LogRecordType::kFormatPage) {
    e.rid = RowId{rec.page, 0};
    e.owner = rec.format_owner;
    e.slot_size = rec.slot_size;
  } else {
    e.rid = rec.dml.rid;
    e.owner = rec.dml.table;
    if (rec.type != wal::LogRecordType::kDelete) {
      e.image = arena_.size();
      e.image_len = static_cast<std::uint32_t>(rec.dml.after.size());
      arena_.insert(arena_.end(), rec.dml.after.begin(), rec.dml.after.end());
    }
  }

  const PageId page = e.rid.page;
  bool inserted = false;
  const std::uint32_t r = page_index_.find_or_insert(
      page, static_cast<std::uint32_t>(run_count_), &inserted);
  if (inserted) {
    if (run_count_ == runs_.size()) runs_.emplace_back();
    Run& run = runs_[run_count_++];
    run.page = page;
    run.items.clear();
    run.has_format = false;
    run.done = false;
    run.first_applied = kInvalidLsn;
    pending_runs_ += 1;
  }
  Run& run = runs_[r];
  run.items.push_back(idx);
  if (rec.type == wal::LogRecordType::kFormatPage) run.has_format = true;
}

bool RedoApplyPlan::apply_to(const Entry& e, storage::Page* page) const {
  switch (e.type) {
    case wal::LogRecordType::kInsert:
    case wal::LogRecordType::kUpdate:
      page->set_slot(e.rid.slot, image_of(e));
      return true;
    case wal::LogRecordType::kDelete:
      page->clear_slot(e.rid.slot);
      return true;
    default:
      return false;
  }
}

const wal::LogRecord& RedoApplyPlan::as_record(const Entry& e) {
  wal::LogRecord& rec = scratch_record_;
  rec.type = e.type;
  rec.lsn = e.lsn;
  if (e.type == wal::LogRecordType::kFormatPage) {
    rec.page = e.rid.page;
    rec.format_owner = e.owner;
    rec.slot_size = e.slot_size;
  } else {
    rec.dml.table = e.owner;
    rec.dml.rid = e.rid;
    const auto image = image_of(e);
    rec.dml.after.assign(image.begin(), image.end());
  }
  return rec;
}

Status RedoApplyPlan::apply_serially(Run& run, Stats* stats) {
  for (std::uint32_t idx : run.items) {
    const Entry& e = entries_[idx];
    Status st = hooks_.serial_apply(as_record(e));
    if (st.is_ok()) {
      stats->applied += 1;
      applied_counter_->inc();
      continue;
    }
    if (!skippable(st.code())) return st;
    skipped_counter_->inc();
    if (hooks_.on_skip) hooks_.on_skip(e.lsn, st);
  }
  return Status::ok();
}

Status RedoApplyPlan::prepare_run(Run& run, Stats* stats) {
  // Runs containing a format record rebuild the page through the engine
  // (allocation high-water marks, file extension); runs on pages a
  // NOLOGGING table formatted need the engine's implicit-format fallback.
  // Both take the exact serial code path so semantics cannot drift.
  if (run.has_format) return apply_serially(run, stats);

  auto ref = hooks_.storage->fetch(run.page);
  if (!ref.is_ok()) {
    if (!skippable(ref.code())) return ref.status();
    for (std::uint32_t idx : run.items) {
      skipped_counter_->inc();
      if (hooks_.on_skip) hooks_.on_skip(entries_[idx].lsn, ref.status());
    }
    return Status::ok();
  }
  if (!ref.value()->formatted()) return apply_serially(run, stats);
  run.ref = std::move(ref).value();
  return Status::ok();
}

void RedoApplyPlan::apply_run(Run& run) const {
  storage::Page* page = run.ref.page();
  Lsn first_applied = kInvalidLsn;
  for (std::uint32_t idx : run.items) {
    const Entry& e = entries_[idx];
    if (e.lsn <= page->lsn()) continue;
    // Format runs were handled serially, so every entry here applies.
    apply_to(e, page);
    page->set_lsn(e.lsn);
    if (first_applied == kInvalidLsn) first_applied = e.lsn;
  }
  run.first_applied = first_applied;
}

Result<RedoApplyPlan::Stats> RedoApplyPlan::drain() {
  if (pending_runs_ == 0) {
    reset();
    return Stats{};
  }
  std::vector<std::uint32_t> selected = std::move(selected_scratch_);
  selected.clear();
  for (std::size_t r = 0; r < run_count_; ++r) {
    if (!runs_[r].done) selected.push_back(static_cast<std::uint32_t>(r));
  }
  return drain_runs(std::move(selected));
}

Result<RedoApplyPlan::Stats> RedoApplyPlan::drain_page(PageId pid) {
  const std::uint32_t r = page_index_.find(pid);
  if (r == FlatIndex<PageId>::kNone) return Stats{};
  std::vector<std::uint32_t> selected = std::move(selected_scratch_);
  selected.assign(1, r);
  return drain_runs(std::move(selected));
}

Result<RedoApplyPlan::Stats> RedoApplyPlan::drain_some(std::size_t max_runs) {
  std::vector<std::uint32_t> selected = std::move(selected_scratch_);
  selected.clear();
  for (std::size_t r = 0; r < run_count_ && selected.size() < max_runs;
       ++r) {
    if (!runs_[r].done) selected.push_back(static_cast<std::uint32_t>(r));
  }
  return drain_runs(std::move(selected));
}

std::vector<PageId> RedoApplyPlan::pending_pages() const {
  std::vector<PageId> pages;
  pages.reserve(pending_runs_);
  for (std::size_t r = 0; r < run_count_; ++r) {
    if (!runs_[r].done) pages.push_back(runs_[r].page);
  }
  return pages;
}

Lsn RedoApplyPlan::low_water() const {
  Lsn low = kInvalidLsn;
  for (std::size_t r = 0; r < run_count_; ++r) {
    const Run& run = runs_[r];
    if (run.done || run.items.empty()) continue;
    // Items are staged in LSN order, so the first is the run's lowest.
    low = std::min(low, entries_[run.items.front()].lsn);
  }
  return low;
}

void RedoApplyPlan::overlay_page(PageId pid, storage::Page* copy) const {
  const std::uint32_t r = page_index_.find(pid);
  if (r == FlatIndex<PageId>::kNone) return;
  for (std::uint32_t idx : runs_[r].items) {
    const Entry& e = entries_[idx];
    if (e.lsn <= copy->lsn()) continue;
    // A format record with lsn above a formatted image cannot happen (the
    // image was flushed after the format applied); an unformatted image
    // never reaches the overlay (the scan skips it).
    if (!apply_to(e, copy)) continue;
    copy->set_lsn(e.lsn);
  }
}

Result<RedoApplyPlan::Stats> RedoApplyPlan::drain_runs(
    std::vector<std::uint32_t> selected) {
  Stats stats;
  if (selected.empty()) {
    selected_scratch_ = std::move(selected);
    return stats;
  }
  drains_counter_->inc();

  // Runs are processed in chunks small enough that every chunk's pages fit
  // pinned in the cache with room to spare (the serial-apply path inside
  // prepare fetches pages of its own). Chunk boundaries depend only on the
  // selected run set.
  const std::uint32_t cache_cap = hooks_.storage->cache().capacity();
  const std::size_t max_pins =
      std::max<std::size_t>(1, std::min<std::size_t>(cache_cap / 2, 512));

  Status failure = Status::ok();
  for (std::size_t begin = 0; begin < selected.size() && failure.is_ok();
       begin += max_pins) {
    const std::size_t end = std::min(selected.size(), begin + max_pins);

    // Prepare and apply in run order: pin the page (or route a special run
    // through the engine), charge the apply share of the replay CPU, and
    // write the run's records into the pinned page. Pins stay held until
    // the chunk's finalize, so the chunk's fetches never evict each other.
    std::size_t prepared = begin;
    for (; prepared < end; ++prepared) {
      Run& run = runs_[selected[prepared]];
      if (hooks_.charge_apply) hooks_.charge_apply(run.items.size());
      failure = prepare_run(run, &stats);
      if (!failure.is_ok()) break;
      if (run.ref.valid()) apply_run(run);
    }

    // Finalize the prepared runs in run order: dirty-mark with the first
    // applied LSN (a checkpoint taken mid-recovery must know how far back
    // this page's changes reach) and release pins. A failed run and the
    // rest of its chunk stay pending for a later drain.
    for (std::size_t s = begin; s < prepared; ++s) {
      Run& run = runs_[selected[s]];
      if (run.ref.valid()) {
        if (run.first_applied != kInvalidLsn) {
          hooks_.storage->mark_dirty(run.page, run.first_applied);
        }
        // Guard-skipped records (change already on the page) count as
        // applied, matching the serial path where apply_record returns ok.
        stats.applied += run.items.size();
        applied_counter_->inc(run.items.size());
        run.ref = storage::PageRef{};
      }
      run.done = true;
      page_index_.erase(run.page);
      pending_runs_ -= 1;
    }
  }

  selected_scratch_ = std::move(selected);
  if (pending_runs_ == 0) reset();

  if (!failure.is_ok()) return failure;
  return stats;
}

void RedoApplyPlan::reset() {
  // Clears keep every container's capacity for the next cycle.
  entries_.clear();
  arena_.clear();
  run_count_ = 0;
  page_index_.clear();
  pending_runs_ = 0;
}

}  // namespace vdb::engine
