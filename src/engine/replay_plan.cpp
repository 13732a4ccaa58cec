#include "engine/replay_plan.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace vdb::engine {

bool RedoApplyPlan::skippable(ErrorCode code) {
  return code == ErrorCode::kMediaFailure || code == ErrorCode::kOffline ||
         code == ErrorCode::kNotFound || code == ErrorCode::kCorruption;
}

unsigned RedoApplyPlan::apply_workers(std::uint64_t records, unsigned jobs) {
  const std::uint64_t by_size = records / kApplyRecordsPerWorker;
  return static_cast<unsigned>(
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(jobs, by_size)));
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
  const std::size_t idx = staged_count_;
  if (idx < records_.size()) {
    records_[idx] = rec;  // copy-assign reuses the pooled entry's capacity
  } else {
    records_.push_back(rec);
  }
  staged_count_ += 1;

  const PageId page = rec.type == wal::LogRecordType::kFormatPage
                          ? rec.page
                          : rec.dml.rid.page;
  auto [it, inserted] = page_index_.try_emplace(page, runs_.size());
  if (inserted) {
    Run run;
    run.page = page;
    runs_.push_back(std::move(run));
    pending_runs_ += 1;
  }
  Run& run = runs_[it->second];
  run.items.push_back(idx);
  if (rec.type == wal::LogRecordType::kFormatPage) run.has_format = true;
}

Status RedoApplyPlan::apply_serially(Run& run, Stats* stats) {
  run.handled_serially = true;
  for (std::size_t idx : run.items) {
    const wal::LogRecord& rec = records_[idx];
    Status st = hooks_.serial_apply(rec);
    if (st.is_ok()) {
      stats->applied += 1;
      applied_counter_->inc();
      continue;
    }
    if (!skippable(st.code())) return st;
    stats->skipped += 1;
    skipped_counter_->inc();
    if (hooks_.on_skip) hooks_.on_skip(rec.lsn, st);
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
    run.skipped = true;
    for (std::size_t idx : run.items) {
      stats->skipped += 1;
      skipped_counter_->inc();
      if (hooks_.on_skip) hooks_.on_skip(records_[idx].lsn, ref.status());
    }
    return Status::ok();
  }
  if (!ref.value()->formatted()) return apply_serially(run, stats);
  run.ref = std::move(ref).value();
  return Status::ok();
}

void RedoApplyPlan::apply_run(Run& run) const {
  // May run on an apply worker: it writes only its own page and, once at the
  // end, its own run. The applied count is folded into the counter at
  // finalize, so workers share no cache line per record.
  storage::Page* page = run.ref.page();
  Lsn first_applied = kInvalidLsn;
  for (std::size_t idx : run.items) {
    const wal::LogRecord& rec = records_[idx];
    if (rec.lsn <= page->lsn()) continue;
    switch (rec.type) {
      case wal::LogRecordType::kInsert:
      case wal::LogRecordType::kUpdate:
        page->set_slot(rec.dml.rid.slot, rec.dml.after);
        break;
      case wal::LogRecordType::kDelete:
        page->clear_slot(rec.dml.rid.slot);
        break;
      default:
        break;  // unreachable: format runs were handled serially
    }
    page->set_lsn(rec.lsn);
    if (first_applied == kInvalidLsn) first_applied = rec.lsn;
  }
  run.first_applied = first_applied;
}

Result<RedoApplyPlan::Stats> RedoApplyPlan::drain() {
  if (pending_runs_ == 0) {
    reset();
    return Stats{};
  }
  std::vector<std::size_t> selected;
  selected.reserve(pending_runs_);
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    if (!runs_[r].done) selected.push_back(r);
  }
  return drain_runs(selected);
}

Result<RedoApplyPlan::Stats> RedoApplyPlan::drain_page(PageId pid) {
  auto it = page_index_.find(pid);
  if (it == page_index_.end()) return Stats{};
  return drain_runs({it->second});
}

Result<RedoApplyPlan::Stats> RedoApplyPlan::drain_some(std::size_t max_runs) {
  std::vector<std::size_t> selected;
  selected.reserve(std::min(max_runs, pending_runs_));
  for (std::size_t r = 0; r < runs_.size() && selected.size() < max_runs;
       ++r) {
    if (!runs_[r].done) selected.push_back(r);
  }
  if (selected.empty()) return Stats{};
  return drain_runs(selected);
}

std::vector<PageId> RedoApplyPlan::pending_pages() const {
  std::vector<PageId> pages;
  pages.reserve(pending_runs_);
  for (const Run& run : runs_) {
    if (!run.done) pages.push_back(run.page);
  }
  return pages;
}

Lsn RedoApplyPlan::low_water() const {
  Lsn low = kInvalidLsn;
  for (const Run& run : runs_) {
    if (run.done || run.items.empty()) continue;
    // Items are staged in LSN order, so the first is the run's lowest.
    low = std::min(low, records_[run.items.front()].lsn);
  }
  return low;
}

void RedoApplyPlan::overlay_page(PageId pid, storage::Page* copy) const {
  auto it = page_index_.find(pid);
  if (it == page_index_.end()) return;
  const Run& run = runs_[it->second];
  for (std::size_t idx : run.items) {
    const wal::LogRecord& rec = records_[idx];
    if (rec.lsn <= copy->lsn()) continue;
    switch (rec.type) {
      case wal::LogRecordType::kInsert:
      case wal::LogRecordType::kUpdate:
        copy->set_slot(rec.dml.rid.slot, rec.dml.after);
        break;
      case wal::LogRecordType::kDelete:
        copy->clear_slot(rec.dml.rid.slot);
        break;
      default:
        // A format record with lsn above a formatted image cannot happen
        // (the image was flushed after the format applied); an unformatted
        // image never reaches the overlay (the scan skips it).
        continue;
    }
    copy->set_lsn(rec.lsn);
  }
}

Result<RedoApplyPlan::Stats> RedoApplyPlan::drain_runs(
    const std::vector<std::size_t>& selected) {
  Stats stats;
  if (selected.empty()) return stats;
  drains_counter_->inc();
  const unsigned jobs = resolve_jobs(hooks_.jobs);

  // Runs are processed in chunks small enough that every chunk's pages fit
  // pinned in the cache with room to spare (the serial-apply path inside
  // prepare fetches pages of its own). Chunk boundaries depend only on the
  // selected run set, never on the worker count.
  const std::uint32_t cache_cap = hooks_.storage->cache().capacity();
  const std::size_t max_pins =
      std::max<std::size_t>(1, std::min<std::size_t>(cache_cap / 2, 512));

  Status failure = Status::ok();
  for (std::size_t begin = 0; begin < selected.size() && failure.is_ok();
       begin += max_pins) {
    const std::size_t end = std::min(selected.size(), begin + max_pins);

    // Serial prepare: pin pages, route special runs through the engine,
    // and charge the apply share of the replay CPU in deterministic order.
    std::vector<std::size_t> parallel_runs;
    parallel_runs.reserve(end - begin);
    std::uint64_t parallel_records = 0;
    for (std::size_t s = begin; s < end; ++s) {
      Run& run = runs_[selected[s]];
      if (hooks_.charge_apply) hooks_.charge_apply(run.items.size());
      failure = prepare_run(run, &stats);
      if (!failure.is_ok()) break;
      if (run.ref.valid()) {
        parallel_runs.push_back(selected[s]);
        parallel_records += run.items.size();
      }
    }

    // Apply: disjoint pinned pages, in-memory writes only. Most drains are
    // a few dozen records, which apply faster inline than a thread starts.
    const unsigned workers = apply_workers(parallel_records, jobs);
    stats.workers = std::max(stats.workers, workers);
    parallel_for(parallel_runs.size(), workers,
                 [&](std::size_t i) { apply_run(runs_[parallel_runs[i]]); });

    // Serial finalize: dirty-mark with the first applied LSN (a checkpoint
    // taken mid-recovery must know how far back this page's changes reach),
    // release pins, and fold stats in deterministic run order.
    for (std::size_t s = begin; s < end; ++s) {
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

  if (pending_runs_ == 0) reset();

  if (!failure.is_ok()) return failure;
  return stats;
}

void RedoApplyPlan::reset() {
  // Record entries keep their capacity; run and index containers are
  // per-page (far fewer than per-record) so plain clears are cheap.
  staged_count_ = 0;
  runs_.clear();
  page_index_.clear();
  pending_runs_ = 0;
}

}  // namespace vdb::engine
