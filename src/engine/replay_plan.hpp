// Partitioned redo apply plan: the shared second phase of every replay
// driver (instance recovery, media recovery, standby managed recovery).
//
// Replay is two-phase. Phase one — the driver's scan — walks the redo
// stream in LSN order doing the bookkeeping only a serial pass can do
// (redo analysis, stop-before positions, simulated-clock charges) and
// stages every page-targeted record here. Phase two — drain()
// — groups the staged records into per-page runs and applies them chunk by
// chunk on the calling thread: each run's page is fetched and pinned in run
// order and its records apply in LSN order right away; the chunk's dirty
// marks and unpins follow once the whole chunk is through, so the pages of
// one chunk never evict each other.
//
// Runs that need engine machinery — page-format records, pages formatted by
// a NOLOGGING table (no format record exists) — are applied serially
// through the driver-supplied apply callback during the prepare step; every
// other run takes pure in-memory slot writes on its pinned, formatted page.
//
// Staging copies no LogRecord: each record becomes a small fixed entry,
// and an insert's or update's after image is appended to one byte arena
// the plan owns (never a view of the log, because a retained plan outlives
// the read that staged it). Only the serial path rebuilds a LogRecord, one
// entry at a time, in a single scratch record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/flat_index.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "obs/observability.hpp"
#include "storage/storage_manager.hpp"
#include "wal/log_record.hpp"

namespace vdb::engine {

class RedoApplyPlan {
 public:
  struct Stats {
    /// Records applied, guard-skipped ones (change already on the page)
    /// included. Records skipped on missing/offline files are reported
    /// through Hooks::on_skip and the "replay records skipped" counter.
    std::uint64_t applied = 0;
  };

  struct Hooks {
    storage::StorageManager* storage = nullptr;
    /// Full engine-level apply (Database::apply_record): used for format
    /// records and runs whose page the fast path cannot handle.
    std::function<Status(const wal::LogRecord&)> serial_apply;
    /// Invoked (serially, in staging order per page) for every record
    /// skipped because its datafile is gone or offline. Optional.
    std::function<void(Lsn, const Status&)> on_skip;
    /// Statistics area; nullptr falls back to the process default.
    obs::Observability* obs = nullptr;
    /// Serial per-run charge, invoked once per drained run with the run's
    /// record count. The instance-recovery driver uses it to charge the
    /// apply share of the replay CPU at drain time (early-open restart
    /// modes pay it on demand / in the background instead of up front).
    std::function<void(std::uint64_t)> charge_apply;
  };

  explicit RedoApplyPlan(Hooks hooks) : hooks_(std::move(hooks)) {
    obs::MetricsRegistry& reg = obs::resolve(hooks_.obs)->registry();
    applied_counter_ = reg.counter("replay records applied");
    skipped_counter_ = reg.counter("replay records skipped");
    drains_counter_ = reg.counter("replay drains");
  }

  /// True for apply errors a replay skips instead of failing on: the
  /// record touches a deleted, offline or corrupt file, which media
  /// recovery (whole-file or per-block) brings forward later. Every replay
  /// driver uses this one set.
  static bool skippable(ErrorCode code);

  /// True for record types the plan partitions (DML + page format). The
  /// driver applies everything else itself — DDL and checkpoint records are
  /// serial barriers: drain() first, then apply the record.
  static bool wants(wal::LogRecordType type);

  /// Stages `rec`: a compact entry plus, for inserts and updates, a copy
  /// of its after image in the plan's byte arena. Nothing points into
  /// `rec` afterwards, so it may be parse_records' reused scratch record.
  /// Must only be called with wants(rec.type) true.
  void stage(const wal::LogRecord& rec);

  std::size_t staged() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Applies every staged record and resets the plan. Entries, the image
  /// arena, runs, their item lists, the page index and the drain's scratch
  /// lists keep their capacity across cycles, so a warm plan stages and
  /// drains without allocating.
  Result<Stats> drain();

  // --- retained-run mode (early-open / on-demand restart) -----------------
  //
  // Instead of one big drain, the restart coordinator keeps the staged
  // plan alive across the database open and drains runs piecemeal: a
  // single page on a user fetch (drain_page), a batch per background
  // sweeper tick (drain_some). The plan fully resets only once the last
  // run has drained.

  /// Drains just the run for `pid` (no-op when none is pending).
  Result<Stats> drain_page(PageId pid);

  /// Drains up to `max_runs` pending runs in staging order.
  Result<Stats> drain_some(std::size_t max_runs);

  bool has_pending() const { return pending_runs_ > 0; }
  std::size_t pending_runs() const { return pending_runs_; }
  bool page_pending(PageId pid) const {
    return page_index_.find(pid) != FlatIndex<PageId>::kNone;
  }
  /// Pending pages in staging (first-touch LSN) order — deterministic.
  std::vector<PageId> pending_pages() const;

  /// commit_lsn watermark: the lowest LSN of any record still pending.
  /// Every record below it has been applied, so checkpoints taken while
  /// runs are pending must not advance the recovery position past it.
  /// kInvalidLsn when nothing is pending.
  Lsn low_water() const;

  /// Applies the pending run for `pid` to `copy` (LSN-guarded slot writes,
  /// format records skipped — an on-disk formatted image is already past
  /// its format LSN). No charges, counters, or dirty marks: this patches a
  /// scanned page image for analysis-informed rebuild while the physical
  /// apply stays deferred.
  void overlay_page(PageId pid, storage::Page* copy) const;

 private:
  /// One staged record: what the apply needs and no more. A DML record
  /// keeps its row address and table; a format record its page (in
  /// `rid.page`), owner and slot size. Inserts and updates keep their after
  /// image as [image, image + image_len) of `arena_`.
  struct Entry {
    Lsn lsn = kInvalidLsn;
    std::size_t image = 0;
    RowId rid{};
    TableId owner{};
    std::uint32_t image_len = 0;
    std::uint16_t slot_size = 0;
    wal::LogRecordType type = wal::LogRecordType::kInsert;
  };

  struct Run {
    PageId page{PageId::invalid()};
    std::vector<std::uint32_t> items;  // indices into entries_, LSN order
    bool has_format = false;
    bool done = false;  // drained in retained-run mode
    // Filled by prepare_run/apply_run:
    storage::PageRef ref;
    Lsn first_applied = kInvalidLsn;
  };

  std::span<const std::uint8_t> image_of(const Entry& e) const {
    return {arena_.data() + e.image, e.image_len};
  }
  /// Applies `e` to a formatted page (LSN-guarded by the caller). False for
  /// a format entry, which only the serial path applies.
  bool apply_to(const Entry& e, storage::Page* page) const;
  /// Rebuilds `e` as a LogRecord in the one scratch record, for the serial
  /// path (format runs, NOLOGGING-formatted pages).
  const wal::LogRecord& as_record(const Entry& e);

  /// Pins `run`'s page in `run.ref` for apply_run. Format runs and pages a
  /// NOLOGGING table formatted apply through the engine here instead and
  /// hold no pin; runs on missing/offline files are skipped.
  Status prepare_run(Run& run, Stats* stats);
  Status apply_serially(Run& run, Stats* stats);
  void apply_run(Run& run) const;
  /// Shared drain engine: applies the runs listed in `selected` (chunked so
  /// pinned pages fit in the cache), marks them done, and fully resets once
  /// no run is left pending. A run whose prepare fails stays pending with
  /// every run after it, so a retried drain picks them up (the apply is
  /// LSN-guarded, hence idempotent). `selected` is a pooled scratch list the
  /// call hands back when it returns.
  Result<Stats> drain_runs(std::vector<std::uint32_t> selected);
  void reset();

  Hooks hooks_;
  /// Staged entries (staged() of them) and the after images they point
  /// into. Both are cleared, not freed, when the plan resets.
  std::vector<Entry> entries_;
  std::vector<std::uint8_t> arena_;
  /// Runs in first-touch (LSN) order — deterministic. The first run_count_
  /// are live; the rest keep their item lists' capacity for reuse.
  std::vector<Run> runs_;
  std::size_t run_count_ = 0;
  std::size_t pending_runs_ = 0;  // staged runs not yet drained
  FlatIndex<PageId> page_index_;  // pending page -> its run
  /// Selected-runs list of a drain, pooled across drains. A drain
  /// re-entered from its own serial apply finds it taken and uses a fresh
  /// one.
  std::vector<std::uint32_t> selected_scratch_;
  wal::LogRecord scratch_record_;
  obs::Counter* applied_counter_ = nullptr;
  obs::Counter* skipped_counter_ = nullptr;
  obs::Counter* drains_counter_ = nullptr;
};

}  // namespace vdb::engine
